# Runs EXE with the ;-separated ARGS and fails unless it exits with status
# EXPECT exactly. A process killed by a signal reports a non-numeric result
# (e.g. "Child aborted"), so an abort can never pass for an ordinary error
# exit here, as it would under WILL_FAIL.
#
#   cmake -DEXE=<program> -DARGS=<a;b> -DEXPECT=1 -P expect_exit.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT result STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARGS}: expected exit status ${EXPECT}, "
                      "got '${result}'\n${err}")
endif()
