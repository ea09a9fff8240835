#include "easycrash/crash/status.hpp"

#include <cstdio>
#include <utility>

#include "easycrash/crash/resilience.hpp"
#include "easycrash/telemetry/log.hpp"
#include "easycrash/telemetry/trace.hpp"

namespace easycrash::crash {

namespace {

void appendDouble(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

std::string serializeStatus(const CampaignStatus& status) {
  std::string line = "{\"type\":\"campaign_status\",\"app\":\"";
  telemetry::appendJsonEscaped(line, status.app);
  line += "\",\"shard\":\"";
  line += std::to_string(status.shardIndex);
  line += '/';
  line += std::to_string(status.shardCount);
  line += "\",\"tests\":";
  line += std::to_string(status.plannedTests);
  line += ",\"decided\":";
  line += std::to_string(status.decided);
  line += ",\"resumed\":";
  line += std::to_string(status.resumed);
  for (int s = 0; s < 4; ++s) {
    line += ",\"s";
    line += static_cast<char>('1' + s);
    line += "\":";
    line += std::to_string(status.responses[static_cast<std::size_t>(s)]);
  }
  line += ",\"failures\":";
  line += std::to_string(status.failures);
  line += ",\"retries\":";
  line += std::to_string(status.retries);
  line += ",\"timeouts\":";
  line += std::to_string(status.timeouts);
  line += ",\"queue_depth\":";
  line += std::to_string(status.queueDepth);
  line += ",\"queue_bytes\":";
  line += std::to_string(status.queueBytes);
  line += ",\"workers\":";
  line += std::to_string(status.workers);
  line += ",\"worker_deaths\":";
  line += std::to_string(status.workerDeaths);
  line += ",\"elapsed_s\":";
  appendDouble(line, status.elapsedS);
  line += ",\"trials_per_s\":";
  appendDouble(line, status.trialsPerS);
  line += ",\"eta_s\":";
  appendDouble(line, status.etaS);
  line += ",\"interrupted\":";
  line += status.interrupted ? "true" : "false";
  line += ",\"done\":";
  line += status.done ? "true" : "false";
  line += ",\"seq\":";
  line += std::to_string(status.seq);
  line += "}\n";
  return line;
}

StatusWriter::StatusWriter(std::string path, std::chrono::milliseconds interval,
                           Sampler sampler)
    : path_(std::move(path)),
      interval_(interval),
      sampler_(std::move(sampler)) {
  thread_ = std::thread([this] { loop(); });
}

StatusWriter::~StatusWriter() { stopThread(); }

void StatusWriter::stopThread() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StatusWriter::writeFinal(bool interrupted) {
  stopThread();
  CampaignStatus status = sampler_();
  status.interrupted = interrupted;
  status.done = true;
  writeSnapshot(std::move(status));
}

void StatusWriter::loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, interval_, [&] { return shutdown_; })) return;
    }
    writeSnapshot(sampler_());
  }
}

void StatusWriter::writeSnapshot(CampaignStatus status) {
  status.seq = ++seq_;
  try {
    atomicWriteFile(path_, serializeStatus(status));
  } catch (const std::exception& e) {
    // A failing status write must never take the campaign down.
    EC_LOG_WARN("status snapshot write failed: " << e.what());
  }
}

}  // namespace easycrash::crash
