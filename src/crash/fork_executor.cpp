// The fork trial executor (`--isolation fork`, the nvct default;
// docs/ROBUSTNESS.md "Process-isolated trials"). Every crashing run and
// restart executes in a pre-forked WorkerPool child, so a trial that
// segfaults, wild-writes, OOMs or hangs kills one worker — classified into an
// AttemptFailure and respawned — instead of the campaign. This TU is the
// only place that knows the frame format: the wire codec, the run
// accounting every reply carries, and the child-side request server.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "easycrash/common/check.hpp"
#include "easycrash/crash/report.hpp"
#include "easycrash/crash/resilience.hpp"
#include "easycrash/crash/status.hpp"
#include "easycrash/crash/worker_pool.hpp"
#include "easycrash/runtime/runtime.hpp"
#include "easycrash/telemetry/metrics.hpp"
#include "easycrash/telemetry/trace.hpp"

#include "trial_executor.hpp"

namespace easycrash::crash {

namespace {

// ---- Wire protocol ----------------------------------------------------------
//
// Requests (parent -> worker):  'R' restart {trial, capture}
//                               'S' sweep {plan}
//                               'A' / 'X' ack of one streamed sweep capture
//                                   (continue / wind down)
// Responses (worker -> parent): 'r' restart result {accounting, status,
//                                   record + rejoin iteration |
//                                   reason + region path}
//                               'c' one streamed sweep capture (await ack)
//                               'e' sweep end {accounting, completed,
//                                   golden share?, error, region path}
// Integers are little-endian; snapshot payloads ride the slot's shared
// arena when they fit (the common case — the arena is sized off the app's
// candidate bytes) and fall back to inline frame bytes when they don't.

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over one received frame. Every overrun throws — the
/// campaign maps a malformed frame to a protocol worker death.
class WireReader {
 public:
  explicit WireReader(const std::string& buf) : buf_(buf) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf_[pos_++])) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t len = u64();
    need(len);
    std::string out(buf_.data() + pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }
  void raw(void* out, std::size_t len) {
    need(len);
    std::memcpy(out, buf_.data() + pos_, len);
    pos_ += len;
  }
  /// An element count, refused when the rest of the frame cannot hold that
  /// many elements of at least `minBytes` each — a garbage count must not
  /// turn into a giant allocation.
  std::size_t count(std::size_t minBytes) {
    const std::uint64_t n = u64();
    if (n > (buf_.size() - pos_) / minBytes) {
      throw std::runtime_error("wire: element count overruns the frame");
    }
    return static_cast<std::size_t>(n);
  }

 private:
  void need(std::uint64_t n) const {
    if (n > buf_.size() - pos_) {
      throw std::runtime_error("wire: truncated frame");
    }
  }

  const std::string& buf_;
  std::size_t pos_ = 0;
};

void encodeProfile(WireWriter& w, const CampaignProfile& p) {
  w.u32(p.strideBytes);
  w.u64(p.runs);
  w.u64(p.objects.size());
  for (const runtime::ObjectProfile& o : p.objects) {
    w.u32(o.id);
    w.str(o.name);
    w.u64(o.bytes);
    w.u64(o.accesses);
    w.u64(o.nvmWrites);
    w.u64(o.accessBins.size());
    for (const std::uint64_t b : o.accessBins) w.u64(b);
    w.u64(o.wearBins.size());
    for (const std::uint64_t b : o.wearBins) w.u64(b);
  }
  w.u64(p.regionAccesses.size());
  for (const auto& [region, accesses] : p.regionAccesses) {
    w.u32(static_cast<std::uint32_t>(region));
    w.u64(accesses);
  }
}

CampaignProfile decodeProfile(WireReader& r) {
  CampaignProfile p;
  p.strideBytes = r.u32();
  p.runs = r.u64();
  p.objects.resize(r.count(36));
  for (runtime::ObjectProfile& o : p.objects) {
    o.id = r.u32();
    o.name = r.str();
    o.bytes = r.u64();
    o.accesses = r.u64();
    o.nvmWrites = r.u64();
    o.accessBins.resize(r.count(8));
    for (std::uint64_t& b : o.accessBins) b = r.u64();
    o.wearBins.resize(r.count(8));
    for (std::uint64_t& b : o.wearBins) b = r.u64();
  }
  for (std::size_t i = r.count(12); i > 0; --i) {
    const auto region =
        static_cast<runtime::PointId>(static_cast<std::int32_t>(r.u32()));
    p.regionAccesses[region] = r.u64();
  }
  return p;
}

/// Crash "black box": the first page-independent bytes of every slot's
/// arena. A worker about to execute an injected fault records where it is
/// dying (fault kind, access index, formatted region path) and publishes
/// it with a release store of the magic; after the death the parent reads the
/// magic with an acquire load and, when it matches, the fields behind it, so
/// the TrialFailure names the real crash site — the same region-path feature
/// in-process failures get from throwRegionPath().
struct BlackBox {
  std::uint64_t magic = 0;  ///< written last, only through magicRef()
  std::uint64_t accessIndex = 0;
  char kind[16] = {};
  char regionPath[224] = {};
};
constexpr std::uint64_t kBlackBoxMagic = 0x4e56435442420001ull;
constexpr std::size_t kBlackBoxBytes = 256;
static_assert(sizeof(BlackBox) <= kBlackBoxBytes, "black box must fit its slot");
static_assert(alignof(BlackBox) >= std::atomic_ref<std::uint64_t>::required_alignment,
              "the black box magic must be atomically accessible");

/// The magic as an atomic object: the one word parent and child both access
/// concurrently (the arena is shared memory).
std::atomic_ref<std::uint64_t> magicRef(BlackBox& box) {
  return std::atomic_ref<std::uint64_t>(box.magic);
}

void encodeCapture(WireWriter& w, const SweepCapture& c, std::uint8_t* arena,
                   std::size_t arenaBytes) {
  w.u64(c.crashAccessIndex);
  w.u32(static_cast<std::uint32_t>(c.region));
  w.u64(c.regionPath.size());
  for (const runtime::PointId p : c.regionPath) {
    w.u32(static_cast<std::uint32_t>(p));
  }
  w.i64(c.crashIteration);
  w.i64(c.restartIteration);
  w.u64(c.inconsistentRate.size());
  for (const auto& [id, rate] : c.inconsistentRate) {
    w.u32(id);
    w.f64(rate);
  }
  std::size_t total = 0;
  for (const auto& [id, bytes] : c.snapshots) total += bytes.size();
  const bool inArena =
      arena != nullptr && arenaBytes >= kBlackBoxBytes &&
      total <= arenaBytes - kBlackBoxBytes;
  w.u8(inArena ? 1 : 0);
  w.u64(c.snapshots.size());
  std::size_t offset = kBlackBoxBytes;
  for (const auto& [id, bytes] : c.snapshots) {
    w.u32(id);
    w.u64(bytes.size());
    if (bytes.empty()) continue;
    if (inArena) {
      std::memcpy(arena + offset, bytes.data(), bytes.size());
      offset += bytes.size();
    } else {
      w.raw(bytes.data(), bytes.size());
    }
  }
}

SweepCapture decodeCapture(WireReader& r, const std::uint8_t* arena,
                           std::size_t arenaBytes) {
  SweepCapture c;
  c.crashAccessIndex = r.u64();
  c.region = static_cast<runtime::PointId>(static_cast<std::int32_t>(r.u32()));
  c.regionPath.resize(r.count(4));
  for (runtime::PointId& p : c.regionPath) {
    p = static_cast<runtime::PointId>(static_cast<std::int32_t>(r.u32()));
  }
  c.crashIteration = static_cast<int>(r.i64());
  c.restartIteration = static_cast<int>(r.i64());
  for (std::size_t i = r.count(12); i > 0; --i) {
    const runtime::ObjectId id = r.u32();
    c.inconsistentRate[id] = r.f64();
  }
  const bool inArena = r.u8() != 0;
  std::size_t offset = kBlackBoxBytes;
  for (std::size_t i = r.count(12); i > 0; --i) {
    const runtime::ObjectId id = r.u32();
    const std::uint64_t size = r.u64();
    std::vector<std::uint8_t>& bytes = c.snapshots[id];
    if (inArena) {
      if (arena == nullptr || size > arenaBytes || offset > arenaBytes - size) {
        throw std::runtime_error("wire: capture overruns the arena");
      }
      bytes.assign(arena + offset, arena + offset + size);
      offset += static_cast<std::size_t>(size);
    } else {
      bytes.resize(static_cast<std::size_t>(size));
      if (!bytes.empty()) r.raw(bytes.data(), bytes.size());
    }
  }
  return c;
}

/// An optional MemEvents: a presence byte, then every counter.
void encodeEvents(WireWriter& w, const std::optional<memsim::MemEvents>& events) {
  w.u8(events ? 1 : 0);
  if (!events) return;
  const memsim::MemEvents& e = *events;
  w.u64(e.loads);
  w.u64(e.stores);
  for (const std::uint64_t v : e.hits) w.u64(v);
  for (const std::uint64_t v : e.misses) w.u64(v);
  for (const std::uint64_t v :
       {e.nvmBlockReads, e.nvmBlockWrites, e.flushDirty, e.flushClean,
        e.flushNonResident, e.flushInducedNvmWrites, e.rangeLoads, e.rangeStores,
        e.rangeSplitBlocks, e.postmortemBlocksSkipped, e.postmortemBlocksCompared,
        e.postmortemBytesCompared}) {
    w.u64(v);
  }
}

std::optional<memsim::MemEvents> decodeEvents(WireReader& r) {
  if (r.u8() == 0) return std::nullopt;
  memsim::MemEvents e;
  e.loads = r.u64();
  e.stores = r.u64();
  for (std::uint64_t& v : e.hits) v = r.u64();
  for (std::uint64_t& v : e.misses) v = r.u64();
  for (std::uint64_t* v :
       {&e.nvmBlockReads, &e.nvmBlockWrites, &e.flushDirty, &e.flushClean,
        &e.flushNonResident, &e.flushInducedNvmWrites, &e.rangeLoads, &e.rangeStores,
        &e.rangeSplitBlocks, &e.postmortemBlocksSkipped, &e.postmortemBlocksCompared,
        &e.postmortemBytesCompared}) {
    *v = r.u64();
  }
  return e;
}

void encodePlan(WireWriter& w, const SweepPlan& plan) {
  w.u64(plan.size());
  for (const auto& [index, trials] : plan) {
    w.u64(index);
    w.u64(trials.size());
    for (const std::size_t t : trials) w.u64(t);
  }
}

SweepPlan decodePlan(WireReader& r) {
  SweepPlan plan;
  for (std::size_t i = r.count(16); i > 0; --i) {
    std::vector<std::size_t>& trials = plan[r.u64()];
    trials.resize(r.count(8));
    for (std::size_t& t : trials) t = static_cast<std::size_t>(r.u64());
  }
  return plan;
}

// ---- Run accounting ---------------------------------------------------------
//
// A worker's metrics registry and campaign profile are reset at the start
// of every request, so at reply time they hold exactly what the request's
// simulated runs added: memsim.* and runtime.* counters, the crash_run /
// postmortem / restart phase histograms, the access/wear profile. Every
// reply ships them, with the buffered trace lines, and the parent folds them
// into its own registry — so a campaign's metrics are the same whichever
// executor ran its trials.

/// The forked child's trace buffer: TraceSink is redirected here right after
/// the fork, and each reply ships-and-clears the accumulated lines for the
/// parent to splice into the real trace via writeRaw().
std::ostringstream* g_childTraceBuf = nullptr;

void encodeAccounting(WireWriter& w, const CampaignProfile& profile) {
  std::string trace;
  if (g_childTraceBuf != nullptr) {
    trace = g_childTraceBuf->str();
    g_childTraceBuf->str("");
  }
  w.str(trace);
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, const telemetry::Histogram*>> histograms;
  telemetry::MetricsRegistry::instance().visit(
      [&](const std::string& name, const telemetry::Counter& c) {
        if (c.value() > 0) counters.emplace_back(name, c.value());
      },
      [&](const std::string& name, const telemetry::Histogram& h) {
        if (h.count() > 0) histograms.emplace_back(name, &h);
      });
  w.u64(counters.size());
  for (const auto& [name, value] : counters) {
    w.str(name);
    w.u64(value);
  }
  w.u64(histograms.size());
  for (const auto& [name, h] : histograms) {
    w.str(name);
    w.u64(h->bounds().size());
    for (const double bound : h->bounds()) w.f64(bound);
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) w.u64(h->bucketCount(i));
    w.f64(h->sum());
  }
  encodeProfile(w, profile);
}

void applyAccounting(WireReader& r, CampaignProfile& profile, std::mutex& profileMutex) {
  const std::string trace = r.str();
  if (!trace.empty()) telemetry::TraceSink::instance().writeRaw(trace);
  auto& registry = telemetry::MetricsRegistry::instance();
  for (std::size_t i = r.count(16); i > 0; --i) {
    const std::string name = r.str();
    registry.counter(name).add(r.u64());
  }
  for (std::size_t i = r.count(24); i > 0; --i) {
    const std::string name = r.str();
    std::vector<double> bounds(r.count(16));
    for (double& bound : bounds) bound = r.f64();
    std::vector<std::uint64_t> buckets(bounds.size() + 1);
    for (std::uint64_t& bucket : buckets) bucket = r.u64();
    const double sum = r.f64();
    registry.histogram(name, std::move(bounds)).absorb(buckets, sum);
  }
  const CampaignProfile shipped = decodeProfile(r);
  std::lock_guard<std::mutex> lock(profileMutex);
  profile.merge(shipped);
}

// ---- Fork-worker child state -----------------------------------------------

/// Installed in a worker child while a crashing run may host an injected
/// fault: where to write the black box and which fd a wild write tears.
struct ChildFaultContext {
  FaultPlan plan;
  std::uint8_t* blackBox = nullptr;
  int responseFd = -1;
};
ChildFaultContext* g_childFault = nullptr;

/// Execute one injected fault for real. Segv and hang never return; a wild
/// write tears the response stream then exits; OOM throws the bad_alloc the
/// worker main loop converts to kWorkerOomExit.
void executeFault(FaultPlan::Kind kind, int responseFd) {
  switch (kind) {
    case FaultPlan::Kind::Segv: {
      // The volatile address keeps the bogus pointer out of constant
      // propagation, so -Werror=array-bounds accepts the deliberate wild
      // store (GCC 12 rejects a literal reinterpret_cast'ed address).
      volatile std::uintptr_t target = 8;
      *reinterpret_cast<volatile int*>(target) = 42;  // SIGSEGV
      std::abort();    // unreachable belt-and-braces (still a Crashed death)
    }
    case FaultPlan::Kind::WildWrite: {
      // A garbage length prefix (~2 GiB) followed by a torn tail: the parent
      // rejects the length and classifies a protocol death.
      const unsigned char junk[] = {0xff, 0xff, 0xff, 0x7f, 0xde, 0xad};
      (void)!::write(responseFd, junk, sizeof junk);
      ::_exit(2);
    }
    case FaultPlan::Kind::Oom: {
      // nothrow + explicit throw, not throwing operator new: GCC's libasan
      // hard-aborts a failed throwing new even with allocator_may_return_null,
      // while the nothrow form returns null under both plain and ASan builds.
      void* p = ::operator new(std::size_t{1} << 62, std::nothrow);
      if (p == nullptr) throw std::bad_alloc();
      ::operator delete(p);  // unreachable on any real machine
      throw std::bad_alloc();
    }
    case FaultPlan::Kind::Hang: {
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
    case FaultPlan::Kind::None: break;
  }
}

// ---- Parent-side death accounting ------------------------------------------

/// Map one classified worker death onto the AttemptFailure the scheduler
/// records, folding in the black box when the worker published one.
AttemptFailure classifyDeath(const WorkerPool::Reply& reply,
                           std::uint64_t timeoutMs, std::uint8_t* arena) {
  AttemptFailure f;
  f.kind = toString(reply.death);
  f.timeout = reply.timedOut;
  if (reply.timedOut) {
    f.reason = "watchdog: trial exceeded its " + std::to_string(timeoutMs) +
               " ms deadline";
  } else {
    switch (reply.death) {
      case WorkerDeath::Crashed:
        f.reason = "worker killed by signal " + std::to_string(reply.signal);
        break;
      case WorkerDeath::Killed:
        f.reason = "worker killed (SIGKILL)";
        break;
      case WorkerDeath::Oom:
        f.reason = "worker out of memory (std::bad_alloc)";
        break;
      default:
        f.reason = "worker protocol error (exit status " +
                   std::to_string(reply.exitStatus) + ")";
        break;
    }
  }
  auto* bb = reinterpret_cast<BlackBox*>(arena);
  if (bb != nullptr && magicRef(*bb).load(std::memory_order_acquire) == kBlackBoxMagic) {
    const std::string kind(bb->kind, strnlen(bb->kind, sizeof bb->kind));
    f.regionPath.assign(bb->regionPath,
                        strnlen(bb->regionPath, sizeof bb->regionPath));
    f.reason += "; fault '" + kind + "' injected at access " +
                std::to_string(bb->accessIndex);
  }
  return f;
}

}  // namespace

void armWorkerFault(runtime::Runtime& rt) {
  if (g_childFault == nullptr) return;
  ChildFaultContext* ctx = g_childFault;
  runtime::Runtime* rtp = &rt;
  rt.armFault(ctx->plan.accessIndex, [ctx, rtp] {
    auto* bb = reinterpret_cast<BlackBox*>(ctx->blackBox);
    if (bb != nullptr) {
      bb->accessIndex = ctx->plan.accessIndex;
      std::snprintf(bb->kind, sizeof bb->kind, "%s", toString(ctx->plan.kind));
      const std::string path = formatRegionPath(rtp->regionPath());
      std::snprintf(bb->regionPath, sizeof bb->regionPath, "%s", path.c_str());
      magicRef(*bb).store(kBlackBoxMagic, std::memory_order_release);
    }
    executeFault(ctx->plan.kind, ctx->responseFd);
  });
}

class ForkExecutor final : public TrialExecutor {
 public:
  ForkExecutor(const CampaignRunner& runner, const GoldenStats& golden, int slots,
               std::size_t captureBytes, std::uint64_t timeoutMs)
      : runner_(runner), golden_(golden), timeoutMs_(timeoutMs) {
    WorkerPool::ForkHooks hooks;
    // Never fork while another campaign thread holds the trace, metrics or
    // profile lock: the child would inherit a locked mutex it can never
    // unlock.
    hooks.prepare = [this] {
      telemetry::TraceSink::instance().lockForFork();
      telemetry::MetricsRegistry::instance().lockForFork();
      runner_.profileMutex_.lock();
    };
    hooks.parent = [this] {
      runner_.profileMutex_.unlock();
      telemetry::MetricsRegistry::instance().unlockAfterFork();
      telemetry::TraceSink::instance().unlockAfterFork();
    };
    hooks.child = [this](int) {
      runner_.profileMutex_.unlock();
      telemetry::MetricsRegistry::instance().unlockAfterFork();
      telemetry::TraceSink::instance().unlockAfterFork();
      // Reroute trace lines into a buffer the replies ship to the parent;
      // the parent's stream (and its buffered bytes) stay its own.
      g_childTraceBuf = new std::ostringstream();
      telemetry::TraceSink::instance().redirectInForkedChild(g_childTraceBuf);
    };
    pool_ = std::make_unique<WorkerPool>(
        slots, kBlackBoxBytes + captureBytes + captureBytes / 8 + 4096,
        [this](int, const std::string& request, const WorkerPool::ChildChannel& ch) {
          serve(request, ch);
        },
        hooks);
    CampaignMetrics::get().workerSpawns.add(pool_->spawnCount());
  }

  int restart(std::size_t t, const SweepCapture& capture, int slot, double budget,
              CrashTestRecord& record) override {
    WireWriter req;
    req.u8('R');
    req.u64(t);
    encodeCapture(req, capture, pool_->arena(slot), pool_->arenaBytes());
    return decideReply(slot, roundTrip(slot, req.take(), budget), t, record);
  }

  /// The sweep runs in the slot's worker, which streams each capture back as
  /// a 'c' frame. The parent decodes it out of the shared arena, hands it to
  /// the scheduler and acks — the ack handshake IS the restart-queue
  /// backpressure the in-process sweep gets from blocking in onCapture. A
  /// run that threw in the worker comes back as an 'e' error with its
  /// throw-site path, an AttemptFailure like a failed restart's.
  SweepOutcome sweep(const SweepPlan& plan, int slot, const OnCapture& onCapture,
                     std::string& throwSite) override {
    WireWriter req;
    req.u8('S');
    encodePlan(req, plan);
    for (std::string frame = roundTrip(slot, req.take(), 1.0);;
         frame = receive(slot, 1.0)) {
      std::string error;
      const std::optional<SweepOutcome> outcome =
          decode(slot, frame, [&](WireReader& r) -> std::optional<SweepOutcome> {
            const std::uint8_t tag = r.u8();
            if (tag == 'c') {
              const bool more = onCapture(std::make_shared<const SweepCapture>(
                  decodeCapture(r, pool_->arena(slot), pool_->arenaBytes())));
              (void)pool_->send(slot, more ? "A" : "X");
              return std::nullopt;
            }
            if (tag != 'e') throw std::runtime_error("unexpected sweep frame tag");
            applyAccounting(r, runner_.profile_, runner_.profileMutex_);
            SweepOutcome end;
            end.captured = r.u8() != 0;
            end.golden = decodeEvents(r);
            error = r.str();
            throwSite = r.str();
            return end;
          });
      if (!error.empty()) throw AttemptFailure{"exception", false, error, throwSite};
      if (outcome) return *outcome;
    }
  }

  void fillStatus(CampaignStatus& status) const override {
    status.workers = static_cast<std::uint64_t>(std::max(0, pool_->aliveCount()));
    status.workerDeaths = workerDeaths_.load();
  }

 private:
  // ---- Parent side ----

  /// Worker acquisition: respawn the slot's worker if it died (with the
  /// spawn accounting and worker_respawn trace), then clear its black box so
  /// a stale fault report can never be attributed to this attempt's death.
  void acquire(int slot) {
    bool respawned = false;
    if (!pool_->ensureWorker(slot, &respawned)) {
      throw AttemptFailure{"protocol", false, "worker fork failed", ""};
    }
    if (respawned) {
      CampaignMetrics::get().workerSpawns.add();
      CampaignMetrics::get().workerRespawns.add();
      if (telemetry::tracing()) {
        telemetry::TraceEvent("worker_respawn")
            .field("slot", slot)
            .field("pid", static_cast<std::int64_t>(pool_->pid(slot)))
            .emit();
      }
    }
    magicRef(*reinterpret_cast<BlackBox*>(pool_->arena(slot)))
        .store(0, std::memory_order_relaxed);
  }

  /// One request on a live worker, and its first reply frame.
  std::string roundTrip(int slot, const std::string& request, double budget) {
    acquire(slot);
    (void)pool_->send(slot, request);  // a dead worker surfaces in receive()
    return receive(slot, budget);
  }

  /// The next reply frame, within the base deadline scaled by `budget`
  /// exactly as the in-process watchdog scales it. A worker death is
  /// accounted and thrown as an AttemptFailure.
  std::string receive(int slot, double budget) {
    std::chrono::milliseconds deadline(0);
    if (timeoutMs_ > 0) {
      const double ms = static_cast<double>(timeoutMs_) * std::max(1.0, budget);
      deadline = std::chrono::milliseconds(static_cast<std::int64_t>(ms) + 1);
    }
    const pid_t pid = pool_->pid(slot);
    WorkerPool::Reply reply = pool_->recv(slot, deadline);
    if (!reply.ok) {
      noteWorkerDeath(slot, pid, reply);
      throw classifyDeath(reply, timeoutMs_, pool_->arena(slot));
    }
    return std::move(reply.frame);
  }

  /// Decode one reply. A frame that does not decode is a protocol death: the
  /// stream may be desynchronized, so the worker is killed and the next
  /// attempt starts fresh.
  template <typename Body>
  std::invoke_result_t<Body&, WireReader&> decode(int slot, const std::string& frame,
                                                  Body&& body) {
    try {
      WireReader r(frame);
      return body(r);
    } catch (const std::exception& e) {
      killWorker(slot);
      throw AttemptFailure{"protocol", false,
                           std::string("worker reply malformed: ") + e.what(), ""};
    }
  }

  /// An 'r' reply: account the child's runs, then yield the record (and
  /// the restart's rejoin iteration) or rethrow the child's exception as an
  /// attempt failure.
  int decideReply(int slot, const std::string& frame, std::size_t t,
                  CrashTestRecord& record) {
    return decode(slot, frame, [&](WireReader& r) {
      if (r.u8() != 'r') throw std::runtime_error("unexpected reply tag");
      applyAccounting(r, runner_.profile_, runner_.profileMutex_);
      if (r.u8() == 0) {
        std::string line = r.str();
        if (!line.empty() && line.back() == '\n') line.pop_back();
        std::size_t trialFromWire = 0;
        record = parseTrialRecord(line, &trialFromWire);
        EC_CHECK_MSG(trialFromWire == t, "fork: reply names the wrong trial");
        return static_cast<int>(r.i64());
      }
      std::string reason = r.str();
      std::string regionPath = r.str();
      throw AttemptFailure{"exception", false, std::move(reason), std::move(regionPath)};
    });
  }

  /// Account one consumed worker death: counters, live status, worker_exit
  /// trace (slot, pid, classification) for the flight recorder.
  void noteWorkerDeath(int slot, pid_t pid, const WorkerPool::Reply& reply) {
    workerDeaths_.fetch_add(1);
    if (reply.timedOut || reply.death == WorkerDeath::Killed) {
      CampaignMetrics::get().workerKills.add();
    } else {
      CampaignMetrics::get().workerCrashes.add();
    }
    if (telemetry::tracing()) {
      telemetry::TraceEvent("worker_exit")
          .field("slot", slot)
          .field("pid", static_cast<std::int64_t>(pid))
          .field("death", toString(reply.death))
          .field("signal", reply.signal)
          .field("exit_code", reply.exitStatus)
          .field("timeout", reply.timedOut)
          .emit();
    }
  }

  /// Deliberate parent-side kill (desynchronized stream): consume the death
  /// like any other so the books stay balanced.
  void killWorker(int slot) {
    if (!pool_->alive(slot)) return;
    const pid_t pid = pool_->pid(slot);
    pool_->kill(slot);
    WorkerPool::Reply reply;
    reply.death = WorkerDeath::Killed;
    reply.signal = SIGKILL;
    noteWorkerDeath(slot, pid, reply);
  }

  // ---- Child side ----

  /// The worker's request loop body (one call per request frame). Runs the
  /// same runRestart/sweepRun the in-process executor runs and
  /// ships the result, with the request's run accounting, back to the
  /// parent. Exceptions other than a trial's own escape to the worker main
  /// loop: bad_alloc -> OOM exit, anything else -> protocol.
  void serve(const std::string& request, const WorkerPool::ChildChannel& ch) {
    telemetry::MetricsRegistry::instance().reset();
    runner_.profile_ = CampaignProfile{};
    static ChildFaultContext faultCtx;
    faultCtx.plan = runner_.config_.inject;
    faultCtx.blackBox = ch.arena();
    faultCtx.responseFd = ch.responseFd();
    g_childFault = faultCtx.plan.active() ? &faultCtx : nullptr;

    WireReader req(request);
    WireWriter resp;
    switch (req.u8()) {
      case 'R': {
        const auto t = static_cast<std::size_t>(req.u64());
        const SweepCapture capture = decodeCapture(req, ch.arena(), ch.arenaBytes());
        replyRestart(resp, t, capture);
        break;
      }
      case 'S':
        replySweep(resp, decodePlan(req), ch);
        break;
      default:
        throw std::runtime_error("fork worker: unknown request op");
    }
    ch.send(resp.take());
  }

  /// Run one restart into an 'r' reply: status 0 carries the serialized
  /// record and the rejoin iteration, status 1 the exception text and
  /// formatted crash-site path. Both carry the accounting — a failed attempt
  /// still simulated runs the parent must account, exactly as in-process
  /// runs are accounted before their exception propagates.
  void replyRestart(WireWriter& resp, std::size_t t, const SweepCapture& capture) {
    CrashTestRecord record;
    int rejoinedAt = 0;
    std::optional<std::string> error;
    try {
      rejoinedAt = runner_.runRestart(golden_, capture, t, nullptr, record);
    } catch (const std::bad_alloc&) {
      throw;
    } catch (const std::exception& e) {
      error = e.what();
    }
    resp.u8('r');
    encodeAccounting(resp, runner_.profile_);
    resp.u8(error ? 1 : 0);
    if (!error) {
      resp.str(serializeTrialRecord(t, record));
      resp.i64(rejoinedAt);
    } else {
      resp.str(*error);
      resp.str(formatRegionPath(record.regionPath));
    }
  }

  /// The sweep crashing run: each capture streams as a 'c' frame and waits
  /// for the parent's ack; the 'e' reply closes it, with the golden share
  /// when the run went on to the end. A run that throws is reported in 'e',
  /// with the region path it died in, for the parent to charge to the first
  /// uncaptured crash point.
  void replySweep(WireWriter& resp, const SweepPlan& plan,
                  const WorkerPool::ChildChannel& ch) {
    SweepOutcome outcome;
    std::string error;
    std::string throwSite;
    try {
      outcome = runner_.sweepRun(
          golden_, plan, nullptr,
          [&](SweepCapture&& capture) {
            WireWriter frame;
            frame.u8('c');
            encodeCapture(frame, capture, ch.arena(), ch.arenaBytes());
            ch.send(frame.take());
            std::string ack;
            return ch.recv(ack) && ack == "A";
          },
          throwSite);
    } catch (const std::bad_alloc&) {
      throw;
    } catch (const std::exception& e) {
      error = e.what();
    }
    resp.u8('e');
    encodeAccounting(resp, runner_.profile_);
    resp.u8(outcome.captured ? 1 : 0);
    encodeEvents(resp, outcome.golden);
    resp.str(error);
    resp.str(throwSite);
  }

  const CampaignRunner& runner_;
  const GoldenStats& golden_;
  const std::uint64_t timeoutMs_;
  std::atomic<std::uint64_t> workerDeaths_{0};
  std::unique_ptr<WorkerPool> pool_;
};

std::unique_ptr<TrialExecutor> makeForkExecutor(const CampaignRunner& runner,
                                                const GoldenStats& golden, int slots,
                                                std::size_t captureBytes,
                                                std::uint64_t timeoutMs) {
  return std::make_unique<ForkExecutor>(runner, golden, slots, captureBytes, timeoutMs);
}

}  // namespace easycrash::crash
