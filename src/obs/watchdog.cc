#include "src/obs/watchdog.h"

#include <algorithm>
#include <chrono>

#include "src/obs/context.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace spin {
namespace obs {

namespace internal {
std::atomic<bool> g_watchdog_armed{false};
std::atomic<uint64_t> g_slow_ns{0};
}  // namespace internal

const char* AnomalyKindName(AnomalyKind kind) {
  switch (kind) {
    case AnomalyKind::kSlowHandler:
      return "slow_handler";
    case AnomalyKind::kQueueStall:
      return "queue_stall";
    case AnomalyKind::kOutboxBacklog:
      return "outbox_backlog";
    case AnomalyKind::kEpochStall:
      return "epoch_stall";
    case AnomalyKind::kRetryStorm:
      return "retry_storm";
    case AnomalyKind::kTraceDrops:
      return "trace_drops";
  }
  return "unknown";
}

Watchdog& Watchdog::Global() {
  static Watchdog* watchdog = new Watchdog();  // leaked
  return *watchdog;
}

Watchdog::Watchdog() {
  RegisterSource(this, &Watchdog::ExportMetricsSource);
}

void Watchdog::Arm(const WatchdogConfig& config) {
  Disarm();
  {
    std::lock_guard<std::mutex> lock(mu_);
    config_ = config;
    prev_.clear();
    arm_seq_ = poll_seq_;
    burst_used_ = false;
    burst_active_ = false;
    burst_polls_left_ = 0;
    burst_latch_seq_ = 0;
    stop_ = false;
  }
  internal::g_slow_ns.store(config.slow_handler_ns,
                            std::memory_order_relaxed);
  internal::g_watchdog_armed.store(true, std::memory_order_relaxed);
  if (config.period_ms != 0) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
}

void Watchdog::Disarm() {
  internal::g_watchdog_armed.store(false, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    if (burst_active_) {
      SetTraceConfig(burst_saved_);
      burst_active_ = false;
      burst_polls_left_ = 0;
    }
  }
  stop_cv_.notify_all();
  if (monitor_.joinable()) {
    monitor_.join();
  }
  // Clear derived per-event deadlines so a later re-arm starts fresh.
  for (const auto& metrics : Registry::Global().List()) {
    metrics->set_slow_ns(0);
  }
}

void Watchdog::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    uint64_t period = config_.period_ms;
    stop_cv_.wait_for(lock, std::chrono::milliseconds(period),
                      [this] { return stop_; });
    if (stop_) {
      return;
    }
    lock.unlock();
    Poll();
    lock.lock();
  }
}

void Watchdog::Poll() {
  std::vector<Probe> probes;
  WatchdogConfig config;
  uint64_t seq;
  bool first_since_arm;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++poll_seq_;
    first_since_arm = seq == arm_seq_ + 1;
    ++polls_in_flight_;
    probes = probes_;
    config = config_;
  }

  std::vector<WatchSample> samples;
  for (const Probe& probe : probes) {
    probe.fn(probe.ctx, samples);
  }

  for (const WatchSample& s : samples) {
    if (s.name == nullptr) {
      continue;
    }
    SampleKey key{s.name, static_cast<uint8_t>(s.kind), s.shard};
    PrevSample prev;
    bool seen = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = prev_.find(key);
      if (it != prev_.end()) {
        prev = it->second;
        seen = true;
      }
      prev_[key] = PrevSample{s.depth, s.progress};
    }
    switch (s.kind) {
      case AnomalyKind::kQueueStall:
        if (s.depth >= config.outbox_backlog && config.outbox_backlog != 0) {
          Report(AnomalyKind::kOutboxBacklog, s.name, s.shard, s.depth);
        }
        // A queue with work and no progress across one full period is
        // stalled; requires a previous observation so a freshly enqueued
        // burst is not flagged before the worker had a period to drain it.
        if (seen && s.depth > 0 && prev.depth > 0 &&
            s.progress == prev.progress) {
          Report(AnomalyKind::kQueueStall, s.name, s.shard, s.depth);
        }
        break;
      case AnomalyKind::kEpochStall:
        if (seen && s.depth >= config.epoch_stall_min &&
            prev.depth >= config.epoch_stall_min &&
            s.progress == prev.progress) {
          Report(AnomalyKind::kEpochStall, s.name, s.shard, s.depth);
        }
        break;
      case AnomalyKind::kRetryStorm:
        if (seen && config.retry_storm != 0 &&
            s.progress - prev.progress >= config.retry_storm) {
          Report(AnomalyKind::kRetryStorm, s.name, s.shard,
                 s.progress - prev.progress);
        }
        break;
      default:
        break;
    }
  }

  CheckTraceRings(config, first_since_arm);
  RefreshSlowDeadlines();

  {
    std::lock_guard<std::mutex> lock(mu_);
    // Retire the burst only on passes that started after the latch
    // (burst_latch_seq_ < seq), and only once the pass has fully run at
    // full fidelity — so a burst latched moments before or during a poll
    // still captures at least one complete probe pass.
    if (burst_active_ && burst_polls_left_ > 0 && burst_latch_seq_ < seq &&
        --burst_polls_left_ == 0) {
      RetireBurstLocked();
    }
    // Probe callbacks are long done; release any UnregisterProbe waiting
    // to destroy its ctx.
    --polls_in_flight_;
  }
  poll_cv_.notify_all();
}

void Watchdog::CheckTraceRings(const WatchdogConfig& config,
                               bool first_since_arm) {
  if (config.trace_drop_ratio <= 0) {
    return;
  }
  // The ring name is one interned string; per-ring identity rides in the
  // shard slot (the recorder's dense thread id), matching the {thread=...}
  // labelling of spin_trace_overwrites_total.
  static const char* ring_name = Intern("trace-ring");
  for (const FlightRecorder::RingStats& ring :
       FlightRecorder::Global().PerRingStats()) {
    SampleKey key{ring_name, static_cast<uint8_t>(AnomalyKind::kTraceDrops),
                  ring.tid};
    PrevSample prev;
    bool seen = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = prev_.find(key);
      if (it != prev_.end()) {
        prev = it->second;
        seen = true;
      }
      prev_[key] = PrevSample{ring.overwrites, ring.emits};
    }
    // The first pass since Arm baselines every ring that exists. A ring a
    // later pass sees for the first time was created after that baseline,
    // so every emit and overwrite it counts is new: it starts from zero.
    const bool baseline = !seen && first_since_arm;
    // Counters shrink only when the recorder was Reset between polls; the
    // stored baseline is stale then, so this pass just re-baselines.
    if (baseline || ring.emits < prev.progress ||
        ring.overwrites < prev.depth) {
      continue;
    }
    uint64_t emitted = ring.emits - prev.progress;
    uint64_t dropped = ring.overwrites - prev.depth;
    if (emitted >= std::max<uint64_t>(config.trace_drop_min_emits, 1) &&
        dropped > 0 &&
        static_cast<double>(dropped) >=
            config.trace_drop_ratio * static_cast<double>(emitted)) {
      Report(AnomalyKind::kTraceDrops, ring_name, ring.tid, dropped);
    }
  }
}

void Watchdog::RefreshSlowDeadlines() {
  WatchdogConfig config;
  {
    std::lock_guard<std::mutex> lock(mu_);
    config = config_;
  }
  if (config.slow_handler_ns == 0 || config.p99_factor <= 0) {
    return;
  }
  for (const auto& metrics : Registry::Global().List()) {
    // The deadline covers raises and async bodies alike (CheckDispatch
    // times both), so it derives from both distributions.
    HistogramSnapshot snap = metrics->Merged();
    snap.Merge(metrics->hist(DispatchKind::kAsync).Snapshot());
    if (snap.count < config.min_samples) {
      continue;
    }
    double derived = static_cast<double>(snap.Percentile(0.99)) *
                     config.p99_factor;
    uint64_t slow = derived >= static_cast<double>(config.slow_handler_ns)
                        ? config.slow_handler_ns
                        : static_cast<uint64_t>(derived);
    slow = std::max(slow, config.slow_handler_floor_ns);
    metrics->set_slow_ns(slow);
  }
}

void Watchdog::Report(AnomalyKind kind, const char* name, uint32_t shard,
                      uint64_t value) {
  // Only the deadline check reports per event (its `name` is the event
  // that blew the budget); every monitor rule names the watched resource
  // instead, so its event label stays empty. One static interned "" keeps
  // the map key a stable pointer identity.
  static const char* no_event = Intern("");
  const char* event = kind == AnomalyKind::kSlowHandler ? name : no_event;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counts_[{static_cast<uint8_t>(kind), shard, event}];
    last_value_ = value;
    if (config_.trace_burst && !burst_used_) {
      burst_used_ = true;
      burst_active_ = true;
      burst_polls_left_ = config_.burst_periods == 0 ? 1
                                                     : config_.burst_periods;
      // Latched mid-poll: the current pass doesn't count toward the
      // countdown. Latched between polls (inline CheckDispatch): neither
      // does the next pass to start, so the burst spans at least
      // burst_periods full monitor periods.
      burst_latch_seq_ = polls_in_flight_ > 0 ? poll_seq_ : poll_seq_ + 1;
      // Save and switch the trace config under mu_ so a concurrent
      // Disarm() (which restores burst_saved_ under the same lock) cannot
      // interleave and leave the process stuck in kFull.
      burst_saved_ = GetTraceConfig();
      TraceConfig full = burst_saved_;
      full.mode = TraceMode::kFull;
      SetTraceConfig(full);
    }
  }
  // The anomaly record overrides the sampling decision: an incident inside
  // an unsampled raise must still land in the flight recorder.
  SampleScope sample(SampleDecision::kTrace);
  FlightRecorder::Global().Emit(
      TraceKind::kAnomaly, name,
      (static_cast<uint64_t>(kind) << 32) | shard);
}

void Watchdog::RetireBurstLocked() {
  SetTraceConfig(burst_saved_);
  burst_active_ = false;
}

void Watchdog::RearmBurst() {
  std::lock_guard<std::mutex> lock(mu_);
  burst_used_ = false;
}

bool Watchdog::burst_active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return burst_active_;
}

WatchdogConfig Watchdog::config() const {
  std::lock_guard<std::mutex> lock(mu_);
  return config_;
}

uint64_t Watchdog::last_value() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_value_;
}

uint64_t Watchdog::Count(AnomalyKind kind, uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, count] : counts_) {
    if (std::get<0>(key) == static_cast<uint8_t>(kind) &&
        std::get<1>(key) == shard) {
      total += count;
    }
  }
  return total;
}

uint64_t Watchdog::Count(AnomalyKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [key, count] : counts_) {
    if (std::get<0>(key) == static_cast<uint8_t>(kind)) {
      total += count;
    }
  }
  return total;
}

void Watchdog::RegisterProbe(void* ctx, WatchProbeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_.push_back(Probe{ctx, fn});
}

void Watchdog::UnregisterProbe(void* ctx) {
  std::unique_lock<std::mutex> lock(mu_);
  probes_.erase(std::remove_if(probes_.begin(), probes_.end(),
                               [ctx](const Probe& p) { return p.ctx == ctx; }),
                probes_.end());
  // An in-flight Poll() copied probes_ before this erase and may still be
  // about to invoke this probe; wait it out so the caller (typically a
  // destructor) can safely free ctx the moment we return.
  poll_cv_.wait(lock, [this] { return polls_in_flight_ == 0; });
}

void Watchdog::ExportMetricsSource(void* ctx, std::ostream& os) {
  auto* self = static_cast<Watchdog*>(ctx);
  std::map<std::tuple<uint8_t, uint32_t, const char*>, uint64_t> counts;
  {
    std::lock_guard<std::mutex> lock(self->mu_);
    counts = self->counts_;
  }
  for (const auto& [key, count] : counts) {
    os << "spin_anomalies_total{kind=\""
       << AnomalyKindName(static_cast<AnomalyKind>(std::get<0>(key)))
       << "\",shard=\"" << std::get<1>(key) << "\",event=\"";
    WriteLabelValue(os, std::get<2>(key));
    os << "\"} " << count << "\n";
  }
}

}  // namespace obs
}  // namespace spin
