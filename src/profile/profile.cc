#include "src/profile/profile.h"

#include <algorithm>
#include <iomanip>

namespace spin {
namespace profile {

Profiler::Profiler(Dispatcher& dispatcher)
    : dispatcher_(dispatcher), prev_(obs::GetTraceConfig()) {
  dispatcher_.SetTracing({obs::TraceMode::kTimed, prev_.sample_rate});
}

Profiler::~Profiler() { dispatcher_.SetTracing(prev_); }

void Profiler::Reset() {
  for (EventBase* event : dispatcher_.Events()) {
    event->ResetStats();
  }
}

EventProfile Profiler::Sample(const EventBase& event) {
  EventProfile profile;
  profile.name = event.name();
  obs::HistogramSnapshot merged = event.metrics().Merged();
  profile.raised = merged.count;
  profile.time_s = static_cast<double>(merged.sum) / 1e9;
  profile.handlers = event.handler_count();
  profile.guards = event.guard_count();
  if (merged.count > 0) {
    profile.p50_ns = merged.Percentile(0.50);
    profile.p90_ns = merged.Percentile(0.90);
    profile.p99_ns = merged.Percentile(0.99);
    profile.max_ns = merged.max;
  }
  return profile;
}

std::vector<EventProfile> Profiler::Snapshot(bool include_idle) const {
  std::vector<EventProfile> profiles;
  for (EventBase* event : dispatcher_.Events()) {
    EventProfile profile = Sample(*event);
    if (profile.raised > 0 || include_idle) {
      profiles.push_back(std::move(profile));
    }
  }
  std::sort(profiles.begin(), profiles.end(),
            [](const EventProfile& a, const EventProfile& b) {
              return a.raised > b.raised;
            });
  return profiles;
}

std::vector<EventProfile> Profiler::SnapshotOf(
    const std::vector<const EventBase*>& events) const {
  std::vector<EventProfile> profiles;
  profiles.reserve(events.size());
  for (const EventBase* event : events) {
    profiles.push_back(Sample(*event));
  }
  return profiles;
}

void Profiler::PrintTable(std::ostream& os,
                          const std::vector<EventProfile>& profiles) {
  os << std::left << std::setw(28) << "Event name" << std::right
     << std::setw(10) << "raised" << std::setw(10) << "time" << std::setw(10)
     << "handlers" << std::setw(8) << "guards" << std::setw(10) << "p50(ns)"
     << std::setw(10) << "p99(ns)" << "\n";
  for (const EventProfile& p : profiles) {
    os << std::left << std::setw(28) << p.name << std::right << std::setw(10)
       << p.raised << std::setw(10) << std::fixed << std::setprecision(2)
       << p.time_s << std::setw(10) << p.handlers << std::setw(8) << p.guards
       << std::setw(10) << p.p50_ns << std::setw(10) << p.p99_ns << "\n";
  }
}

}  // namespace profile
}  // namespace spin
