#include "spans.h"

#include <cstdio>
#include <utility>

#include "measure.h"

namespace perfbench {
namespace {

// Spans beyond this many are reduced into the totals but not kept for the
// output file, which keeps a long traced run's memory bounded.
constexpr size_t kMaxKept = 50'000;

struct Record {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;
  uint64_t op;
};

struct OpenSpan {
  int64_t index;  // into kept, or -1 when not kept
  const char* name;
  uint64_t start_ns;
  uint64_t child_ns;
};

std::thread::id g_owner;
uint64_t g_op = 0;
std::vector<Record> g_kept;
std::vector<OpenSpan> g_stack;
// Keyed by the name's address: span names are string literals, and a
// pointer compare keeps Close() cheap.
std::vector<std::pair<const char*, Spans::Totals>> g_totals;

Spans::Totals& TotalsFor(const char* name) {
  for (auto& [key, totals] : g_totals) {
    if (key == name) {
      return totals;
    }
  }
  return g_totals.emplace_back(name, Spans::Totals{}).second;
}

}  // namespace

bool Spans::enabled_ = false;

void Spans::BindToThisThread() { g_owner = std::this_thread::get_id(); }

void Spans::SetEnabled(bool enabled) { enabled_ = enabled; }

void Spans::SetOperation(uint64_t op) { g_op = op; }

void Spans::Open(const char* name) {
  if (std::this_thread::get_id() != g_owner) {
    return;
  }
  uint64_t now = WallNs();
  int64_t index = -1;
  if (g_kept.size() < kMaxKept) {
    index = static_cast<int64_t>(g_kept.size());
    int64_t parent = g_stack.empty() ? -1 : g_stack.back().index;
    g_kept.push_back(Record{name, now, 0, parent, g_op});
  }
  g_stack.push_back(OpenSpan{index, name, now, 0});
}

void Spans::Close() {
  if (std::this_thread::get_id() != g_owner || g_stack.empty()) {
    return;
  }
  uint64_t now = WallNs();
  OpenSpan top = g_stack.back();
  g_stack.pop_back();
  uint64_t duration = now - top.start_ns;
  if (top.index >= 0) {
    g_kept[static_cast<size_t>(top.index)].end_ns = now;
  }
  Totals& totals = TotalsFor(top.name);
  ++totals.count;
  totals.self_ns += duration > top.child_ns ? duration - top.child_ns : 0;
  if (!g_stack.empty()) {
    g_stack.back().child_ns += duration;
  }
}

std::map<std::string, Spans::Totals> Spans::totals() {
  std::map<std::string, Totals> by_name;
  for (const auto& [name, totals] : g_totals) {
    Totals& sum = by_name[name];
    sum.count += totals.count;
    sum.self_ns += totals.self_ns;
  }
  return by_name;
}

bool Spans::Write(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const Record& r : g_kept) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"op\":%llu}\n",
                 r.name, static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns),
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.op));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
