// Handler memory accounting (§2.6 "Too many handlers").
//
// "An extension could exhaust the system's memory by installing a large
// number of handlers on an event. Presently, SPIN denies additional
// installations when memory is low, relying on individual authorizers to
// locally enforce restrictions." We do the same, with bookkeeping precise
// enough to test: every binding (and its guards and generated code share)
// is charged to its owning module; installs that would exceed the
// per-module budget are denied with kQuotaExceeded.
#ifndef SRC_CORE_QUOTA_H_
#define SRC_CORE_QUOTA_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/rt/spinlock.h"
#include "src/types/module.h"

namespace spin {

class QuotaManager {
 public:
  explicit QuotaManager(size_t per_module_limit)
      : limit_(per_module_limit) {}

  // Attempts to charge `bytes` to `module` (nullptr charges the anonymous
  // account). Returns false — without charging — if the module would exceed
  // its budget.
  bool Charge(const Module* module, size_t bytes) {
    std::lock_guard<Spinlock> lock(mu_);
    uint64_t key = Key(module);
    size_t& used = usage_[key];
    if (used + bytes > limit_) {
      return false;
    }
    used += bytes;
    if (names_.find(key) == names_.end()) {
      names_[key] = module == nullptr ? "anonymous" : module->name();
    }
    return true;
  }

  // An account whose usage returns to zero is erased, so a module that
  // holds nothing leaves no series behind.
  void Release(const Module* module, size_t bytes) {
    std::lock_guard<Spinlock> lock(mu_);
    uint64_t key = Key(module);
    auto it = usage_.find(key);
    if (it == usage_.end()) {
      return;
    }
    if (bytes < it->second) {
      it->second -= bytes;
    } else {
      usage_.erase(it);
      names_.erase(key);
    }
  }

  size_t Usage(const Module* module) const {
    std::lock_guard<Spinlock> lock(mu_);
    auto it = usage_.find(Key(module));
    return it == usage_.end() ? 0 : it->second;
  }

  // Per-module usage, labeled with the module name recorded at first
  // charge ("anonymous" for the nullptr account). For metric export.
  std::vector<std::pair<std::string, size_t>> Snapshot() const {
    std::lock_guard<Spinlock> lock(mu_);
    std::vector<std::pair<std::string, size_t>> out;
    out.reserve(usage_.size());
    for (const auto& [key, used] : usage_) {
      auto it = names_.find(key);
      out.emplace_back(it == names_.end() ? "anonymous" : it->second, used);
    }
    return out;
  }

  size_t limit() const { return limit_; }
  void SetLimit(size_t limit) {
    std::lock_guard<Spinlock> lock(mu_);
    limit_ = limit;
  }

 private:
  static uint64_t Key(const Module* module) {
    return module == nullptr ? 0 : module->id();
  }

  mutable Spinlock mu_;
  std::unordered_map<uint64_t, size_t> usage_;
  std::unordered_map<uint64_t, std::string> names_;
  size_t limit_;
};

}  // namespace spin

#endif  // SRC_CORE_QUOTA_H_
