#include "dispatch_part.h"

#include <array>
#include <cstddef>
#include <iterator>
#include <string>
#include <utility>

#include "inputs.h"
#include "measure.h"
#include "spans.h"
#include "src/micro/program.h"

namespace perfbench {
namespace {

using Msg = DispatchPart::Msg;
using Ev = spin::Event<void(Msg*, uint64_t)>;
using FoldEv = spin::Event<uint64_t(Msg*, uint64_t)>;
using FireFn = void (*)(Msg*, uint64_t);
using FoldFn = uint64_t (*)(Msg*, uint64_t);
using GuardFn = bool (*)(Msg*, uint64_t);
constexpr size_t kSlots = DispatchPart::kSlots;
constexpr size_t kMsgs = DispatchPart::kMsgs;

constexpr size_t kEvents = 240;
constexpr size_t kSyncWindow = 8192;
constexpr size_t kAsyncBatch = 64;
constexpr size_t kTraceLength = size_t{1} << 16;
constexpr size_t kExtraLive = 32;      // burst-installed bindings kept live
constexpr int kReconfigPairs = 16;     // install+uninstall pairs per burst
constexpr size_t kFirstExtraSlot = 16;  // extras never collide with a shape
static_assert(kFirstExtraSlot + kExtraLive <= kSlots);
constexpr size_t kFoldHandlers = 5;
constexpr uint64_t kChainXor = 0x55;
constexpr uint64_t kNeverKind = 99;     // no message has this kind
constexpr uint64_t kNeverResidue = 4;   // (x & 3) is never 4

// The hot head of the population: the nine events of the paper's Table 3
// (EXPERIMENTS.md), by raise count, with the paper's raise counts and its
// handler and guard counts. The paper's system had about 100 extensions
// installed, so its columns, not the repository's replay, give the
// bindings of a loaded system.
struct Table3Row {
  double raised;
  size_t handlers;
  size_t guards;
};
constexpr Table3Row kTable3[] = {
    {7936, 4, 3},  // Strand.Run
    {3976, 3, 2},  // MachineTrap.Syscall
    {2536, 4, 3},  // Ether.PacketArrived
    {2529, 6, 5},  // Ip.PacketArrived
    {2505, 2, 1},  // Tcp.PacketArrived
    {595, 2, 2},   // Events.EventNotify
    {24, 6, 5},    // Udp.PacketArrived
    {3, 1, 0},     // OsfNet.DelTcpPortHandler
    {3, 1, 0},     // OsfNet.AddTcpPortHandler
};
constexpr size_t kTable3Events = std::size(kTable3);

// Share of the zipf workload's sync raises that go to the Table 3 events,
// in proportion to their counts. Table 3 gives no rate for the shapes it
// lacks (10 and 50 handlers, reject-all, direct, filter, fold, chain), so
// the other sync events share the remaining quarter equally: each of
// those shapes is raised, and Table 3's measured mix still carries most
// of the raises.
constexpr double kTable3Share = 0.75;

// Fixed popularity ranks of the three special events, right after the
// Table 3 events, and the event the chain handler raises.
constexpr size_t kFilterRank = kTable3Events;
constexpr size_t kFoldRank = kTable3Events + 1;
constexpr size_t kChainRank = kTable3Events + 2;
constexpr size_t kChainTargetRank = 1;

template <size_t I>
void Fire(Msg* m, uint64_t) {
  ++m->fires[I];
}
template <size_t I>
void FireAsync(Msg* m, uint64_t) {
  m->async_fires[I].fetch_add(1, std::memory_order_relaxed);
}
template <size_t I>
uint64_t FoldFire(Msg* m, uint64_t x) {
  ++m->fires[I];
  return x ^ (I + 1);
}
template <uint64_t K>
bool ResidueGuard(Msg*, uint64_t x) {
  return (x & 3) == K;
}
void DefaultFire(Msg* m, uint64_t) { ++*m->default_fires; }
uint64_t FoldDefault(Msg* m, uint64_t) {
  ++*m->default_fires;
  return 0;
}
void FilterFire(Msg* m, uint64_t& x) {
  ++m->fires[0];
  x += 1;
}
void ChainFire(Msg* m, uint64_t x) {
  ++m->fires[0];
  m->chain->Raise(m->chain_msg, x ^ kChainXor);
}
uint64_t SumFold(uint64_t result, uint64_t current, uint32_t) {
  return result + current;
}
uint64_t ExpectedFold(uint64_t x) {
  uint64_t sum = 0;
  for (uint64_t i = 0; i < kFoldHandlers; ++i) {
    sum += x ^ (i + 1);
  }
  return sum;
}

template <size_t... I>
constexpr std::array<FireFn, sizeof...(I)> FireTable(
    std::index_sequence<I...>) {
  return {&Fire<I>...};
}
template <size_t... I>
constexpr std::array<FireFn, sizeof...(I)> FireAsyncTable(
    std::index_sequence<I...>) {
  return {&FireAsync<I>...};
}
template <size_t... I>
constexpr std::array<FoldFn, sizeof...(I)> FoldTable(
    std::index_sequence<I...>) {
  return {&FoldFire<I>...};
}
constexpr auto kFire = FireTable(std::make_index_sequence<kSlots>());
constexpr auto kFireAsync =
    FireAsyncTable(std::make_index_sequence<kSlots>());
constexpr auto kFoldFire = FoldTable(std::make_index_sequence<kFoldHandlers>());
constexpr GuardFn kResidue[] = {&ResidueGuard<0>, &ResidueGuard<1>,
                                &ResidueGuard<2>, &ResidueGuard<3>,
                                &ResidueGuard<kNeverResidue>};

spin::micro::Program KindEq(uint64_t kind) {
  return spin::micro::GuardArgFieldEq(/*num_args=*/2, /*arg=*/0,
                                      offsetof(Msg, kind), /*width=*/8,
                                      ~0ull, kind);
}

// The population's shape by popularity rank: the Table 3 events, the
// three special events, then a fixed 24-rank cycle of Table 1's handler
// counts and the other shapes (two thirds guarded sync events of 1-10
// handlers, an eighth async, two reject-all events), with a 50-handler
// event every 48 ranks.
Shape ShapeAt(size_t rank) {
  if (rank < kTable3Events) {
    return Shape::kTable3;
  }
  if (rank == kFilterRank) {
    return Shape::kFilter;
  }
  if (rank == kFoldRank) {
    return Shape::kFold;
  }
  if (rank == kChainRank) {
    return Shape::kChain;
  }
  static constexpr Shape kCycle[24] = {
      Shape::kDirect, Shape::kH2,     Shape::kH5,     Shape::kH1,
      Shape::kH10,    Shape::kAsync1, Shape::kH2,     Shape::kReject,
      Shape::kH5,     Shape::kH1,     Shape::kH10,    Shape::kH2,
      Shape::kAsync10, Shape::kH5,    Shape::kH1,     Shape::kReject,
      Shape::kH2,     Shape::kH5,     Shape::kH10,    Shape::kAsync1,
      Shape::kH1,     Shape::kH2,     Shape::kH5,     Shape::kH50};
  size_t i = rank - kTable3Events;
  Shape shape = kCycle[i % 24];
  if (shape == Shape::kH50 && (i / 24) % 2 == 1) {
    shape = Shape::kH10;
  }
  return shape;
}

size_t HandlerCount(Shape shape) {
  switch (shape) {
    case Shape::kH1:
      return 1;
    case Shape::kH2:
      return 2;
    case Shape::kH5:
      return 5;
    case Shape::kH10:
      return 10;
    case Shape::kH50:
      return 50;
    case Shape::kAsync1:
      return 1;
    case Shape::kAsync10:
      return 10;
    default:
      return 0;
  }
}

bool IsAsync(Shape shape) {
  return shape == Shape::kAsync1 || shape == Shape::kAsync10;
}

}  // namespace

struct DispatchPart::Info {
  Shape shape = Shape::kH1;
  std::unique_ptr<Ev> ev;  // null for the fold event
  Msg msgs[kMsgs];
  uint64_t fires[kSlots] = {};
  uint64_t pred[kSlots] = {};
  std::atomic<uint64_t> async_fires[kSlots] = {};
  uint64_t async_pred[kSlots] = {};
  uint64_t default_fires = 0;
  uint64_t default_pred = 0;
  bool has_default = false;
  std::vector<Shadow> shadow;  // installed bindings, in install order
  spin::BindingHandle handles[kSlots];
};

bool DispatchPart::Pred::Admits(const Msg& msg, uint64_t x) const {
  return kind == kKindEq ? msg.kind == value : (x & 3) == value;
}

DispatchPart::DispatchPart(const DispatchOptions& options)
    : options_(options), rng_(options.seed * 0x9e3779b97f4a7c15ull + 1) {
  spin::Dispatcher::Config config;
  config.enable_jit = options.enable_jit;
  config.pool = options.pool;
  dispatcher_ = std::make_unique<spin::Dispatcher>(config);

  for (size_t rank = 0; rank < kEvents; ++rank) {
    Build(rank, ShapeAt(rank));
  }
  Info& chain = *infos_[kChainRank];
  Info& target = *infos_[kChainTargetRank];
  for (size_t j = 0; j < kMsgs; ++j) {
    chain.msgs[j].chain = target.ev.get();
    chain.msgs[j].chain_msg = &target.msgs[j];
  }

  std::vector<size_t> sync_ranks;
  std::vector<size_t> async_ranks;
  for (size_t rank = 0; rank < kEvents; ++rank) {
    Shape shape = infos_[rank]->shape;
    (IsAsync(shape) ? async_ranks : sync_ranks).push_back(rank);
    bool plain = shape == Shape::kH1 || shape == Shape::kH2 ||
                 shape == Shape::kH5;
    if (rank >= kEvents / 2 && plain) {
      cold_.push_back(rank);
    }
  }
  // zipf: Table 3's counts for its events and an equal share for every
  // other sync event (see kTable3Share); async events Zipf-skewed.
  // uniform: every event equally often.
  double table3_total = 0;
  for (const Table3Row& row : kTable3) {
    table3_total += row.raised;
  }
  std::vector<double> sync_weights(sync_ranks.size(), 1.0);
  std::vector<double> async_weights(async_ranks.size(), 1.0);
  if (options_.zipf) {
    for (size_t i = 0; i < sync_ranks.size(); ++i) {
      size_t rank = sync_ranks[i];
      sync_weights[i] =
          rank < kTable3Events
              ? kTable3Share * kTable3[rank].raised / table3_total
              : (1 - kTable3Share) /
                    static_cast<double>(sync_ranks.size() - kTable3Events);
    }
    async_weights = ZipfWeights(async_ranks.size());
  }
  sync_trace_ = MakeTrace(sync_ranks, sync_weights, kTraceLength);
  async_trace_ = MakeTrace(async_ranks, async_weights, kTraceLength / 16);

  // Live extras on the cold tail, so every burst uninstalls some, and an
  // imposed guard for the first burst to move.
  for (size_t i = 0; i < kExtraLive; ++i) {
    size_t rank = cold_[cold_cursor_++ % cold_.size()];
    Info& info = *infos_[rank];
    size_t slot = kFirstExtraSlot + i;
    Pred guard{Pred::kResidue, NextRandom(rng_) % 4};
    extras_.push_back(
        Extra{rank, slot, InstallCounted(info, slot, &guard, false)});
  }
  ImposeGuard(cold_.front());
}

DispatchPart::~DispatchPart() {
  options_.pool->Drain();
  extras_.clear();
  fold_.reset();
  infos_.clear();
  dispatcher_.reset();
}

spin::BindingHandle DispatchPart::InstallCounted(Info& info, size_t slot,
                                                 const Pred* guard,
                                                 bool async) {
  spin::InstallOptions opts{.async = async, .module = &module_};
  FireFn fn = async ? kFireAsync[slot] : kFire[slot];
  spin::BindingHandle handle;
  if (guard == nullptr) {
    handle = dispatcher_->InstallHandler(*info.ev, fn, opts);
  } else if (guard->kind == Pred::kResidue) {
    // Figure 2's form: the guard travels with the install.
    handle = dispatcher_->InstallHandler(*info.ev, kResidue[guard->value], fn,
                                         opts);
  } else {
    handle = dispatcher_->InstallHandler(*info.ev, fn, opts);
    dispatcher_->AddMicroGuard(handle, KindEq(guard->value));
  }
  Shadow shadow{slot, async, {}};
  if (guard != nullptr) {
    shadow.guards.push_back(*guard);
  }
  info.shadow.push_back(std::move(shadow));
  info.handles[slot] = handle;
  return handle;
}

void DispatchPart::Build(size_t rank, Shape shape) {
  auto info = std::make_unique<Info>();
  info->shape = shape;
  for (size_t j = 0; j < kMsgs; ++j) {
    // Every kind appears equally often, so guard outcomes have the same
    // distribution under every seed.
    Msg& msg = info->msgs[j];
    msg.kind = j % 4;
    msg.fires = info->fires;
    msg.async_fires = info->async_fires;
    msg.default_fires = &info->default_fires;
  }
  std::string name = "Perfbench.E" + std::to_string(rank);
  spin::InstallOptions opts{.module = &module_};

  if (shape == Shape::kFold) {
    fold_ = std::make_unique<FoldEv>(name, &module_, nullptr,
                                     dispatcher_.get());
    for (size_t i = 0; i < kFoldHandlers; ++i) {
      info->handles[i] = dispatcher_->InstallHandler(*fold_, kFoldFire[i],
                                                     opts);
      info->shadow.push_back(Shadow{i, false, {}});
    }
    dispatcher_->SetResultHandler(*fold_, &SumFold, &module_);
    dispatcher_->InstallDefaultHandler(*fold_, &FoldDefault, opts);
    info->has_default = true;
    fold_rank_ = rank;
    infos_.push_back(std::move(info));
    return;
  }
  if (shape == Shape::kDirect) {
    info->ev = std::make_unique<Ev>(name, &module_, &Fire<0>,
                                    dispatcher_.get());
    info->shadow.push_back(Shadow{0, false, {}});
    infos_.push_back(std::move(info));
    return;
  }

  info->ev = std::make_unique<Ev>(name, &module_, nullptr, dispatcher_.get());
  Info& in = *info;
  switch (shape) {
    case Shape::kReject: {
      Pred micro_never{Pred::kKindEq, kNeverKind};
      Pred native_never{Pred::kResidue, kNeverResidue};
      InstallCounted(in, 0, &micro_never, false);
      InstallCounted(in, 1, &native_never, false);
      break;
    }
    case Shape::kFilter: {
      in.handles[0] = dispatcher_->InstallFilter(*in.ev, &FilterFire, opts);
      in.shadow.push_back(Shadow{0, false, {}});
      for (size_t slot = 1; slot <= 3; ++slot) {
        Pred guard{Pred::kResidue, slot % 4};
        InstallCounted(in, slot, &guard, false);
      }
      break;
    }
    case Shape::kTable3: {
      // The row's unguarded handlers first, then its guarded ones, micro
      // field-equality and native FUNCTIONAL guards in turn.
      const Table3Row& row = kTable3[rank];
      size_t unguarded = row.handlers - row.guards;
      for (size_t k = 0; k < row.handlers; ++k) {
        if (k < unguarded) {
          InstallCounted(in, k, nullptr, false);
        } else if ((k - unguarded) % 2 == 0) {
          Pred guard{Pred::kKindEq, k % 4};
          InstallCounted(in, k, &guard, false);
        } else {
          Pred guard{Pred::kResidue, k % 4};
          InstallCounted(in, k, &guard, false);
        }
      }
      break;
    }
    case Shape::kChain: {
      in.handles[0] = dispatcher_->InstallHandler(*in.ev, &ChainFire, opts);
      in.shadow.push_back(Shadow{0, false, {}});
      InstallCounted(in, 1, nullptr, false);
      break;
    }
    default: {
      // Slot k: unguarded, micro field-equality guard, or native FUNCTIONAL
      // guard, in turn. Async handlers are unguarded.
      bool async = IsAsync(shape);
      for (size_t k = 0; k < HandlerCount(shape); ++k) {
        if (async || k % 3 == 0) {
          InstallCounted(in, k, nullptr, async);
        } else if (k % 3 == 1) {
          Pred guard{Pred::kKindEq, (k / 3) % 4};
          InstallCounted(in, k, &guard, false);
        } else {
          Pred guard{Pred::kResidue, (k / 3) % 4};
          InstallCounted(in, k, &guard, false);
        }
      }
      break;
    }
  }
  if (!IsAsync(shape)) {
    dispatcher_->InstallDefaultHandler(*in.ev, &DefaultFire, opts);
    in.has_default = true;
  }
  infos_.push_back(std::move(info));
}

std::vector<DispatchPart::TraceEntry> DispatchPart::MakeTrace(
    const std::vector<size_t>& ranks, const std::vector<double>& weights,
    size_t length) {
  std::vector<TraceEntry> trace;
  trace.reserve(length);
  for (uint32_t index : Schedule(weights, length, rng_)) {
    size_t rank = ranks[index];
    trace.push_back(TraceEntry{static_cast<uint32_t>(rank),
                               static_cast<uint32_t>(NextRandom(rng_) % kMsgs),
                               NextRandom(rng_)});
  }
  return trace;
}

void DispatchPart::Predict(Info& info, size_t msg, uint64_t x) {
  const Msg& m = info.msgs[msg];
  size_t fired = 0;
  for (const Shadow& binding : info.shadow) {
    bool admitted = true;
    for (const Pred& guard : binding.guards) {
      admitted = admitted && guard.Admits(m, x);
    }
    if (!admitted) {
      continue;
    }
    ++fired;
    ++(binding.async ? info.async_pred : info.pred)[binding.slot];
    if (info.shape == Shape::kFilter && binding.slot == 0) {
      x += 1;
    }
    if (info.shape == Shape::kChain && binding.slot == 0) {
      Predict(*infos_[kChainTargetRank], msg, x ^ kChainXor);
    }
  }
  if (fired == 0 && info.has_default) {
    ++info.default_pred;
  }
}

size_t DispatchPart::RaiseWindow() {
  const size_t length = sync_trace_.size();
  for (size_t n = 0; n < kSyncWindow; ++n) {
    const TraceEntry& t = sync_trace_[sync_pos_];
    sync_pos_ = sync_pos_ + 1 == length ? 0 : sync_pos_ + 1;
    Info& info = *infos_[t.event];
    if (t.event == fold_rank_) {
      if (fold_->Raise(&info.msgs[t.msg], t.x) != ExpectedFold(t.x)) {
        ++fold_mismatches_;
      }
    } else {
      info.ev->Raise(&info.msgs[t.msg], t.x);
    }
  }
  raises_ += kSyncWindow;
  pending_ += kSyncWindow;
  return kSyncWindow;
}

size_t DispatchPart::AsyncBatch(uint64_t* drain_ns) {
  const size_t length = async_trace_.size();
  for (size_t n = 0; n < kAsyncBatch; ++n) {
    const TraceEntry& t = async_trace_[async_pos_];
    async_pos_ = async_pos_ + 1 == length ? 0 : async_pos_ + 1;
    Info& info = *infos_[t.event];
    info.ev->Raise(&info.msgs[t.msg], t.x);
  }
  uint64_t start = WallNs();
  {
    Span span("rt.drain");
    options_.pool->Drain();
  }
  *drain_ns = WallNs() - start;
  async_raises_ += kAsyncBatch;
  pending_async_ += kAsyncBatch;
  return kAsyncBatch;
}

void DispatchPart::Settle() {
  const size_t length = sync_trace_.size();
  size_t pos = (sync_pos_ + length - pending_ % length) % length;
  for (size_t n = 0; n < pending_; ++n) {
    const TraceEntry& t = sync_trace_[pos];
    pos = pos + 1 == length ? 0 : pos + 1;
    Info& info = *infos_[t.event];
    if (t.event != fold_rank_) {
      Predict(info, t.msg, t.x);
    } else {
      for (size_t i = 0; i < kFoldHandlers; ++i) {
        ++info.pred[i];
      }
    }
  }
  pending_ = 0;
  const size_t async_length = async_trace_.size();
  pos = (async_pos_ + async_length - pending_async_ % async_length) %
        async_length;
  for (size_t n = 0; n < pending_async_; ++n) {
    const TraceEntry& t = async_trace_[pos];
    pos = pos + 1 == async_length ? 0 : pos + 1;
    Predict(*infos_[t.event], t.msg, t.x);
  }
  pending_async_ = 0;
}

void DispatchPart::ImposeGuard(size_t rank) {
  Info& info = *infos_[rank];
  uint64_t kind = NextRandom(rng_) % 4;
  {
    Span span("core.guard");
    dispatcher_->ImposeMicroGuard(info.handles[0], KindEq(kind));
  }
  std::vector<Pred>& guards = info.shadow.front().guards;
  guards.insert(guards.begin(), Pred{Pred::kKindEq, kind});
  imposed_rank_ = rank;
}

void DispatchPart::RemoveImposedGuard() {
  Info& info = *infos_[imposed_rank_];
  {
    Span span("core.guard");
    dispatcher_->RemoveGuard(info.handles[0], 0, &module_);
  }
  std::vector<Pred>& guards = info.shadow.front().guards;
  guards.erase(guards.begin());
}

size_t DispatchPart::ReconfigBurst() {
  Settle();
  size_t calls = 0;
  for (int k = 0; k < kReconfigPairs; ++k) {
    size_t rank = cold_[cold_cursor_++ % cold_.size()];
    Info& info = *infos_[rank];
    const Extra& oldest = extras_.front();
    size_t slot = oldest.slot;  // the slot the uninstall below frees
    Pred guard{Pred::kResidue, NextRandom(rng_) % 4};

    // Uninstall the oldest extra first, so its slot is free to reuse.
    Info& old_info = *infos_[oldest.rank];
    uint64_t start = WallNs();
    {
      Span span("core.uninstall");
      dispatcher_->Uninstall(oldest.handle);
    }
    uninstall_ns_.push_back(static_cast<double>(WallNs() - start));
    for (size_t i = 0; i < old_info.shadow.size(); ++i) {
      if (old_info.shadow[i].slot == slot) {
        old_info.shadow.erase(old_info.shadow.begin() +
                              static_cast<ptrdiff_t>(i));
        break;
      }
    }
    old_info.handles[slot] = nullptr;
    extras_.pop_front();

    start = WallNs();
    spin::BindingHandle handle;
    {
      Span span("core.install");
      handle = InstallCounted(info, slot, &guard, false);
    }
    install_ns_.push_back(static_cast<double>(WallNs() - start));
    extras_.push_back(Extra{rank, slot, std::move(handle)});
    calls += 2;
  }

  // Move the imposed micro guard to another cold event: one removal and
  // one imposition, so every burst does the same work.
  uint64_t start = WallNs();
  RemoveImposedGuard();
  guard_change_ns_.push_back(static_cast<double>(WallNs() - start));
  start = WallNs();
  ImposeGuard(cold_[cold_cursor_ % cold_.size()]);
  guard_change_ns_.push_back(static_cast<double>(WallNs() - start));
  calls += 2;

  epoch_backlog_.push_back(
      static_cast<double>(dispatcher_->epoch().retired_count()));
  calls_ += calls;
  return calls;
}

double DispatchPart::ShapeProbe(Shape shape, size_t n) {
  Settle();
  size_t rank = 0;
  while (rank < infos_.size() && infos_[rank]->shape != shape) {
    ++rank;
  }
  Info& info = *infos_[rank];
  std::vector<std::pair<uint32_t, uint64_t>> inputs(n);
  for (auto& [msg, x] : inputs) {
    msg = static_cast<uint32_t>(NextRandom(rng_) % kMsgs);
    x = NextRandom(rng_);
  }
  uint64_t start = WallNs();
  {
    Span span("core.raise_probe");
    for (const auto& [msg, x] : inputs) {
      info.ev->Raise(&info.msgs[msg], x);
    }
  }
  uint64_t elapsed = WallNs() - start;
  for (const auto& [msg, x] : inputs) {
    Predict(info, msg, x);
  }
  raises_ += n;
  return static_cast<double>(elapsed) / static_cast<double>(n);
}

void DispatchPart::Verify(Checks& checks) {
  Settle();
  options_.pool->Drain();
  checks.attempted += raises_ + async_raises_ + calls_;
  for (size_t rank = 0; rank < infos_.size(); ++rank) {
    Info& info = *infos_[rank];
    for (size_t slot = 0; slot < kSlots; ++slot) {
      uint64_t async_fires =
          info.async_fires[slot].load(std::memory_order_relaxed);
      if (info.fires[slot] != info.pred[slot] ||
          async_fires != info.async_pred[slot]) {
        checks.Fail("event " + std::to_string(rank) + " slot " +
                    std::to_string(slot) + " fired " +
                    std::to_string(info.fires[slot] + async_fires) +
                    ", trace predicts " +
                    std::to_string(info.pred[slot] + info.async_pred[slot]));
      }
    }
    if (info.default_fires != info.default_pred) {
      checks.Fail("event " + std::to_string(rank) + " default fired " +
                  std::to_string(info.default_fires) + ", trace predicts " +
                  std::to_string(info.default_pred));
    }
  }
  if (fold_mismatches_ != 0) {
    checks.Fail("folded results differ from the expected sum",
                fold_mismatches_);
  }
}

}  // namespace perfbench
