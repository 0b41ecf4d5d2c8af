#include "src/core/dispatcher.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <thread>

#include "src/micro/pattern.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/rt/panic.h"

namespace spin {
namespace {

void DeleteTable(void* p) { delete static_cast<DispatchTable*>(p); }

void DeleteGuards(void* p) {
  delete static_cast<std::vector<GuardClause>*>(p);
}

// A guard list retired into several epoch domains at once: each domain's
// grace period drops one count, and the last one frees the list.
struct SharedGuardRetire {
  std::atomic<uint32_t> left;
  std::vector<GuardClause>* guards;

  static void Release(void* p) {
    auto* self = static_cast<SharedGuardRetire*>(p);
    if (self->left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      DeleteGuards(self->guards);
      delete self;
    }
  }
};

// Bytes one guard charges against its binding owner's quota.
size_t GuardBytes(const GuardClause& guard) {
  size_t bytes = sizeof(GuardClause);
  if (guard.prog) {
    bytes += guard.prog->code().size() * sizeof(micro::Insn);
  }
  return bytes;
}

bool SigJitable(const ProcSig& sig) {
  if (sig.params.size() > 6) {
    return false;
  }
  for (const ParamSig& p : sig.params) {
    if (p.cls == TypeClass::kFloat64) {
      return false;  // doubles travel in SSE registers; interpreter only
    }
  }
  return sig.result.cls != TypeClass::kFloat64;
}

// Whether a stub can reach `clause` only through an out-of-line JIT body
// that has not been compiled yet: a micro-program that is not inlined and
// has no native entry.
template <typename Clause>
bool NeedsCompiledBody(const Clause& clause, bool inline_micro) {
  return !inline_micro && clause.fn == nullptr && clause.prog.has_value() &&
         clause.compiled == nullptr;
}

// Compiles the body NeedsCompiledBody asks for (caller holds the dispatcher
// mutex). A program that cannot be compiled leaves `compiled` null.
template <typename Clause>
void CompileBodyIfNeeded(Clause& clause, bool inline_micro) {
  if (NeedsCompiledBody(clause, inline_micro)) {
    clause.compiled = codegen::CompileMicro(*clause.prog);
  }
}

// Whether one callable (handler or guard) can participate in a generated
// stub: inlined, called natively, or called through its compiled body.
template <typename Clause>
bool CallableJitable(const Clause& clause, bool inline_micro,
                     size_t num_args) {
  if (clause.closure_form && num_args > 5) {
    return false;
  }
  bool has_prog = clause.prog.has_value() &&
                  clause.prog->Validate() == micro::ValidateStatus::kOk;
  return (inline_micro && has_prog) || clause.fn != nullptr ||
         (has_prog && clause.compiled != nullptr);
}

// Guard decision tree planning (§3.2 future work): if every sync binding
// carries a micro guard discriminating the same field against pairwise
// distinct, pre-masked constants (and nothing widens arguments by-ref, so
// a handler cannot change what later guards would have seen), the linear
// guard chain can be compiled as a binary search. Returns the tree plus the
// matched guard index per binding (stripped from the emitted guard list).
struct TreePlan {
  codegen::StubTree tree;
  std::vector<size_t> matched_guard;  // per sync binding
};

std::optional<TreePlan> PlanGuardTree(
    const std::vector<BindingHandle>& sync_bindings) {
  TreePlan plan;
  plan.matched_guard.reserve(sync_bindings.size());
  bool have_key = false;
  micro::FieldEqPattern key;
  std::vector<uint64_t> values;
  for (size_t b = 0; b < sync_bindings.size(); ++b) {
    const Binding& binding = *sync_bindings[b];
    if (!binding.byref_params.empty()) {
      return std::nullopt;
    }
    const std::vector<GuardClause>& guards = binding.guards();
    bool matched = false;
    for (size_t g = 0; g < guards.size(); ++g) {
      if (!guards[g].prog.has_value() || guards[g].closure_form) {
        continue;
      }
      micro::FieldEqPattern pattern;
      if (!micro::MatchFieldEq(*guards[g].prog, &pattern)) {
        continue;
      }
      if (have_key && !pattern.SameField(key)) {
        continue;  // maybe another guard on this binding matches the key
      }
      uint64_t width_mask = pattern.width == 8
                                ? ~0ull
                                : ((1ull << (8 * pattern.width)) - 1);
      if ((pattern.value & pattern.mask & width_mask) != pattern.value) {
        return std::nullopt;  // the guard can never pass; keep linear
      }
      if (!have_key) {
        key = pattern;
        have_key = true;
      }
      plan.matched_guard.push_back(g);
      values.push_back(pattern.value);
      matched = true;
      break;
    }
    if (!matched) {
      return std::nullopt;
    }
  }
  plan.tree.arg = key.arg;
  plan.tree.offset = key.offset;
  plan.tree.width = key.width;
  plan.tree.mask = key.mask;
  for (size_t b = 0; b < sync_bindings.size(); ++b) {
    plan.tree.cases.push_back(
        codegen::TreeCase{values[b], static_cast<uint32_t>(b)});
  }
  std::sort(plan.tree.cases.begin(), plan.tree.cases.end(),
            [](const codegen::TreeCase& a, const codegen::TreeCase& b) {
              return a.value < b.value;
            });
  for (size_t i = 1; i < plan.tree.cases.size(); ++i) {
    if (plan.tree.cases[i - 1].value == plan.tree.cases[i].value) {
      return std::nullopt;  // duplicate constants: order matters, stay linear
    }
  }
  return plan;
}

template <typename Clause>
codegen::CallableSpec MakeCallableSpec(const Clause& clause,
                                       bool inline_micro) {
  codegen::CallableSpec spec;
  spec.closure = clause.closure;
  spec.closure_form = clause.closure_form;
  if (inline_micro && clause.prog.has_value()) {
    spec.prog = &*clause.prog;
    return spec;
  }
  if (clause.fn != nullptr) {
    spec.fn = clause.fn;
  } else {
    SPIN_ASSERT(clause.compiled != nullptr);
    spec.fn = clause.compiled->entry();
  }
  return spec;
}

}  // namespace

void AuthRequest::ImposeGuard(GuardClause guard) {
  SPIN_ASSERT_MSG(op == AuthOp::kInstall && binding != nullptr,
                  "ImposeGuard is only valid while authorizing an install");
  guard.imposed = true;
  // Micro-program impositions compile here so every evaluation site — the
  // local raise path and the exporter's per-request re-enforcement — runs
  // native code. nullptr falls back to the interpreter.
  if (guard.prog.has_value() && guard.compiled == nullptr &&
      guard.prog->Validate() == micro::ValidateStatus::kOk) {
    guard.compiled = codegen::CompileMicro(*guard.prog);
  }
  // The candidate binding is not yet visible to raises.
  binding->AddGuardPreActive(std::move(guard), /*front=*/true);
}

void AuthRequest::SetOrder(Order order) {
  SPIN_ASSERT_MSG(op == AuthOp::kInstall && binding != nullptr,
                  "SetOrder is only valid while authorizing an install");
  binding->order = std::move(order);
}

// --- EventBase lifecycle -----------------------------------------------------

EventBase::EventBase(std::string name, ProcSig sig, const Module* authority,
                     Dispatcher* owner)
    : name_(std::move(name)),
      sig_(std::move(sig)),
      authority_(authority),
      owner_(owner),
      metrics_(obs::Registry::Global().Register(name_)),
      obs_name_(obs::Intern(name_)) {
  SPIN_ASSERT(owner_ != nullptr);
  SPIN_ASSERT_MSG(sig_.params.size() <= static_cast<size_t>(kMaxEventArgs),
                  "event %s has too many parameters", name_.c_str());
  // Replica slots for shards 1..N-1 must exist before the event becomes
  // visible to raises (RegisterEvent publishes the first tables).
  if (owner_->shard_count() > 1) {
    extra_tables_ =
        std::make_unique<TableSlot[]>(owner_->shard_count() - 1);
  }
  owner_->RegisterEvent(this);
}

EventBase::~EventBase() {
  owner_->UnregisterEvent(this);
  obs::Registry::Global().Unregister(metrics_.get());
}

// --- Dispatcher ---------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_next_dispatcher_id{1};
}  // namespace

namespace {

uint32_t ResolveShardCount(uint32_t requested) {
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<uint32_t>(hw);
  }
  return std::min(requested, Dispatcher::kMaxShards);
}

}  // namespace

Dispatcher::Dispatcher(const Config& config)
    : config_(config),
      epoch_(config.epoch != nullptr ? config.epoch : &EpochDomain::Global()),
      pool_(config.pool != nullptr ? config.pool : &ThreadPool::Global()),
      shard_count_(ResolveShardCount(config.shards)),
      shards_(std::make_unique<ShardState[]>(shard_count_)),
      quota_(config.quota_bytes_per_module),
      instance_id_(g_next_dispatcher_id.fetch_add(1)) {
  // Shard 0 always shares the configured (or global) domain: single-shard
  // dispatchers keep the historical reclamation protocol, and install-side
  // introspection reads shard 0 under epoch(). Extra shards own private
  // domains so their raises never contend on another shard's epoch state.
  shards_[0].epoch = epoch_;
  for (uint32_t s = 1; s < shard_count_; ++s) {
    shards_[s].owned_epoch = std::make_unique<EpochDomain>();
    shards_[s].epoch = shards_[s].owned_epoch.get();
  }
  obs::RegisterSource(this, &Dispatcher::ExportMetricsSource);
  watch_pool_name_ =
      obs::Intern("dispatcher" + std::to_string(instance_id_) + "/pool");
  watch_epoch_name_ =
      obs::Intern("dispatcher" + std::to_string(instance_id_) + "/epoch");
  obs::Watchdog::Global().RegisterProbe(this,
                                        &Dispatcher::WatchdogProbeSource);
}

Dispatcher::~Dispatcher() {
  obs::Watchdog::Global().UnregisterProbe(this);
  obs::UnregisterSource(this);
  // Events must be destroyed before their dispatcher; whatever tables remain
  // belong to events that leaked. Reclaim retired state.
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shards_[s].epoch->Flush();
  }
}

Dispatcher& Dispatcher::Global() {
  static Dispatcher* dispatcher = new Dispatcher();  // intentionally leaked
  return *dispatcher;
}

void Dispatcher::RegisterEvent(EventBase* event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(event);
  RebuildLocked(*event);
}

void Dispatcher::PromoteLazyEvent(EventBase& event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (event.hot_) {
    return;  // racing raises: first promotion wins
  }
  event.hot_ = true;
  ++stats_.lazy_promotions;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kLazyPromote,
                                     event.obs_name_);
  RebuildLocked(event);
}

void Dispatcher::UnregisterEvent(EventBase* event) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    events_.erase(std::remove(events_.begin(), events_.end(), event),
                  events_.end());
  }
  // Drain concurrent raises on every shard, then free the final replicas
  // directly.
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shards_[s].epoch->Synchronize();
    delete event->table_slot(s).exchange(nullptr,
                                         std::memory_order_acq_rel);
  }
}

void Dispatcher::SynchronizeAllShards() {
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shards_[s].epoch->Synchronize();
  }
}

bool Dispatcher::AuthorizeLocked(AuthRequest& request) {
  EventBase& event = *request.event;
  if (event.authorizer_ == nullptr) {
    return true;  // unguarded events are open, as in SPIN pre-authorizer
  }
  return event.authorizer_(request, event.authorizer_ctx_);
}

bool Dispatcher::Authorize(AuthRequest& request) {
  SPIN_ASSERT_MSG(request.event != nullptr,
                  "Authorize requires a target event");
  std::lock_guard<std::mutex> lock(mu_);
  return AuthorizeLocked(request);
}

void Dispatcher::CheckIsAuthorityOrAuthorized(EventBase& event, AuthOp op,
                                              const Module* requestor,
                                              void* credentials) {
  AuthRequest request;
  request.op = op;
  request.event = &event;
  request.requestor = requestor;
  request.credentials = credentials;
  if (!AuthorizeLocked(request)) {
    throw InstallError(InstallStatus::kNotAuthorized, event.name());
  }
}

void Dispatcher::PlaceLocked(EventBase& event, const BindingHandle& binding,
                             const Order& order) {
  std::vector<BindingHandle>& list = event.order_list;
  switch (order.kind) {
    case OrderKind::kUnordered:
    case OrderKind::kLast:
      list.push_back(binding);
      break;
    case OrderKind::kFirst:
      list.insert(list.begin(), binding);
      break;
    case OrderKind::kBefore:
    case OrderKind::kAfter: {
      auto it = std::find(list.begin(), list.end(), order.ref);
      if (order.ref == nullptr || order.ref->event != &event ||
          it == list.end()) {
        throw InstallError(InstallStatus::kBadOrderingReference,
                           event.name());
      }
      list.insert(order.kind == OrderKind::kAfter ? it + 1 : it, binding);
      break;
    }
  }
}

BindingHandle Dispatcher::Install(EventBase& event,
                                  std::shared_ptr<Binding> binding,
                                  const InstallOptions& opts) {
  binding->event = &event;
  if (binding->owner == nullptr) {
    binding->owner = opts.module;
  }
  if (binding->async && !AsyncEligible(event.sig())) {
    throw InstallError(InstallStatus::kAsyncByRef, event.name());
  }
  binding->sig.ephemeral = binding->ephemeral;

  std::lock_guard<std::mutex> lock(mu_);
  if (event.require_ephemeral_ && !binding->ephemeral &&
      !binding->intrinsic) {
    throw InstallError(InstallStatus::kEphemeralRequired, event.name());
  }
  if (!binding->intrinsic) {
    AuthRequest request;
    request.op = AuthOp::kInstall;
    request.event = &event;
    request.binding = binding.get();
    request.requestor = opts.module;
    request.credentials = opts.credentials;
    if (!AuthorizeLocked(request)) {
      throw InstallError(InstallStatus::kNotAuthorized, event.name());
    }
  }
  size_t bytes = binding->MemoryBytes();
  if (!quota_.Charge(binding->owner, bytes)) {
    throw InstallError(InstallStatus::kQuotaExceeded, event.name());
  }
  PlaceLocked(event, binding, binding->order);
  if (binding->intrinsic) {
    event.intrinsic_binding = binding;
  }
  ++stats_.installs;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kInstall,
                                     event.obs_name_);
  RebuildLocked(event);
  return binding;
}

BindingHandle Dispatcher::InstallDefault(EventBase& event,
                                         std::shared_ptr<Binding> binding,
                                         const InstallOptions& opts) {
  binding->event = &event;
  if (binding->owner == nullptr) {
    binding->owner = opts.module;
  }
  std::lock_guard<std::mutex> lock(mu_);
  AuthRequest request;
  request.op = AuthOp::kSetDefault;
  request.event = &event;
  request.binding = binding.get();
  request.requestor = opts.module;
  request.credentials = opts.credentials;
  if (!AuthorizeLocked(request)) {
    throw InstallError(InstallStatus::kNotAuthorized, event.name());
  }
  size_t bytes = binding->MemoryBytes();
  if (!quota_.Charge(binding->owner, bytes)) {
    throw InstallError(InstallStatus::kQuotaExceeded, event.name());
  }
  if (event.default_binding != nullptr) {
    quota_.Release(event.default_binding->owner,
                   event.default_binding->MemoryBytes());
    event.default_binding->active.store(false, std::memory_order_release);
  }
  event.default_binding = binding;
  ++stats_.installs;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kInstall,
                                     event.obs_name_);
  RebuildLocked(event);
  return binding;
}

BindingHandle Dispatcher::InstallMicroHandler(EventBase& event,
                                              micro::Program prog,
                                              const InstallOptions& opts) {
  if (prog.Validate() != micro::ValidateStatus::kOk) {
    throw InstallError(InstallStatus::kInvalidMicroProgram, event.name());
  }
  if (prog.num_args() > static_cast<int>(event.sig().params.size())) {
    throw InstallError(TypecheckStatus::kArityMismatch, event.name());
  }
  auto binding = std::make_shared<Binding>();
  binding->sig = event.sig();
  binding->prog = std::move(prog);
  binding->owner = opts.module;
  binding->async = opts.async;
  binding->ephemeral = opts.ephemeral;
  binding->order = opts.order;
  return Install(event, std::move(binding), opts);
}

BindingHandle Dispatcher::InstallErasedHandler(EventBase& event, void* ctx,
                                               HandlerInvoker invoker,
                                               const InstallOptions& opts) {
  auto binding = std::make_shared<Binding>();
  binding->sig = event.sig();
  binding->fn = ctx;
  binding->invoker = invoker;
  binding->owner = opts.module;
  binding->async = opts.async;
  binding->ephemeral = opts.ephemeral;
  // Erased handlers have no native-ABI entry the stub compiler could call
  // (`fn` is an opaque context, not a procedure), so the binding must take
  // the interpreted path unconditionally — `erased` bars it from the
  // direct-call bypass and the generated stub, and may_throw lets the
  // invoker surface exceptions through the raise.
  binding->erased = true;
  binding->may_throw = true;
  binding->order = opts.order;
  return Install(event, std::move(binding), opts);
}

void Dispatcher::AddMicroGuard(const BindingHandle& binding,
                               micro::Program prog, GuardCompileMode mode) {
  if (!prog.functional()) {
    throw InstallError(TypecheckStatus::kGuardNotFunctional,
                       binding->event->name());
  }
  if (prog.Validate() != micro::ValidateStatus::kOk) {
    throw InstallError(InstallStatus::kInvalidMicroProgram,
                       binding->event->name());
  }
  GuardClause clause;
  clause.prog = std::move(prog);
  if (mode == GuardCompileMode::kJit) {
    // Compile once at install; EvalGuards then calls native code instead
    // of the interpreter. nullptr (codegen unavailable, >6 args) falls
    // back to interpretation.
    clause.compiled = codegen::CompileMicro(*clause.prog);
  }
  InsertGuard(binding, std::move(clause), /*front=*/false);
}

void Dispatcher::ImposeMicroGuard(const BindingHandle& binding,
                                  micro::Program prog,
                                  GuardCompileMode mode) {
  if (!prog.functional()) {
    throw InstallError(TypecheckStatus::kGuardNotFunctional,
                       binding->event->name());
  }
  if (prog.Validate() != micro::ValidateStatus::kOk) {
    throw InstallError(InstallStatus::kInvalidMicroProgram,
                       binding->event->name());
  }
  GuardClause clause;
  clause.prog = std::move(prog);
  clause.imposed = true;
  if (mode == GuardCompileMode::kJit) {
    clause.compiled = codegen::CompileMicro(*clause.prog);
  }
  InsertGuard(binding, std::move(clause), /*front=*/true);
}

void Dispatcher::RemoveGuard(const BindingHandle& binding, size_t index,
                             const Module* requestor) {
  std::lock_guard<std::mutex> lock(mu_);
  EventBase& event = *binding->event;
  if (!binding->active.load(std::memory_order_acquire)) {
    throw InstallError(InstallStatus::kBindingInactive, event.name());
  }
  std::vector<GuardClause> guards = binding->CopyGuards();
  SPIN_ASSERT_MSG(index < guards.size(), "guard index %zu out of range",
                  index);
  if (guards[index].imposed) {
    // Manipulating an authority-imposed guard is itself authorized.
    AuthRequest request;
    request.op = AuthOp::kImposeGuard;
    request.event = &event;
    request.binding = binding.get();
    request.requestor = requestor;
    if (!AuthorizeLocked(request)) {
      throw InstallError(InstallStatus::kNotAuthorized, event.name());
    }
  }
  quota_.Release(binding->owner, GuardBytes(guards[index]));
  guards.erase(guards.begin() + static_cast<ptrdiff_t>(index));
  ReplaceGuardsLocked(*binding, std::move(guards));
  RebuildLocked(event);
}

size_t Dispatcher::GuardCount(const BindingHandle& binding) const {
  std::lock_guard<std::mutex> lock(mu_);
  return binding->guards().size();
}

EventBase* Dispatcher::FindEvent(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (EventBase* event : events_) {
    if (event->name() == name) {
      return event;
    }
  }
  return nullptr;
}

std::string Dispatcher::Describe(EventBase& event) const {
  std::string out = event.name() + " " + event.sig().ToString() + "\n";
  EpochDomain::Guard guard(*epoch_);
  DispatchTable* table = event.table_.load(std::memory_order_acquire);
  const char* kind = "interpreted";
  if (event.direct_fn() != nullptr) {
    kind = "direct call (intrinsic bypass)";
  } else if (table->stub != nullptr) {
    kind = "generated stub";
  } else if (table->lazy_pending) {
    kind = "interpreted (lazy, compile pending)";
  }
  out += "  dispatch: ";
  out += kind;
  out += "\n";
  char line[160];
  size_t guards = 0;
  for (const auto& binding : table->sync_bindings) {
    guards += binding->guards().size();
  }
  size_t async_handlers = 0;
  if (table->async_bindings != nullptr) {
    async_handlers = table->async_bindings->size();
    for (const auto& binding : *table->async_bindings) {
      guards += binding->guards().size();
    }
  }
  std::snprintf(line, sizeof(line),
                "  handlers: %zu sync, %zu async, %s default; guards: %zu\n",
                table->sync_bindings.size(), async_handlers,
                table->default_handler != nullptr ? "1" : "no", guards);
  out += line;
  if (table->stub != nullptr) {
    std::snprintf(line, sizeof(line),
                  "  generated code: %zu bytes, %zu LIR insns, "
                  "%zu peephole rewrites\n",
                  table->stub->code_size(), table->stub->lir_insns(),
                  table->stub->peephole_rewrites());
    out += line;
  }
  std::snprintf(line, sizeof(line), "  table version: %u\n", table->version);
  out += line;
  for (size_t k = 0; k < obs::kNumDispatchKinds; ++k) {
    auto dk = static_cast<obs::DispatchKind>(k);
    obs::HistogramSnapshot snap = event.metrics().hist(dk).Snapshot();
    if (snap.count == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  latency[%s]: n=%llu p50=%lluns p90=%lluns p99=%lluns "
                  "max=%lluns\n",
                  obs::DispatchKindName(dk),
                  static_cast<unsigned long long>(snap.count),
                  static_cast<unsigned long long>(snap.Percentile(0.50)),
                  static_cast<unsigned long long>(snap.Percentile(0.90)),
                  static_cast<unsigned long long>(snap.Percentile(0.99)),
                  static_cast<unsigned long long>(snap.max));
    out += line;
  }
  return out;
}

void Dispatcher::DescribeAll(std::ostream& os) const {
  for (EventBase* event : Events()) {
    os << Describe(*event);
  }
  // Flight-recorder health: silent ring wraparound means every trace
  // read from the recorder is missing its oldest records. Surface the
  // drop rate where a human is already looking.
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  uint64_t emits = recorder.TotalEmits();
  uint64_t overwrites = recorder.TotalOverwrites();
  char line[160];
  double rate = emits == 0 ? 0.0
                           : 100.0 * static_cast<double>(overwrites) /
                                 static_cast<double>(emits);
  std::snprintf(line, sizeof(line),
                "flight recorder: %llu records emitted, %llu dropped to "
                "wraparound (%.2f%% drop rate)\n",
                static_cast<unsigned long long>(emits),
                static_cast<unsigned long long>(overwrites), rate);
  os << line;
}

void Dispatcher::InsertGuard(const BindingHandle& binding, GuardClause clause,
                             bool front) {
  // Copy, insert and republish under one hold of mu_, so concurrent guard
  // changes on the same binding each start from the other's result.
  std::lock_guard<std::mutex> lock(mu_);
  if (!binding->active.load(std::memory_order_acquire)) {
    throw InstallError(InstallStatus::kBindingInactive,
                       binding->event->name());
  }
  // Guard storage counts against the owner's quota (§2.6): without this an
  // extension could hoard memory by piling guards onto one binding.
  if (!quota_.Charge(binding->owner, GuardBytes(clause))) {
    throw InstallError(InstallStatus::kQuotaExceeded, binding->event->name());
  }
  std::vector<GuardClause> guards = binding->CopyGuards();
  guards.insert(front ? guards.begin() : guards.end(), std::move(clause));
  ReplaceGuardsLocked(*binding, std::move(guards));
  RebuildLocked(*binding->event);
}

void Dispatcher::ReplaceGuardsLocked(Binding& binding,
                                     std::vector<GuardClause> guards) {
  std::vector<GuardClause>* old = binding.SwapGuards(std::move(guards));
  if (shard_count_ == 1) {
    epoch_->Retire(old, &DeleteGuards);
    return;
  }
  auto* retire = new SharedGuardRetire{{shard_count_}, old};
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shards_[s].epoch->Retire(retire, &SharedGuardRetire::Release);
  }
}

void Dispatcher::Uninstall(const BindingHandle& binding,
                           const Module* requestor, void* credentials) {
  std::lock_guard<std::mutex> lock(mu_);
  EventBase& event = *binding->event;
  if (!binding->active.load(std::memory_order_acquire)) {
    throw InstallError(InstallStatus::kBindingInactive, event.name());
  }
  AuthRequest request;
  request.op = AuthOp::kUninstall;
  request.event = &event;
  request.binding = binding.get();
  request.requestor = requestor;
  request.credentials = credentials;
  if (!AuthorizeLocked(request)) {
    throw InstallError(InstallStatus::kNotAuthorized, event.name());
  }
  binding->active.store(false, std::memory_order_release);
  if (event.default_binding == binding) {
    event.default_binding = nullptr;
  } else {
    auto& list = event.order_list;
    list.erase(std::remove(list.begin(), list.end(), binding), list.end());
  }
  if (event.intrinsic_binding == binding) {
    event.intrinsic_binding = nullptr;
  }
  quota_.Release(binding->owner, binding->MemoryBytes());
  ++stats_.uninstalls;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kUninstall,
                                     event.obs_name_);
  RebuildLocked(event);
}

void Dispatcher::DeregisterIntrinsic(EventBase& event,
                                     const Module* requestor) {
  BindingHandle intrinsic;
  {
    std::lock_guard<std::mutex> lock(mu_);
    intrinsic = event.intrinsic_binding;
  }
  if (intrinsic == nullptr) {
    throw InstallError(InstallStatus::kBindingInactive,
                       event.name() + " has no intrinsic handler");
  }
  Uninstall(intrinsic, requestor);
}

void Dispatcher::SetOrder(const BindingHandle& binding, Order order) {
  std::lock_guard<std::mutex> lock(mu_);
  EventBase& event = *binding->event;
  if (!binding->active.load(std::memory_order_acquire)) {
    throw InstallError(InstallStatus::kBindingInactive, event.name());
  }
  auto& list = event.order_list;
  list.erase(std::remove(list.begin(), list.end(), binding), list.end());
  PlaceLocked(event, binding, order);
  binding->order = order;
  RebuildLocked(event);
}

Order Dispatcher::GetOrder(const BindingHandle& binding) const {
  std::lock_guard<std::mutex> lock(mu_);
  return binding->order;
}

void Dispatcher::SetResultPolicy(EventBase& event, ResultPolicy policy,
                                 const Module* requestor) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckIsAuthorityOrAuthorized(event, AuthOp::kSetResultHandler, requestor,
                               nullptr);
  event.policy_ = policy;
  event.custom_fold_ = nullptr;
  event.custom_fold_ctx_ = nullptr;
  RebuildLocked(event);
}

void Dispatcher::SetResultFold(EventBase& event, ResultFold fold, void* ctx,
                               const Module* requestor) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckIsAuthorityOrAuthorized(event, AuthOp::kSetResultHandler, requestor,
                               nullptr);
  event.custom_fold_ = fold;
  event.custom_fold_ctx_ = ctx;
  RebuildLocked(event);
}

void Dispatcher::InstallAuthorizer(EventBase& event, AuthorizerFn authorizer,
                                   void* ctx, const Module& proof) {
  std::lock_guard<std::mutex> lock(mu_);
  if (event.authority() == nullptr || !(*event.authority() == proof)) {
    throw InstallError(InstallStatus::kNotAuthority, event.name());
  }
  event.authorizer_ = authorizer;
  event.authorizer_ctx_ = ctx;
}

void Dispatcher::SetEventAsync(EventBase& event, bool async,
                               const Module* requestor) {
  if (async && !AsyncEligible(event.sig())) {
    throw InstallError(InstallStatus::kAsyncByRef, event.name());
  }
  std::lock_guard<std::mutex> lock(mu_);
  CheckIsAuthorityOrAuthorized(event, AuthOp::kInstall, requestor, nullptr);
  event.async_event_.store(async, std::memory_order_release);
  RebuildLocked(event);  // direct mode must be disabled while async
}

void Dispatcher::RequireEphemeralHandlers(EventBase& event,
                                          uint64_t budget_ns,
                                          const Module* requestor) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckIsAuthorityOrAuthorized(event, AuthOp::kInstall, requestor, nullptr);
  event.require_ephemeral_ = true;
  event.ephemeral_budget_ns_ = budget_ns;
  RebuildLocked(event);
}

void Dispatcher::SetForceInterp(EventBase& event, bool force) {
  std::lock_guard<std::mutex> lock(mu_);
  event.force_interp_ = force;
  RebuildLocked(event);
}

void Dispatcher::EnableProfiling(bool enabled) {
  profiling_.store(enabled, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  for (EventBase* event : events_) {
    RebuildLocked(*event);  // profiling disables the direct-call bypass
  }
}

void Dispatcher::SetTracing(const obs::TraceConfig& config) {
  // The obs switch is process-global (the flight recorder is shared);
  // tracing_ scopes the table rebuilds to this dispatcher's events. Only
  // kFull suppresses the bypass and stubs — sampled capture keeps
  // production dispatch and trades per-handler records for a hot path
  // that stays hot.
  obs::SetTraceConfig(config);
  tracing_.store(config.mode == obs::TraceMode::kFull,
                 std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  for (EventBase* event : events_) {
    RebuildLocked(*event);
  }
}

void Dispatcher::EnableTracing(bool enabled) {
  obs::TraceConfig config = obs::GetTraceConfig();
  config.mode = enabled ? obs::TraceMode::kFull : obs::TraceMode::kOff;
  SetTracing(config);
}

std::vector<EventBase*> Dispatcher::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

Dispatcher::Stats Dispatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Dispatcher::RebuildLocked(EventBase& event) {
  auto table = std::make_unique<DispatchTable>();
  table->returns_value = event.sig().result.cls != TypeClass::kVoid;
  table->result_is_bool = event.sig().result.cls == TypeClass::kBool;
  table->policy = table->returns_value ? event.policy_ : ResultPolicy::kNone;
  table->custom_fold = event.custom_fold_;
  table->custom_fold_ctx = event.custom_fold_ctx_;
  table->default_handler = event.default_binding;
  table->ephemeral_budget_ns = event.ephemeral_budget_ns_;
  table->version = ++event.version_;

  AsyncBindingList async_bindings;
  for (const BindingHandle& binding : event.order_list) {
    if (!binding->active.load(std::memory_order_acquire)) {
      continue;
    }
    (binding->async ? async_bindings : table->sync_bindings)
        .push_back(binding);
  }
  if (!async_bindings.empty()) {
    table->async_bindings =
        std::make_shared<const AsyncBindingList>(std::move(async_bindings));
  }

  // --- D1: intrinsic-bypass direct call --------------------------------
  // The candidate is computed regardless of profiling/tracing so the table
  // can classify itself by production dispatch mode (obs_kind) even when
  // the bypass itself is suppressed for measurement fidelity.
  void* direct_candidate = nullptr;
  if (config_.allow_direct && !event.async_event() &&
      table->async_bindings == nullptr && table->sync_bindings.size() == 1 &&
      table->custom_fold == nullptr) {
    const Binding& only = *table->sync_bindings[0];
    if (only.fn != nullptr && !only.closure_form && !only.erased &&
        only.guards().empty() && only.byref_params.empty() &&
        !only.ephemeral) {
      direct_candidate = only.fn;
    }
  }
  void* direct = profiling() || tracing() ? nullptr : direct_candidate;

  // --- D3: runtime code generation --------------------------------------
  // Tracing also disables stubs: generated code dispatches handlers without
  // per-handler hooks, so a full-fidelity capture interprets instead.
  size_t num_args = event.sig().params.size();
  bool jitable = direct == nullptr && !tracing() && config_.enable_jit &&
                 !event.force_interp_ && codegen::CodegenAvailable() &&
                 SigJitable(event.sig()) && table->custom_fold == nullptr &&
                 !table->sync_bindings.empty();
  // Incremental installation: defer compilation until the event is hot.
  if (jitable && config_.lazy_compile && !event.hot_) {
    table->lazy_pending = true;
    jitable = false;
  }
  if (jitable) {
    for (const BindingHandle& binding : table->sync_bindings) {
      // Guarded by mu_; compiled micro bodies are cached on the clauses.
      auto& mutable_binding = const_cast<Binding&>(*binding);
      if (binding->ephemeral || binding->may_throw || binding->erased) {
        jitable = false;
        break;
      }
      CompileBodyIfNeeded(mutable_binding, config_.inline_micro);
      if (!CallableJitable(*binding, config_.inline_micro, num_args)) {
        jitable = false;
        break;
      }
      // Published guard clauses are read lock-free by EvalGuards' compiled
      // fast path, so missing JIT bodies are compiled into a copy of the
      // list and republished through the epoch; raises in flight keep
      // interpreting the retired list. A list that needs no body (every
      // list while micro guards are inlined) is left as published.
      const std::vector<GuardClause>& published = binding->guards();
      if (std::any_of(published.begin(), published.end(),
                      [&](const GuardClause& guard) {
                        return NeedsCompiledBody(guard,
                                                 config_.inline_micro);
                      })) {
        std::vector<GuardClause> guards = published;
        for (GuardClause& guard : guards) {
          CompileBodyIfNeeded(guard, config_.inline_micro);
        }
        ReplaceGuardsLocked(mutable_binding, std::move(guards));
      }
      for (const GuardClause& guard : binding->guards()) {
        if (!CallableJitable(guard, config_.inline_micro, num_args)) {
          jitable = false;
          break;
        }
      }
      if (!jitable) {
        break;
      }
    }
  }
  if (jitable) {
    codegen::StubSpec spec;
    spec.num_args = static_cast<int>(num_args);
    spec.policy = table->policy;
    spec.result_is_bool = table->result_is_bool;
    spec.inline_micro = config_.inline_micro;
    spec.optimize = config_.optimize;
    std::optional<TreePlan> tree_plan;
    if (config_.guard_tree &&
        table->sync_bindings.size() >= config_.guard_tree_threshold) {
      tree_plan = PlanGuardTree(table->sync_bindings);
    }
    for (size_t b = 0; b < table->sync_bindings.size(); ++b) {
      const BindingHandle& binding = table->sync_bindings[b];
      codegen::BindingSpec bspec;
      bspec.handler = MakeCallableSpec(*binding, config_.inline_micro);
      bspec.byref_params = binding->byref_params;
      const std::vector<GuardClause>& guards = binding->guards();
      std::vector<const GuardClause*> ordered;
      ordered.reserve(guards.size());
      for (size_t g = 0; g < guards.size(); ++g) {
        if (tree_plan.has_value() && tree_plan->matched_guard[b] == g) {
          continue;  // the decision tree subsumes this guard
        }
        ordered.push_back(&guards[g]);
      }
      if (config_.reorder_guards) {
        // D4: guards are FUNCTIONAL, so evaluation order is free; put
        // cheap inlinable guards first to short-circuit out-of-line calls.
        std::stable_sort(ordered.begin(), ordered.end(),
                         [](const GuardClause* a, const GuardClause* b) {
                           size_t ca = a->prog ? a->prog->Cost() : 1000;
                           size_t cb = b->prog ? b->prog->Cost() : 1000;
                           return ca < cb;
                         });
      }
      for (const GuardClause* guard : ordered) {
        bspec.guards.push_back(
            MakeCallableSpec(*guard, config_.inline_micro));
      }
      spec.bindings.push_back(std::move(bspec));
    }
    if (tree_plan.has_value()) {
      spec.tree = std::move(tree_plan->tree);
    }
    table->stub = codegen::CompileStub(spec);
    if (table->stub != nullptr) {
      ++stats_.stub_compiles;
      if (spec.tree.has_value()) {
        ++stats_.tree_tables;
      }
      table->obs_kind = spec.tree.has_value() ? obs::DispatchKind::kTree
                                              : obs::DispatchKind::kStub;
      obs::FlightRecorder::Global().Emit(obs::TraceKind::kStubCompile,
                                         event.obs_name_,
                                         table->stub->code_size());
    }
  }
  if (direct_candidate != nullptr) {
    // Even when profiling/tracing routes raises through a stub or the
    // interpreter, account them under the production dispatch kind.
    table->obs_kind = obs::DispatchKind::kDirect;
  } else if (table->stub == nullptr) {
    table->obs_kind = obs::DispatchKind::kInterp;
  }
  if (direct != nullptr) {
    ++stats_.direct_tables;
  } else if (table->stub == nullptr) {
    ++stats_.interp_tables;
  }
  ++stats_.rebuilds;
  obs::FlightRecorder::Global().Emit(obs::TraceKind::kRebuild,
                                     event.obs_name_, table->version);

  // Publish one replica per shard, each with a single store; old replicas
  // retire through the owning shard's epoch domain. The stub is compiled
  // once (above, for shard 0) and byte-copied for the other shards so every
  // shard's dispatch loop lives in its own executable pages.
  for (uint32_t s = 1; s < shard_count_; ++s) {
    auto replica = std::make_unique<DispatchTable>();
    replica->sync_bindings = table->sync_bindings;
    replica->async_bindings = table->async_bindings;
    replica->default_handler = table->default_handler;
    replica->policy = table->policy;
    replica->custom_fold = table->custom_fold;
    replica->custom_fold_ctx = table->custom_fold_ctx;
    replica->returns_value = table->returns_value;
    replica->result_is_bool = table->result_is_bool;
    replica->ephemeral_budget_ns = table->ephemeral_budget_ns;
    replica->shard = s;
    replica->lazy_pending = table->lazy_pending;
    replica->obs_kind = table->obs_kind;
    replica->version = table->version;
    if (table->stub != nullptr) {
      replica->stub = table->stub->Clone();
      if (replica->stub != nullptr) {
        ++stats_.stub_replicas;
      } else {
        // The platform refused another executable mapping; this shard
        // interprets the same bindings instead (semantically identical).
        replica->obs_kind = obs::DispatchKind::kInterp;
      }
    }
    DispatchTable* old = event.table_slot(s).exchange(
        replica.release(), std::memory_order_acq_rel);
    if (old != nullptr) {
      shards_[s].epoch->Retire(old, &DeleteTable);
    }
  }
  DispatchTable* old = event.table_.exchange(table.release(),
                                             std::memory_order_acq_rel);
  event.direct_fn_.store(direct, std::memory_order_release);
  if (old != nullptr) {
    epoch_->Retire(old, &DeleteTable);
  }
}

void Dispatcher::ExportMetricsSource(void* ctx, std::ostream& os) {
  auto* self = static_cast<Dispatcher*>(ctx);
  Stats stats = self->stats();
  auto line = [&os, self](const char* name, uint64_t value) {
    os << name << "{instance=\"" << self->instance_id_ << "\"} " << value
       << "\n";
  };
  line("spin_dispatcher_installs_total", stats.installs);
  line("spin_dispatcher_uninstalls_total", stats.uninstalls);
  line("spin_dispatcher_rebuilds_total", stats.rebuilds);
  line("spin_dispatcher_stub_compiles_total", stats.stub_compiles);
  line("spin_dispatcher_interp_tables_total", stats.interp_tables);
  line("spin_dispatcher_direct_tables_total", stats.direct_tables);
  line("spin_dispatcher_tree_tables_total", stats.tree_tables);
  line("spin_dispatcher_lazy_promotions_total", stats.lazy_promotions);
  line("spin_dispatcher_stub_replicas_total", stats.stub_replicas);
  line("spin_dispatcher_shards", self->shard_count_);
  // The pool and epoch domain may be process-global and shared between
  // dispatchers; the instance label keeps the series distinct regardless.
  // Aggregates stay unlabeled for dashboard continuity; per-shard series
  // add a `shard` label (the pool queue of the same index drains a shard's
  // async outbox, so pool queues are reported per shard).
  line("spin_pool_queue_depth", self->pool_->queue_depth());
  line("spin_pool_pending", self->pool_->pending());
  line("spin_pool_executed_total", self->pool_->executed());
  line("spin_pool_steals_total", self->pool_->steals());
  auto shard_line = [&os, self](const char* name, uint32_t shard,
                                uint64_t value) {
    os << name << "{instance=\"" << self->instance_id_ << "\",shard=\""
       << shard << "\"} " << value << "\n";
  };
  if (self->shard_count_ > 1) {
    size_t pool_queues = self->pool_->queues();
    for (uint32_t s = 0; s < self->shard_count_; ++s) {
      shard_line("spin_dispatcher_shard_raises_total", s,
                 self->shard_raises(s));
      if (s < pool_queues) {
        shard_line("spin_pool_queue_depth", s, self->pool_->queue_depth(s));
        shard_line("spin_pool_executed_total", s, self->pool_->executed(s));
        shard_line("spin_pool_steals_total", s, self->pool_->steals(s));
      }
    }
  }
  line("spin_epoch_current", self->epoch_->epoch());
  line("spin_epoch_retired", self->epoch_->retired_count());
  line("spin_epoch_reclaimed_total", self->epoch_->reclaimed_total());
  line("spin_quota_limit_bytes", self->quota_.limit());
  for (const auto& [module, used] : self->quota_.Snapshot()) {
    os << "spin_quota_used_bytes{instance=\"" << self->instance_id_
       << "\",module=\"";
    obs::WriteLabelValue(os, module);
    os << "\"} " << used << "\n";
  }
}

void Dispatcher::WatchdogProbeSource(void* ctx,
                                     std::vector<obs::WatchSample>& out) {
  auto* self = static_cast<Dispatcher*>(ctx);
  // One queue sample per shard outbox: depth is the backlog, executed the
  // progress counter the stall rule watches. Shards beyond the pool's
  // queue count alias earlier queues (SubmitTo wraps), so cap at both.
  size_t pool_queues = self->pool_->queues();
  for (uint32_t s = 0; s < self->shard_count_ && s < pool_queues; ++s) {
    obs::WatchSample queue;
    queue.kind = obs::AnomalyKind::kQueueStall;
    queue.name = self->watch_pool_name_;
    queue.shard = s;
    queue.depth = self->pool_->queue_depth(s);
    queue.progress = self->pool_->executed(s);
    out.push_back(queue);
  }
  for (uint32_t s = 0; s < self->shard_count_; ++s) {
    obs::WatchSample epoch;
    epoch.kind = obs::AnomalyKind::kEpochStall;
    epoch.name = self->watch_epoch_name_;
    epoch.shard = s;
    epoch.depth = self->shards_[s].epoch->retired_count();
    epoch.progress = self->shards_[s].epoch->reclaimed_total();
    out.push_back(epoch);
  }
}

}  // namespace spin
