// Heap allocations on the remote round trip. Once warm, a sync remote raise
// — proxy marshal, wire, exporter dispatch, reply — calls operator new zero
// times, for a scalar and for a VAR signature; re-interning a known name
// allocates nothing either.
//
// The binary replaces the global operator new with one that counts the
// calls made on the test thread while a measurement is armed. Every part of
// a sync raise runs on that thread: the proxy pumps the simulator inline,
// so the exporter's dispatch and both deliveries happen inside the raise.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "src/core/dispatcher.h"
#include "src/net/host.h"
#include "src/obs/obs.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"

namespace {

thread_local bool t_counting = false;
thread_local uint64_t t_news = 0;

// Every replaceable operator new form lands here, so no allocation escapes
// the count and every block is freed by the matching std::free.
void* CountedAlloc(std::size_t size, std::size_t align) {
  if (t_counting) {
    ++t_news;
  }
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size, static_cast<std::size_t>(align));
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t& tag) noexcept {
  return operator new(size, align, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace spin {
namespace remote {
namespace {

// operator new calls `fn` makes on this thread.
template <typename Fn>
uint64_t NewsDuring(Fn&& fn) {
  t_news = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_news;
}

uint64_t ServeScalar(uint64_t a, uint64_t b) { return a * 31 + b; }
uint64_t ServeVar(uint64_t a, uint64_t& v) {
  v = v * 3 + a;
  return v ^ a;
}

constexpr size_t kWarmRaises = Exporter::kDedupWindow + 64;
constexpr size_t kCountedRaises = 1000;

class RemoteAllocTest : public ::testing::Test {
 protected:
  RemoteAllocTest() {
    wire_.Attach(client_host_, server_host_);
    dispatcher_.InstallHandler(server_scalar_, &ServeScalar);
    dispatcher_.InstallHandler(server_var_, &ServeVar);
    exporter_.Export(server_scalar_);
    exporter_.Export(server_var_);
    scalar_proxy_ = std::make_unique<EventProxy>(client_host_, &sim_,
                                                 client_scalar_, Opts(9501));
    var_proxy_ = std::make_unique<EventProxy>(client_host_, &sim_,
                                              client_var_, Opts(9502));
  }
  ~RemoteAllocTest() override { obs::SetTraceConfig({}); }

  ProxyOptions Opts(uint16_t local_port) {
    ProxyOptions opts;
    opts.remote_ip = server_host_.ip();
    opts.local_port = local_port;
    return opts;
  }

  // Raises `n` times through the scalar proxy; counts wrong results.
  void RaiseScalar(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t a = i + 1;
      wrong_ += client_scalar_.Raise(a, 7) != a * 31 + 7 ? 1 : 0;
    }
  }
  void RaiseVar(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t a = i + 1;
      uint64_t v = 5;
      uint64_t result = client_var_.Raise(a, v);
      wrong_ += v != 15 + a || result != (v ^ a) ? 1 : 0;
    }
  }

  Dispatcher dispatcher_;
  sim::Simulator sim_;
  net::Wire wire_{&sim_, sim::LinkModel{}};
  net::Host client_host_{"alloc-client", 0x0a000301, &dispatcher_};
  net::Host server_host_{"alloc-server", 0x0a000302, &dispatcher_};
  Exporter exporter_{server_host_};
  Event<uint64_t(uint64_t, uint64_t)> server_scalar_{
      "Alloc.Scalar", nullptr, nullptr, &dispatcher_};
  Event<uint64_t(uint64_t, uint64_t&)> server_var_{"Alloc.Var", nullptr,
                                                   nullptr, &dispatcher_};
  Event<uint64_t(uint64_t, uint64_t)> client_scalar_{
      "Alloc.Scalar", nullptr, nullptr, &dispatcher_};
  Event<uint64_t(uint64_t, uint64_t&)> client_var_{"Alloc.Var", nullptr,
                                                   nullptr, &dispatcher_};
  std::unique_ptr<EventProxy> scalar_proxy_;
  std::unique_ptr<EventProxy> var_proxy_;
  uint64_t wrong_ = 0;
};

void Report(const char* what, uint64_t news, size_t raises) {
  std::printf("%s: %llu operator new calls over %zu raises (%.3f per raise)\n",
              what, static_cast<unsigned long long>(news), raises,
              static_cast<double>(news) / static_cast<double>(raises));
}

TEST_F(RemoteAllocTest, WarmScalarRaiseAllocatesNothing) {
  obs::SetTraceConfig({obs::TraceMode::kOff, 1});
  RaiseScalar(kWarmRaises);
  uint64_t news = NewsDuring([this] { RaiseScalar(kCountedRaises); });
  Report("scalar, tracing off", news, kCountedRaises);
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(wrong_, 0u);
  EXPECT_EQ(scalar_proxy_->retries(), 0u);
}

TEST_F(RemoteAllocTest, WarmVarRaiseAllocatesNothing) {
  obs::SetTraceConfig({obs::TraceMode::kOff, 1});
  RaiseVar(kWarmRaises);
  uint64_t news = NewsDuring([this] { RaiseVar(kCountedRaises); });
  Report("VAR, tracing off", news, kCountedRaises);
  EXPECT_EQ(news, 0u);
  EXPECT_EQ(wrong_, 0u);
  EXPECT_EQ(var_proxy_->retries(), 0u);
}

// Sampled tracing at 1 in 64, as the benchmark's remote windows run. Only
// reported: a sampled-in raise writes trace records, and the count shows
// what that costs in allocations.
TEST_F(RemoteAllocTest, SampledTracingAllocationsAreReported) {
  obs::SetTraceConfig({obs::TraceMode::kSampled, 64});
  RaiseScalar(kWarmRaises);
  RaiseVar(kWarmRaises);
  uint64_t scalar = NewsDuring([this] { RaiseScalar(kCountedRaises); });
  uint64_t var = NewsDuring([this] { RaiseVar(kCountedRaises); });
  Report("scalar, sampled 1/64", scalar, kCountedRaises);
  Report("VAR, sampled 1/64", var, kCountedRaises);
  RecordProperty("sampled_scalar_news", std::to_string(scalar));
  RecordProperty("sampled_var_news", std::to_string(var));
  EXPECT_EQ(wrong_, 0u);
}

TEST(InternAllocTest, ReinterningAKnownNameAllocatesNothing) {
  const std::string name = "Remote.Alloc.InternedNameLongerThanSso";
  ASSERT_GE(name.size(), 16u);
  const char* first = obs::Intern(name);
  const std::string copy = name;  // a different buffer, same bytes
  const char* again = nullptr;
  uint64_t news = NewsDuring([&] { again = obs::Intern(copy); });
  EXPECT_EQ(again, first);
  EXPECT_EQ(news, 0u);
}

}  // namespace
}  // namespace remote
}  // namespace spin
