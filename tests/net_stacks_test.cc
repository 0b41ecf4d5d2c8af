// Pluggable TCP stacks: registry, per-stack policy units over a mock
// driver, authorizer-gated selection, and hot-swap stream integrity.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/net/compress.h"
#include "src/net/host.h"
#include "src/net/stacks/tcp_stack.h"
#include "src/net/tcp.h"
#include "src/sim/simulator.h"

namespace spin {
namespace net {
namespace {

constexpr uint64_t kRto = 50'000'000;  // 50 ms

// Records every mechanical action a stack requests, no network attached.
class MockDriver : public TcpStackDriver {
 public:
  void SendNewSegment(TcpConn& conn, const std::string& payload) override {
    conn.flight.push_back(TcpSegment{
        next_seq_, payload, conn.sim != nullptr ? conn.sim->now_ns() : 0,
        1});
    conn.flight_bytes += payload.size();
    next_seq_ += static_cast<uint32_t>(payload.size());
    ++sent;
  }
  void Retransmit(TcpConn& conn, TcpSegment& segment) override {
    segment.sent_at_ns = conn.sim != nullptr ? conn.sim->now_ns() : 0;
    ++segment.transmissions;
    retransmitted.push_back(segment.seq);
  }
  void Abort(TcpConn&) override { aborted = true; }

  int sent = 0;
  std::vector<uint32_t> retransmitted;
  bool aborted = false;

 private:
  uint32_t next_seq_ = 0;
};

class StackUnitTest : public ::testing::Test {
 protected:
  StackUnitTest() {
    RegisterBuiltinTcpStacks();
    conn_.driver = &driver_;
    conn_.sim = &sim_;
    conn_.rto_ns = kRto;
  }

  std::unique_ptr<TcpStack> Bind(const std::string& name) {
    auto stack = TcpStackRegistry::Global().Create(name);
    EXPECT_NE(stack, nullptr);
    stack->OnBind(conn_);
    return stack;
  }

  // Appends `bytes` of application data and lets the stack pump it.
  void Offer(TcpStack& stack, size_t bytes) {
    conn_.pending.append(std::string(bytes, 'x'));
    stack.OnSendReady(conn_);
  }

  // Moves the virtual clock to `ns` (Run alone does not advance past the
  // last queued event).
  void AdvanceTo(uint64_t ns) {
    sim_.At(ns, [] {});
    sim_.Run();
  }

  sim::Simulator sim_;
  MockDriver driver_;
  TcpConn conn_;
};

TEST(StackRegistryTest, BuiltinsAreRegistered) {
  RegisterBuiltinTcpStacks();
  std::vector<std::string> names = TcpStackRegistry::Global().Names();
  for (const char* expected : {"stop_and_wait", "reno", "rack_lite"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  auto stack = TcpStackRegistry::Global().Create("reno");
  ASSERT_NE(stack, nullptr);
  EXPECT_STREQ(stack->name(), "reno");
  EXPECT_EQ(TcpStackRegistry::Global().Create("cubic"), nullptr);
}

TEST_F(StackUnitTest, StopAndWaitSendsUnlimitedAndRetransmitsWholeFlight) {
  auto stack = Bind("stop_and_wait");
  Offer(*stack, 10 * kTcpMss);
  EXPECT_EQ(driver_.sent, 10) << "no congestion window: all segments go";
  stack->OnTimer(conn_, sim_.now_ns());
  EXPECT_EQ(driver_.retransmitted.size(), 10u) << "go-back-N on RTO";
  EXPECT_EQ(conn_.backoff, 1u);
}

TEST_F(StackUnitTest, StopAndWaitBacksOffExponentiallyThenAborts) {
  auto stack = Bind("stop_and_wait");
  conn_.max_retries = 3;
  Offer(*stack, 100);
  uint64_t previous_gap = 0;
  for (uint32_t round = 1; round <= 3; ++round) {
    stack->OnTimer(conn_, sim_.now_ns());
    ASSERT_FALSE(driver_.aborted);
    uint64_t gap = conn_.timer_deadline_ns - sim_.now_ns();
    EXPECT_GT(gap, previous_gap) << "deadline must back off each round";
    previous_gap = gap;
  }
  stack->OnTimer(conn_, sim_.now_ns());
  EXPECT_TRUE(driver_.aborted) << "retry budget exhausted";
}

TEST_F(StackUnitTest, AckResetsBackoffAndClearsFlight) {
  auto stack = Bind("stop_and_wait");
  Offer(*stack, 2 * kTcpMss);
  stack->OnTimer(conn_, sim_.now_ns());
  EXPECT_EQ(conn_.backoff, 1u);
  stack->OnAck(conn_, static_cast<uint32_t>(2 * kTcpMss));
  EXPECT_EQ(conn_.backoff, 0u);
  EXPECT_TRUE(conn_.flight.empty());
  EXPECT_EQ(conn_.timer_deadline_ns, 0u) << "nothing in flight: timer idle";
}

TEST_F(StackUnitTest, RenoRespectsInitialWindow) {
  auto stack = Bind("reno");
  EXPECT_EQ(conn_.cwnd_bytes, 10 * kTcpMss);
  Offer(*stack, 40 * kTcpMss);
  EXPECT_EQ(driver_.sent, 10) << "initial window caps the first flight";
}

TEST_F(StackUnitTest, RenoSlowStartThenCongestionAvoidance) {
  auto stack = Bind("reno");
  Offer(*stack, 40 * kTcpMss);
  size_t before = conn_.cwnd_bytes;
  stack->OnAck(conn_, static_cast<uint32_t>(4 * kTcpMss));
  EXPECT_EQ(conn_.cwnd_bytes, before + 4 * kTcpMss)
      << "slow start grows cwnd by bytes acked";
  // Force congestion avoidance: ssthresh below cwnd.
  conn_.ssthresh_bytes = conn_.cwnd_bytes / 2;
  before = conn_.cwnd_bytes;
  stack->OnAck(conn_, static_cast<uint32_t>(8 * kTcpMss));
  EXPECT_LE(conn_.cwnd_bytes - before, kTcpMss)
      << "congestion avoidance grows at most ~MSS per ACK";
}

TEST_F(StackUnitTest, RenoFastRetransmitOnThirdDupAck) {
  auto stack = Bind("reno");
  Offer(*stack, 8 * kTcpMss);
  ASSERT_EQ(driver_.sent, 8);
  size_t window_before = conn_.cwnd_bytes;
  stack->OnAck(conn_, 0);
  stack->OnAck(conn_, 0);
  EXPECT_TRUE(driver_.retransmitted.empty()) << "two dup-ACKs: hold fire";
  stack->OnAck(conn_, 0);
  EXPECT_EQ(driver_.retransmitted.size(), 8u)
      << "third dup-ACK resends the flight (go-back-N, no SACK)";
  EXPECT_TRUE(conn_.in_recovery);
  EXPECT_LT(conn_.cwnd_bytes, window_before) << "window halves on loss";
  size_t resent_before = driver_.retransmitted.size();
  stack->OnAck(conn_, 0);
  stack->OnAck(conn_, 0);
  stack->OnAck(conn_, 0);
  EXPECT_EQ(driver_.retransmitted.size(), resent_before)
      << "one retransmission burst per recovery episode";
}

TEST_F(StackUnitTest, RenoRtoCollapsesWindowAndResendsFlight) {
  auto stack = Bind("reno");
  Offer(*stack, 6 * kTcpMss);
  stack->OnTimer(conn_, sim_.now_ns());
  EXPECT_EQ(conn_.cwnd_bytes, kTcpMss) << "RTO restarts slow start";
  EXPECT_EQ(driver_.retransmitted.size(), 6u)
      << "receiver holds no out-of-order data: the whole flight goes again";
}

TEST_F(StackUnitTest, RackToleratesReorderingWithinWindow) {
  auto stack = Bind("rack_lite");
  Offer(*stack, 4 * kTcpMss);
  // Dup-ACKs arrive immediately — before reo_wnd (rto/8) has elapsed
  // since the front segment's transmission. RACK must hold fire where
  // reno would already have retransmitted.
  stack->OnAck(conn_, 0);
  stack->OnAck(conn_, 0);
  stack->OnAck(conn_, 0);
  EXPECT_TRUE(driver_.retransmitted.empty())
      << "reordering tolerance: no retransmit inside reo_wnd";
  // Past the reordering window the same dup-ACK evidence means loss.
  AdvanceTo(kRto / 8 + 1);
  stack->OnAck(conn_, 0);
  stack->OnAck(conn_, 0);
  EXPECT_EQ(driver_.retransmitted.size(), 4u)
      << "dup-ACKs beyond reo_wnd repair the flight";
}

TEST_F(StackUnitTest, RackDetectsLossByDeliveryTimeOrder) {
  auto stack = Bind("rack_lite");
  Offer(*stack, 2 * kTcpMss);  // s1 and s2, both sent at t=0
  // s1 is repaired by a later retransmission while s2's original remains
  // outstanding: restamp s1 well past reo_wnd, as the RTO path would.
  AdvanceTo(kRto);
  driver_.Retransmit(conn_, conn_.flight.front());
  driver_.retransmitted.clear();
  // The ACK for the repaired s1 carries a send timestamp newer than
  // s2's by a full RTO — time order, not dup-ACK count, convicts s2.
  stack->OnAck(conn_, static_cast<uint32_t>(kTcpMss));
  ASSERT_FALSE(driver_.retransmitted.empty());
  EXPECT_EQ(driver_.retransmitted.back(), kTcpMss)
      << "the stale in-flight segment is resent";
  EXPECT_TRUE(conn_.in_recovery);
}

TEST_F(StackUnitTest, RackRtoCollapsesWindowAndResendsFlight) {
  auto stack = Bind("rack_lite");
  Offer(*stack, 5 * kTcpMss);
  stack->OnTimer(conn_, sim_.now_ns());
  EXPECT_EQ(conn_.cwnd_bytes, kTcpMss);
  EXPECT_EQ(driver_.retransmitted.size(), 5u);
}

TEST_F(StackUnitTest, HotSwapAdoptsWindowState) {
  auto reno = Bind("reno");
  Offer(*reno, 20 * kTcpMss);
  reno->OnAck(conn_, static_cast<uint32_t>(10 * kTcpMss));  // slow start
  size_t window = conn_.cwnd_bytes;
  ASSERT_GT(window, 10 * kTcpMss) << "precondition: window grew";
  auto rack = Bind("rack_lite");
  EXPECT_EQ(conn_.cwnd_bytes, window)
      << "a hot-swap adopts the incumbent's window, no restart";
}

// --- Endpoints over a wire: selection policy and swap integrity ------------

// Deterministic position-derived pattern: catches reordering, duplication,
// and holes anywhere in a delivered stream.
std::string Pattern(size_t offset, size_t n) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('A' + (offset + i) % 31);
  }
  return s;
}

class StackWireTest : public ::testing::Test {
 protected:
  StackWireTest() { wire_.Attach(a_, b_); }

  Dispatcher dispatcher_;
  sim::Simulator sim_;
  Wire wire_{&sim_, sim::LinkModel{}};
  Host a_{"hostA", 0x0a000001, &dispatcher_};
  Host b_{"hostB", 0x0a000002, &dispatcher_};
};

TEST_F(StackWireTest, EnableRetransmitBindsStopAndWait) {
  TcpEndpoint client(a_, 5555);
  client.EnableRetransmit(&sim_, kRto);
  EXPECT_EQ(client.stack_name(), "stop_and_wait");
}

TEST_F(StackWireTest, AuthorizerDeniesInstallOffTheAllowList) {
  StackAuthorizer authorizer({"reno", "rack_lite"});
  authorizer.Attach(a_);
  TcpEndpoint client(a_, 5555);
  EXPECT_FALSE(client.UseStack(&sim_, "stop_and_wait", kRto));
  EXPECT_EQ(client.stack_name(), "");
  EXPECT_EQ(authorizer.denied(), 1u)
      << "one denial: the first install attempt is rejected outright";
  EXPECT_TRUE(client.UseStack(&sim_, "reno", kRto));
  EXPECT_EQ(client.stack_name(), "reno");
  EXPECT_GE(authorizer.granted(), 1u);
}

TEST_F(StackWireTest, StackHandlersInstallWithTheirGuardsInOneRebuild) {
  // Each stack handler arrives with its connection guard: one rebuild per
  // install, none for a separate guard step.
  uint64_t rebuilds = dispatcher_.stats().rebuilds;
  TcpEndpoint client(a_, 5555);
  ASSERT_TRUE(client.UseStack(&sim_, "reno", kRto));
  EXPECT_EQ(dispatcher_.stats().rebuilds - rebuilds, 4u)
      << "the port-guarded input handler plus three stack handlers";
  rebuilds = dispatcher_.stats().rebuilds;
  ASSERT_TRUE(client.UseStack(&sim_, "rack_lite", kRto));
  EXPECT_EQ(dispatcher_.stats().rebuilds - rebuilds, 6u)
      << "three guarded installs plus three uninstalls of the old stack";
}

TEST_F(StackWireTest, UnknownStackNameRejectedWithoutSideEffects) {
  TcpEndpoint client(a_, 5555);
  ASSERT_TRUE(client.UseStack(&sim_, "reno", kRto));
  EXPECT_FALSE(client.UseStack(&sim_, "no_such_stack", kRto));
  EXPECT_EQ(client.stack_name(), "reno") << "incumbent keeps serving";
}

// The PR's acceptance gate: a mid-run authorized hot-swap plus one denied
// swap, under loss, without dropping or reordering a single delivered
// byte on the connection.
TEST_F(StackWireTest, HotSwapUnderLossPreservesByteStream) {
  StackAuthorizer authorizer({"reno", "rack_lite"});
  authorizer.Attach(a_);
  authorizer.Attach(b_);

  std::string delivered;
  TcpEndpoint server(b_, 80);
  server.Listen([&](const std::string& chunk) { delivered += chunk; });
  TcpEndpoint client(a_, 5555);
  ASSERT_TRUE(client.UseStack(&sim_, "reno", kRto));
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());

  wire_.SetRandomLoss(0.05, /*seed=*/1234);
  std::string page = Pattern(0, 256 * 1024);
  client.Send(page);

  // While the transfer is in flight: one granted swap, one denied swap.
  bool swapped = false;
  bool denied = false;
  sim_.After(5'000'000, [&] {
    swapped = client.UseStack(&sim_, "rack_lite", kRto);
  });
  sim_.After(10'000'000, [&] {
    denied = !client.UseStack(&sim_, "stop_and_wait", kRto);
  });
  sim_.Run();

  EXPECT_TRUE(swapped) << "rack_lite is on the allow list";
  EXPECT_TRUE(denied) << "stop_and_wait is not";
  EXPECT_EQ(client.stack_name(), "rack_lite")
      << "denied swap leaves the incumbent bound";
  ASSERT_EQ(delivered.size(), page.size());
  EXPECT_EQ(delivered, page)
      << "no byte dropped, duplicated, or reordered across the swaps";
  EXPECT_GT(wire_.frames_lost(), 0u) << "the wire really was lossy";
}

TEST_F(StackWireTest, CompressionComposesWithEveryStack) {
  RegisterBuiltinTcpStacks();
  for (const std::string& name : TcpStackRegistry::Global().Names()) {
    Dispatcher dispatcher;
    sim::Simulator sim;
    Wire wire(&sim, sim::LinkModel{});
    Host a("a-" + name, 0x0a000001, &dispatcher);
    Host b("b-" + name, 0x0a000002, &dispatcher);
    wire.Attach(a, b);
    CompressionExtension compression(a, b);

    std::string delivered;
    TcpEndpoint server(b, 80);
    server.Listen([&](const std::string& chunk) { delivered += chunk; });
    TcpEndpoint client(a, 5555);
    ASSERT_TRUE(client.UseStack(&sim, name, kRto));
    client.Connect(b.ip(), 80, nullptr);
    sim.Run();
    ASSERT_TRUE(client.established()) << name;

    wire.SetLossPattern(13);
    std::string page(40 * 1024, 'Z');  // run-heavy: compresses hard
    client.Send(page);
    sim.Run();
    EXPECT_EQ(delivered, page) << name;
    EXPECT_GT(compression.compressed(), 0u) << name;
    // Frames dropped by the wire are compressed but never decompressed,
    // so under loss the counters need not match exactly.
    EXPECT_GT(compression.decompressed(), 0u) << name;
    EXPECT_LE(compression.decompressed(), compression.compressed()) << name;
  }
}

TEST_F(StackWireTest, RetryExhaustionAbortsToDeadState) {
  TcpEndpoint server(b_, 80);
  server.Listen(nullptr);
  TcpEndpoint client(a_, 5555);
  ASSERT_TRUE(client.UseStack(&sim_, "reno", /*rto_ns=*/1'000'000));
  client.SetMaxRetries(3);
  client.Connect(b_.ip(), 80, nullptr);
  sim_.Run();
  ASSERT_TRUE(client.established());

  // Black-hole the wire for far longer than the full backoff schedule.
  wire_.SetPartition(sim_.now_ns(), sim_.now_ns() + 3'600'000'000'000ull);
  client.Send("doomed");
  sim_.Run();
  EXPECT_TRUE(client.dead()) << "retry budget exhausted surfaces as kDead";
  EXPECT_EQ(client.state(), TcpEndpoint::State::kDead);
}

}  // namespace
}  // namespace net
}  // namespace spin
