// Regression test pinning the exporter's replay cache to a FIFO window of
// exactly Exporter::kDedupWindow (1024) entries.
//
// The at-most-once guarantee rests on this window: a retransmission whose
// original arrived must replay the cached reply byte-for-byte instead of
// re-raising the event, and the window must hold exactly 1024 entries —
// one fewer and a retry budget that fits today silently re-executes
// tomorrow; one more and the memory bound lies. The test speaks the wire
// protocol directly (raw UDP, hand-encoded frames) so request ids are
// under its control, walks the cache to its exact capacity, and probes
// both boundaries:
//
//   * an id that is the 1024th-newest entry still dedups (window >= 1024);
//   * the id just pushed out re-executes the handler (window <= 1024).
//
// Bind replies share the same cache (a retransmitted BindRequest must
// replay the same token), so the bind entry is part of the accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "src/net/host.h"
#include "src/remote/exporter.h"
#include "src/remote/proxy.h"
#include "src/sim/simulator.h"
#include "tests/eager_config.h"

namespace spin {
namespace remote {
namespace {

struct ExecCtx {
  std::map<uint64_t, int> counts;  // raise arg -> handler executions
};

uint64_t CacheHandler(ExecCtx* ctx, uint64_t v) {
  ++ctx->counts[v];
  return v + 1;
}

class ReplayCacheTest : public ::testing::Test {
 protected:
  ReplayCacheTest() {
    wire_.Attach(client_host_, server_host_);
    raw_ = std::make_unique<net::UdpSocket>(
        client_host_, 9401,
        [this](const net::Packet& p) { last_reply_ = p.UdpPayload(); });
  }

  // Sends one hand-encoded frame to the exporter and drains the simulator;
  // last_reply_ holds whatever came back.
  void Send(const std::string& frame) {
    last_reply_.clear();
    raw_->SendTo(server_host_.ip(), kDefaultRemotePort, frame);
    sim_.Run();
  }

  std::string Request(uint64_t id, uint64_t token, uint64_t arg) {
    RequestMsg req;
    req.kind = RaiseKind::kSync;
    req.request_id = id;
    req.token = token;
    req.event_name = "Cache.Op";
    req.params = {WireParam{static_cast<uint8_t>(TypeClass::kUInt64), false}};
    req.args = {arg};
    return EncodeRequest(req);
  }

  Dispatcher dispatcher_{EagerConfig()};
  sim::Simulator sim_;
  net::Wire wire_{&sim_, sim::LinkModel{}};
  net::Host client_host_{"client", 0x0a000001, &dispatcher_};
  net::Host server_host_{"server", 0x0a000002, &dispatcher_};
  Exporter exporter_{server_host_};
  std::unique_ptr<net::UdpSocket> raw_;
  std::string last_reply_;
};

TEST_F(ReplayCacheTest, FifoEvictsAtExactlyTheDedupWindow) {
  static_assert(Exporter::kDedupWindow == 1024,
                "this test pins the documented window size");

  Event<uint64_t(uint64_t)> event("Cache.Op", nullptr, nullptr, &dispatcher_);
  ExecCtx exec;
  dispatcher_.InstallHandler(event, &CacheHandler, &exec);
  exporter_.Export(event);

  // Bind by hand to get a capability token. The cached BindReply is cache
  // entry #1.
  BindRequestMsg bind;
  bind.bind_id = 0xb1dull;
  bind.event_name = "Cache.Op";
  bind.module_name = "Raw.Cache.Client";
  bind.params = {WireParam{static_cast<uint8_t>(TypeClass::kUInt64), false}};
  const std::string bind_frame = EncodeBindRequest(bind);
  Send(bind_frame);
  BindReplyMsg granted;
  ASSERT_TRUE(DecodeBindReply(last_reply_, &granted));
  ASSERT_EQ(granted.status, WireStatus::kOk);
  const uint64_t token = granted.token;
  ASSERT_NE(token, 0u);
  EXPECT_EQ(exporter_.binds(), 1u);

  // Fill the cache to exactly its capacity: the bind entry plus request
  // ids 1..1023. Every request executes once.
  std::string first_reply_for_id1;
  for (uint64_t id = 1; id <= 1023; ++id) {
    Send(Request(id, token, id));
    ReplyMsg reply;
    ASSERT_TRUE(DecodeReply(last_reply_, &reply)) << "id " << id;
    ASSERT_EQ(reply.status, WireStatus::kOk) << "id " << id;
    ASSERT_EQ(reply.result, id + 1) << "id " << id;
    if (id == 1) {
      first_reply_for_id1 = last_reply_;
    }
  }
  EXPECT_EQ(exec.counts.size(), 1023u);

  // Window full, nothing evicted yet: a retransmission of id 1 replays the
  // cached reply byte-for-byte and does not re-execute.
  Send(Request(1, token, 1));
  EXPECT_EQ(last_reply_, first_reply_for_id1)
      << "a dedup hit must replay the identical reply bytes";
  EXPECT_EQ(exec.counts[1], 1);
  EXPECT_EQ(exporter_.dedup_hits(), 1u);

  // Entry #1025 (request id 1024) pushes out the oldest entry — the bind
  // reply, not id 1. Raise dedup must survive that.
  Send(Request(1024, token, 1024));
  Send(Request(1, token, 1));
  EXPECT_EQ(last_reply_, first_reply_for_id1)
      << "id 1 is the 1024th-newest entry: still inside the window";
  EXPECT_EQ(exec.counts[1], 1);
  EXPECT_EQ(exporter_.dedup_hits(), 2u);

  // Entry #1026 (request id 1025) evicts id 1. Probe the surviving
  // boundary first: id 2 is now the oldest cached entry and must still
  // dedup — if the window held 1023 entries, this re-executes.
  Send(Request(1025, token, 1025));
  Send(Request(2, token, 2));
  EXPECT_EQ(exec.counts[2], 1)
      << "the 1024th-newest entry fell out: window is narrower than 1024";
  EXPECT_EQ(exporter_.dedup_hits(), 3u);

  // And the evicted boundary: id 1 is gone, so its retransmission
  // re-executes — if the window held 1025 entries, this dedups.
  Send(Request(1, token, 1));
  EXPECT_EQ(exec.counts[1], 2)
      << "an entry past the window must have been evicted: window is wider "
         "than 1024";
  EXPECT_EQ(exporter_.dedup_hits(), 3u);
  ReplyMsg re_executed;
  ASSERT_TRUE(DecodeReply(last_reply_, &re_executed));
  EXPECT_EQ(re_executed.status, WireStatus::kOk);
  EXPECT_EQ(re_executed.result, 2u);

  // The bind entry was evicted back at entry #1025, so retransmitting the
  // original BindRequest re-runs the handshake and mints a fresh token
  // (the old capability stays valid — revocation, not eviction, kills it).
  Send(bind_frame);
  BindReplyMsg rebound;
  ASSERT_TRUE(DecodeBindReply(last_reply_, &rebound));
  EXPECT_EQ(rebound.status, WireStatus::kOk);
  EXPECT_NE(rebound.token, token)
      << "an evicted bind entry cannot replay the old token";
  EXPECT_EQ(exporter_.binds(), 2u);

  // Total executions account for every non-dedup'd delivery exactly once.
  uint64_t executed = 0;
  for (const auto& [arg, count] : exec.counts) {
    executed += static_cast<uint64_t>(count);
  }
  EXPECT_EQ(executed, 1025u + 1u);  // ids 1..1025, plus the re-run of id 1
}

// A duplicated BindRequest inside the window replays the same token — the
// proxy's retransmitted handshake must not mint a second capability.
TEST_F(ReplayCacheTest, BindRetransmissionInsideWindowReplaysTheSameToken) {
  Event<uint64_t(uint64_t)> event("Cache.Op", nullptr, nullptr, &dispatcher_);
  ExecCtx exec;
  dispatcher_.InstallHandler(event, &CacheHandler, &exec);
  exporter_.Export(event);

  BindRequestMsg bind;
  bind.bind_id = 0x5eedull;
  bind.event_name = "Cache.Op";
  bind.module_name = "Raw.Cache.Client";
  bind.params = {WireParam{static_cast<uint8_t>(TypeClass::kUInt64), false}};
  const std::string frame = EncodeBindRequest(bind);

  Send(frame);
  BindReplyMsg first;
  ASSERT_TRUE(DecodeBindReply(last_reply_, &first));
  ASSERT_EQ(first.status, WireStatus::kOk);

  Send(frame);
  BindReplyMsg second;
  ASSERT_TRUE(DecodeBindReply(last_reply_, &second));
  EXPECT_EQ(second.token, first.token)
      << "a retransmitted bind must replay, not re-mint";
  EXPECT_EQ(exporter_.binds(), 1u);
  EXPECT_EQ(exporter_.dedup_hits(), 1u);
  EXPECT_EQ(exporter_.bound_clients(), 1u);
}

}  // namespace
}  // namespace remote
}  // namespace spin
