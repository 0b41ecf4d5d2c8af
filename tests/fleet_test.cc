// Fleet macro-workload driver: establishment at scale, per-stack loss
// recovery (throughput at 5% loss), failure surfacing, and
// hot-swap integrity across a whole fleet.
#include <gtest/gtest.h>

#include <string>

#include "src/core/dispatcher.h"
#include "src/fleet/fleet.h"

namespace spin {
namespace fleet {
namespace {

FleetOptions SmallFleet() {
  FleetOptions options;
  options.pairs = 4;
  options.conns_per_pair = 2;
  options.duration_ns = 500'000'000;
  options.request_interval_ns = 50'000'000;
  return options;
}

TEST(FleetTest, CleanFleetEstablishesAndDelivers) {
  Dispatcher dispatcher;
  Fleet fleet(&dispatcher, SmallFleet());
  FleetReport report = fleet.Run();
  EXPECT_EQ(report.hosts, 8u);
  EXPECT_EQ(report.connections, 8u);
  EXPECT_EQ(report.established, 8u);
  EXPECT_EQ(report.dead, 0u);
  EXPECT_GT(report.requests_sent, 0u);
  EXPECT_GT(report.responses_delivered, 0u);
  EXPECT_TRUE(report.streams_intact);
  EXPECT_EQ(report.retransmissions, 0u) << "no loss configured";
  EXPECT_GT(report.latency_p50_ns, 0u);
}

uint64_t DeliveredWith(const std::string& stack, double loss) {
  Dispatcher dispatcher;
  FleetOptions options;
  options.pairs = 10;
  options.conns_per_pair = 5;
  options.stack = stack;
  options.loss = loss;
  options.seed = 42;
  options.duration_ns = 1'000'000'000;
  Fleet fleet(&dispatcher, options);
  FleetReport report = fleet.Run();
  EXPECT_TRUE(report.streams_intact) << stack;
  return report.responses_delivered;
}

// The PR's throughput acceptance: at 5% loss, both feedback-driven stacks
// beat stop_and_wait's RTO-only recovery on delivered responses. The
// seeded loss streams make the comparison exactly reproducible.
TEST(FleetTest, RenoAndRackBeatStopAndWaitAtFivePercentLoss) {
  uint64_t baseline = DeliveredWith("stop_and_wait", 0.05);
  uint64_t reno = DeliveredWith("reno", 0.05);
  uint64_t rack = DeliveredWith("rack_lite", 0.05);
  EXPECT_GT(reno, baseline)
      << "fast retransmit must recover faster than a full RTO";
  EXPECT_GT(rack, baseline)
      << "time-ordered detection must recover faster than a full RTO";
}

TEST(FleetTest, TotalLossSurfacesDeadConnections) {
  Dispatcher dispatcher;
  FleetOptions options = SmallFleet();
  options.loss = 1.0;  // nothing survives the wire
  options.rto_ns = 1'000'000;
  options.max_retries = 3;
  Fleet fleet(&dispatcher, options);
  FleetReport report = fleet.Run();
  EXPECT_EQ(report.established, 0u);
  EXPECT_EQ(report.dead, report.connections)
      << "exhausted handshakes must be reported, not silently stuck";
  EXPECT_EQ(report.responses_delivered, 0u);
}

TEST(FleetTest, MidRunSwapKeepsEveryStreamIntact) {
  Dispatcher dispatcher;
  FleetOptions options = SmallFleet();
  options.stack = "reno";
  options.loss = 0.02;
  options.allowed_stacks = {"reno", "rack_lite"};
  Fleet fleet(&dispatcher, options);
  fleet.ScheduleSwap(options.duration_ns / 2, "rack_lite");
  fleet.ScheduleSwap(options.duration_ns / 2 + 1, "stop_and_wait");
  FleetReport report = fleet.Run();
  EXPECT_EQ(report.swaps_granted, 2 * report.connections)
      << "rack_lite swap granted on both endpoints of every connection";
  EXPECT_EQ(report.swaps_denied, 2 * report.connections)
      << "stop_and_wait swap denied everywhere";
  EXPECT_EQ(report.dead, 0u);
  EXPECT_TRUE(report.streams_intact)
      << "no byte dropped or reordered across the fleet-wide swap";
  EXPECT_GT(report.responses_delivered, 0u);
}

TEST(FleetTest, ReportJsonCarriesTheRow) {
  FleetOptions options;
  options.stack = "reno";
  options.loss = 0.05;
  FleetReport report;
  report.hosts = 200;
  report.connections = 2000;
  report.responses_delivered = 123;
  std::string json = ReportJson(options, report);
  EXPECT_NE(json.find("\"stack\": \"reno\""), std::string::npos);
  EXPECT_NE(json.find("\"loss\": 0.05"), std::string::npos);
  EXPECT_NE(json.find("\"connections\": 2000"), std::string::npos);
  EXPECT_NE(json.find("\"responses\": 123"), std::string::npos);
}

}  // namespace
}  // namespace fleet
}  // namespace spin
