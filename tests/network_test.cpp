// Unit tests for the simulated cluster network.
#include "net/network.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "sim/simulator.h"

namespace hoplite::net {
namespace {

ClusterConfig TestConfig(int nodes) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.nic_bandwidth = Gbps(10);
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;  // keep arithmetic exact in tests
  cfg.memcpy_bandwidth = GBps(10);
  cfg.failure_detection_delay = Milliseconds(100);
  return cfg;
}

TEST(NetworkTest, SingleTransferLatencyPlusSerialization) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  SimTime delivered_at = -1;
  net.Send(0, 1, MB(1), [&] { delivered_at = sim.Now(); });
  sim.Run();
  const SimDuration expect = TransferTime(MB(1), Gbps(10)) + Microseconds(50);
  EXPECT_EQ(delivered_at, expect);
}

TEST(NetworkTest, ZeroByteMessageCostsOnlyLatency) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  SimTime delivered_at = -1;
  net.Send(0, 1, 0, [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, Microseconds(50));
}

TEST(NetworkTest, EgressSerializesConcurrentSendsFromOneNode) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  std::vector<SimTime> deliveries;
  net.Send(0, 1, MB(8), [&] { deliveries.push_back(sim.Now()); });
  net.Send(0, 2, MB(8), [&] { deliveries.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  const SimDuration ser = TransferTime(MB(8), Gbps(10));
  EXPECT_EQ(deliveries[0], ser + Microseconds(50));
  EXPECT_EQ(deliveries[1], 2 * ser + Microseconds(50));
}

TEST(NetworkTest, IngressSerializesConcurrentSendsIntoOneNode) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  std::vector<SimTime> deliveries;
  net.Send(0, 2, MB(8), [&] { deliveries.push_back(sim.Now()); });
  net.Send(1, 2, MB(8), [&] { deliveries.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  const SimDuration ser = TransferTime(MB(8), Gbps(10));
  EXPECT_EQ(deliveries[0], ser + Microseconds(50));
  EXPECT_EQ(deliveries[1], 2 * ser + Microseconds(50));
}

TEST(NetworkTest, DisjointPairsDoNotInterfere) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(4));
  std::vector<SimTime> deliveries;
  net.Send(0, 1, MB(8), [&] { deliveries.push_back(sim.Now()); });
  net.Send(2, 3, MB(8), [&] { deliveries.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  const SimTime expect = TransferTime(MB(8), Gbps(10)) + Microseconds(50);
  EXPECT_EQ(deliveries[0], expect);
  EXPECT_EQ(deliveries[1], expect);
}

TEST(NetworkTest, ChunkedRelayPipelines) {
  // Forwarding chunk-by-chunk through a middle node should take roughly one
  // serialization of the whole object plus one chunk, not two of the whole.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  constexpr std::int64_t kChunk = MB(1);
  constexpr int kChunks = 16;
  SimTime done_at = -1;
  int arrived_at_2 = 0;
  // Node 0 streams chunks to node 1; node 1 forwards each on arrival.
  for (int i = 0; i < kChunks; ++i) {
    net.Send(0, 1, kChunk, [&, i] {
      net.Send(1, 2, kChunk, [&, i] {
        ++arrived_at_2;
        if (i == kChunks - 1) done_at = sim.Now();
      });
    });
  }
  sim.Run();
  EXPECT_EQ(arrived_at_2, kChunks);
  const SimDuration ser_total = TransferTime(kChunk * kChunks, Gbps(10));
  const SimDuration ser_chunk = TransferTime(kChunk, Gbps(10));
  // Pipelined relay: total + one chunk + two hops of latency (allow a few ns
  // for per-chunk rounding of the serialization time).
  EXPECT_NEAR(static_cast<double>(done_at),
              static_cast<double>(ser_total + ser_chunk + 2 * Microseconds(50)), kChunks);
}

TEST(NetworkTest, SelfSendUsesMemcpyResource) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  SimTime done_at = -1;
  net.Send(0, 0, MB(10), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, TransferTime(MB(10), GBps(10)));
}

TEST(NetworkTest, MemcpySerializesPerNode) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  std::vector<SimTime> done;
  net.Memcpy(0, MB(10), [&] { done.push_back(sim.Now()); });
  net.Memcpy(0, MB(10), [&] { done.push_back(sim.Now()); });
  net.Memcpy(1, MB(10), [&] { done.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  const SimDuration d = TransferTime(MB(10), GBps(10));
  EXPECT_EQ(done[0], d);      // node 0 first copy
  EXPECT_EQ(done[1], d);      // node 1 copy runs in parallel
  EXPECT_EQ(done[2], 2 * d);  // node 0 second copy waits
}

TEST(NetworkTest, PerMessageOverheadAddsToDelivery) {
  sim::Simulator sim;
  auto cfg = TestConfig(2);
  cfg.per_message_overhead = Microseconds(5);
  FlatFabric net(sim, cfg);
  SimTime delivered_at = -1;
  net.Send(0, 1, 0, [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, Microseconds(55));
}

TEST(NetworkTest, HeterogeneousBandwidthUsesSlowerEnd) {
  sim::Simulator sim;
  auto cfg = TestConfig(2);
  cfg.per_node_bandwidth = {Gbps(10), Gbps(1)};
  FlatFabric net(sim, cfg);
  SimTime delivered_at = -1;
  net.Send(0, 1, MB(1), [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, TransferTime(MB(1), Gbps(1)) + Microseconds(50));
}

TEST(NetworkTest, FailedDestinationReportsFailureAfterDetectionDelay) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  net.FailNode(1);
  bool delivered = false;
  NodeID failed_node = kInvalidNode;
  SimTime failed_at = -1;
  net.Send(0, 1, MB(1), [&] { delivered = true; },
           [&](NodeID n) {
             failed_node = n;
             failed_at = sim.Now();
           });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(failed_node, 1);
  EXPECT_EQ(failed_at, Milliseconds(100));
}

TEST(NetworkTest, InFlightTransferAbortsWhenNodeFails) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  bool delivered = false;
  NodeID failed_node = kInvalidNode;
  net.Send(0, 1, GB(1), [&] { delivered = true; },
           [&](NodeID n) { failed_node = n; });
  // Fail the receiver mid-transfer (1 GB at 10 Gbps takes ~859 ms).
  sim.ScheduleAt(Milliseconds(200), [&] { net.FailNode(1); });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(failed_node, 1);
  EXPECT_EQ(sim.Now(), Milliseconds(300));  // fail time + detection delay
}

TEST(NetworkTest, RecoveredNodeAcceptsTransfers) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  net.FailNode(1);
  EXPECT_TRUE(net.IsFailed(1));
  net.RecoverNode(1);
  EXPECT_FALSE(net.IsFailed(1));
  bool delivered = false;
  net.Send(0, 1, KB(1), [&] { delivered = true; });
  sim.Run();
  EXPECT_TRUE(delivered);
}

TEST(NetworkTest, CancelTransferSuppressesCallbacks) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  bool delivered = false;
  const TransferId id = net.Send(0, 1, MB(1), [&] { delivered = true; });
  EXPECT_TRUE(net.CancelTransfer(id));
  EXPECT_FALSE(net.CancelTransfer(id));
  sim.Run();
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, TrafficCountersTrackBytes) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  net.Send(0, 1, MB(2), [] {});
  net.Send(0, 2, MB(3), [] {});
  net.Send(1, 0, MB(5), [] {});
  sim.Run();
  EXPECT_EQ(net.TrafficOf(0).bytes_sent, MB(5));
  EXPECT_EQ(net.TrafficOf(0).bytes_received, MB(5));
  EXPECT_EQ(net.TrafficOf(1).bytes_received, MB(2));
  EXPECT_EQ(net.TrafficOf(2).bytes_received, MB(3));
  EXPECT_EQ(net.TrafficOf(0).messages_sent, 2u);
}

TEST(NetworkTest, CancelAfterFailNodeReturnsFalseAndFailureStillReported) {
  // FailNode wins the race: it already aborted the flight and scheduled the
  // peer's failure notice, so a late CancelTransfer finds nothing to cancel
  // and cannot un-schedule the notice.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  bool delivered = false;
  NodeID reported = kInvalidNode;
  const TransferId id =
      net.Send(0, 1, MB(1), [&] { delivered = true; }, [&](NodeID n) { reported = n; });
  net.FailNode(1);
  EXPECT_FALSE(net.CancelTransfer(id));
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(reported, 1);
}

TEST(NetworkTest, FailNodeAfterCancelFiresNoCallbacks) {
  // CancelTransfer wins the race: the flight is gone, so the subsequent
  // FailNode has nothing to report for it.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  bool delivered = false;
  bool failure_reported = false;
  const TransferId id = net.Send(0, 1, MB(1), [&] { delivered = true; },
                                 [&](NodeID) { failure_reported = true; });
  EXPECT_TRUE(net.CancelTransfer(id));
  net.FailNode(1);
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_FALSE(failure_reported);
}

TEST(NetworkTest, TrafficCountedAtSendSurvivesInFlightFailure) {
  // Counters are committed when the bytes go on the wire; a mid-flight node
  // death does not refund them at either endpoint.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  net.Send(0, 1, MB(4), [] {}, [](NodeID) {});
  net.FailNode(1);
  sim.Run();
  EXPECT_EQ(net.TrafficOf(0).bytes_sent, MB(4));
  EXPECT_EQ(net.TrafficOf(0).messages_sent, 1u);
  EXPECT_EQ(net.TrafficOf(1).bytes_received, MB(4));
}

TEST(NetworkTest, SendToAlreadyFailedNodeCountsNoTraffic) {
  // Nothing reaches the wire when the destination is known-dead at Send
  // time, so neither endpoint's counters move.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  net.FailNode(1);
  net.Send(0, 1, MB(4), [] {}, [](NodeID) {});
  sim.Run();
  EXPECT_EQ(net.TrafficOf(0).bytes_sent, 0);
  EXPECT_EQ(net.TrafficOf(0).messages_sent, 0u);
  EXPECT_EQ(net.TrafficOf(1).bytes_received, 0);
}

TEST(NetworkTest, PerNodeBandwidthOverrideAppliesPerDirectionAndQueue) {
  // Overrides are per node, not global: the 1 Gbps node slows its own
  // transfers (either direction) but fast pairs still run at 10 Gbps.
  sim::Simulator sim;
  auto cfg = TestConfig(3);
  cfg.per_node_bandwidth = {Gbps(10), Gbps(1), Gbps(10)};
  FlatFabric net(sim, cfg);
  std::vector<SimTime> done(3, -1);
  net.Send(1, 0, MB(1), [&] { done[0] = sim.Now(); });
  net.Send(0, 2, MB(1), [&] { done[1] = sim.Now(); });
  net.Send(2, 1, MB(1), [&] { done[2] = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done[0], TransferTime(MB(1), Gbps(1)) + Microseconds(50));
  EXPECT_EQ(done[1], TransferTime(MB(1), Gbps(10)) + Microseconds(50));
  // Egress and ingress are independent directions: node 1's earlier egress
  // does not delay this ingress, but the 10 Gbps sender still serializes at
  // the slow receiver's NIC rate.
  EXPECT_EQ(done[2], TransferTime(MB(1), Gbps(1)) + Microseconds(50));
}

TEST(NetworkTest, PerNodeBandwidthOverrideSizeIsValidated) {
  sim::Simulator sim;
  auto cfg = TestConfig(3);
  cfg.per_node_bandwidth = {Gbps(10), Gbps(1)};  // one short
  EXPECT_DEATH({ FlatFabric net(sim, cfg); }, "per-node bandwidth");
}

TEST(NetworkTest, EgressFreeAtReflectsQueue) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  EXPECT_EQ(net.EgressFreeAt(0), 0);
  net.Send(0, 1, MB(8), [] {});
  const SimDuration ser = TransferTime(MB(8), Gbps(10));
  EXPECT_EQ(net.EgressFreeAt(0), ser);
  EXPECT_EQ(net.IngressFreeAt(1), ser);
  EXPECT_EQ(net.EgressFreeAt(1), 0);
}

}  // namespace
}  // namespace hoplite::net
