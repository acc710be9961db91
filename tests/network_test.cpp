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
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;  // keep arithmetic exact in tests
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

TEST(NetworkTest, SendToFailedNodeIsDropped) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  net.FailNode(1);
  bool delivered = false;
  net.Send(0, 1, MB(1), [&] { delivered = true; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(sim.executed_events(), 0u);  // nothing was scheduled
}

TEST(NetworkTest, InFlightTransferAbortsWhenNodeFails) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  bool delivered = false;
  net.Send(0, 1, GB(1), [&] { delivered = true; });
  // Fail the receiver mid-transfer (1 GB at 10 Gbps takes ~859 ms).
  sim.ScheduleAt(Milliseconds(200), [&] { net.FailNode(1); });
  sim.Run();
  EXPECT_FALSE(delivered);
}

TEST(NetworkTest, InFlightTransferIsDroppedEvenIfTheNodeRejoinsFirst) {
  // Node 1 dies and rejoins while 1 GB is still on its way to it: that
  // transfer belongs to the old incarnation and never delivers, while one
  // sent to the new incarnation does.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  bool old_delivered = false;
  bool new_delivered = false;
  net.Send(0, 1, GB(1), [&] { old_delivered = true; });
  sim.ScheduleAt(Milliseconds(200), [&] { net.FailNode(1); });
  sim.ScheduleAt(Milliseconds(300), [&] {
    net.RecoverNode(1);
    net.Send(2, 1, KB(1), [&] { new_delivered = true; });
  });
  sim.Run();
  EXPECT_FALSE(old_delivered);
  EXPECT_TRUE(new_delivered);
}

/// Node 0 starts sending 1 GB to node 1 at 0 ms and `victim` dies at 10 ms,
/// rejoining at 20 ms when `rejoin` is set; at 30 ms `src` sends 1 KB to
/// `dst`. Returns the instant the 1 KB lands.
SimTime LateSendAfterADroppedTransfer(NodeID victim, bool rejoin, NodeID src, NodeID dst) {
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  net.Send(0, 1, GB(1), [] { ADD_FAILURE() << "the dropped transfer delivered"; });
  sim.ScheduleAt(Milliseconds(10), [&] { net.FailNode(victim); });
  if (rejoin) sim.ScheduleAt(Milliseconds(20), [&] { net.RecoverNode(victim); });
  SimTime delivered_at = -1;
  sim.ScheduleAt(Milliseconds(30),
                 [&] { net.Send(src, dst, KB(1), [&] { delivered_at = sim.Now(); }); });
  sim.Run();
  return delivered_at;
}

TEST(NetworkTest, DroppedTransferReleasesItsNicReservations) {
  // The dropped 1 GB would hold node 0's egress and node 1's ingress until
  // ~859 ms; the death hands both back, so each late 1 KB starts at once.
  const SimTime at_once =
      Milliseconds(30) + TransferTime(KB(1), Gbps(10)) + Microseconds(50);
  EXPECT_EQ(LateSendAfterADroppedTransfer(0, /*rejoin=*/true, 0, 2), at_once)
      << "out of the rejoined sender";
  EXPECT_EQ(LateSendAfterADroppedTransfer(0, /*rejoin=*/false, 2, 1), at_once)
      << "into the surviving receiver";
  EXPECT_EQ(LateSendAfterADroppedTransfer(1, /*rejoin=*/false, 0, 2), at_once)
      << "out of the surviving sender whose receiver died";
}

TEST(NetworkTest, TransferQueuedBehindADroppedOneKeepsItsPlace) {
  // Node 0 queues 1 KB to node 2 behind its 1 GB to node 1, then node 1
  // dies. The 1 KB's delivery is already scheduled behind the dropped
  // transfer, so node 0's egress stays reserved until it goes out.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(3));
  const SimDuration gigabyte = TransferTime(GB(1), Gbps(10));
  const SimDuration kilobyte = TransferTime(KB(1), Gbps(10));
  SimTime queued_at = -1;
  net.Send(0, 1, GB(1), [] {});
  net.Send(0, 2, KB(1), [&] { queued_at = sim.Now(); });
  sim.ScheduleAt(Milliseconds(10), [&] {
    net.FailNode(1);
    EXPECT_EQ(net.EgressFreeAt(0), gigabyte + kilobyte);
    EXPECT_EQ(net.IngressFreeAt(2), gigabyte + kilobyte);
  });
  sim.Run();
  EXPECT_EQ(queued_at, gigabyte + kilobyte + Microseconds(50));
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

TEST(NetworkTest, TrafficCountedAtSendSurvivesInFlightFailure) {
  // Counters are committed when the bytes go on the wire; a mid-flight node
  // death does not refund them at either endpoint.
  sim::Simulator sim;
  FlatFabric net(sim, TestConfig(2));
  net.Send(0, 1, MB(4), [] {});
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
  net.Send(0, 1, MB(4), [] {});
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
