// Tests for the per-tenant QoS subsystem: the token bucket's deterministic
// pacing arithmetic, the weighted water-level solver, tenant-first WFQ at
// an oversubscribed uplink, flow-queuing AQM marks + backpressure, client
// admission control (kThrottled with a retry hint, token refund on
// failure), the tenant-accounting edges (coalesced fetches charge the
// window-opening tenant, broadcast relay flows inherit the requesting
// receiver's tenant), and bit-identity of the misbehaving-tenant scenario
// across engine shard counts.
#include "qos/qos.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "net/rack_fabric.h"
#include "qos/token_bucket.h"
#include "qos/wfq.h"
#include "sim/simulator.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace hoplite::qos {
namespace {

// ----------------------------------------------------------------------
// Token bucket: virtual-scheduling arithmetic.
// ----------------------------------------------------------------------

TEST(TokenBucketTest, BanksBurstCreditThenPacesToSustainedRate) {
  // 10 ops/s, 2 ops of depth. After 400 ms idle the bank is full: the
  // burst (2 tokens) plus the currently refilling one go out immediately,
  // then grants pace at the 100 ms refill gap.
  TokenBucket bucket(10.0, 2.0);
  const SimTime start = Milliseconds(400);
  EXPECT_EQ(bucket.Acquire(start), start);
  EXPECT_EQ(bucket.Acquire(start), start);
  EXPECT_EQ(bucket.Acquire(start), start);
  EXPECT_EQ(bucket.Acquire(start), start + Milliseconds(100));
  EXPECT_EQ(bucket.NextAdmission(start), start + Milliseconds(200));
}

TEST(TokenBucketTest, RefundReleasesTheChargedToken) {
  TokenBucket bucket(1.0, 0.0);
  EXPECT_EQ(bucket.Acquire(0), 0);
  // The op failed: its token comes back, so the next acquire is free again.
  bucket.Refund();
  EXPECT_EQ(bucket.Acquire(0), 0);
  // Without a refund the following acquire paces a full second out.
  EXPECT_EQ(bucket.Acquire(0), Seconds(1));
}

TEST(TokenBucketTest, PenaltyPushesFutureAdmissionsLater) {
  TokenBucket bucket(10.0, 0.0);
  EXPECT_EQ(bucket.Acquire(0), 0);
  bucket.Penalize(3.0);  // 3 tokens of debt = 300 ms
  EXPECT_EQ(bucket.NextAdmission(0), Milliseconds(400));
}

// ----------------------------------------------------------------------
// The per-link water-level solver.
// ----------------------------------------------------------------------

TEST(WfqSolverTest, EqualWeightsSplitCapacityEvenly) {
  const std::vector<TenantDemand> demands = {
      {.tenant = 0, .weight = 1.0, .frozen = 0.0, .unfrozen = 1},
      {.tenant = 1, .weight = 1.0, .frozen = 0.0, .unfrozen = 3},
  };
  EXPECT_DOUBLE_EQ(SolveTenantWaterLevel(demands, 10.0), 5.0);
}

TEST(WfqSolverTest, WeightsScaleTheLevels) {
  const std::vector<TenantDemand> demands = {
      {.tenant = 0, .weight = 3.0, .frozen = 0.0, .unfrozen = 1},
      {.tenant = 1, .weight = 1.0, .frozen = 0.0, .unfrozen = 1},
  };
  // 3 nu + nu = 8 -> nu = 2: tenant 0 gets 6, tenant 1 gets 2.
  EXPECT_DOUBLE_EQ(SolveTenantWaterLevel(demands, 8.0), 2.0);
}

TEST(WfqSolverTest, FrozenAllocationsFloorTheirTenant) {
  // Tenant 0's flows froze at 6 elsewhere; only tenant 1 still fills here:
  // max(6, nu) + nu = 10 -> nu = 4 (tenant 0 keeps its 6-rate floor).
  const std::vector<TenantDemand> demands = {
      {.tenant = 0, .weight = 1.0, .frozen = 6.0, .unfrozen = 0},
      {.tenant = 1, .weight = 1.0, .frozen = 0.0, .unfrozen = 1},
  };
  EXPECT_DOUBLE_EQ(SolveTenantWaterLevel(demands, 10.0), 4.0);
}

// ----------------------------------------------------------------------
// WFQ at the fabric: tenant-first sharing of an oversubscribed uplink.
// ----------------------------------------------------------------------

/// 2 racks behind a 4:1 uplink (2 NICs * 10 Gbps / 4 = 5 Gbps shared);
/// per_message_overhead zeroed for exact arithmetic.
net::ClusterConfig QosRackConfig() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;
  cfg.fabric.topology = net::TopologyKind::kRack;
  cfg.fabric.num_racks = 2;
  cfg.fabric.oversubscription = 4.0;
  return cfg;
}

constexpr SimTime kSlackNs = 1000;  // fair-share recompute ceil-rounding

TEST(QosFabricTest, WfqSplitsTheUplinkByTenantNotByFlowCount) {
  sim::Simulator sim;
  net::ClusterConfig cfg = QosRackConfig();
  cfg.qos.wfq = true;
  net::RackFabric net(sim, cfg);

  // Tenant 1: one cross-rack flow. Tenant 2: three concurrent ones. Under
  // per-flow max-min tenant 2 would take 3/4 of the uplink; tenant-first
  // WFQ pins each tenant at 2.5 Gbps, so the lone flow runs at the full
  // tenant share and finishes first.
  SimTime lone_done = -1;
  std::vector<SimTime> pack_done;
  net.Send(0, 2, MB(4), [&] { lone_done = sim.Now(); }, TenantId{1});
  for (int i = 0; i < 3; ++i) {
    net.Send(1, 3, MB(4), [&] { pack_done.push_back(sim.Now()); }, TenantId{2});
  }
  sim.Run();

  // Lone flow: 4 MB at its 2.5 Gbps tenant share.
  const SimTime lone_expect = TransferTime(MB(4), Gbps(2.5)) + Microseconds(50);
  EXPECT_NEAR(lone_done, lone_expect, kSlackNs);
  // The pack's 12 MB ride tenant 2's 2.5 Gbps until the lone flow is done,
  // then the whole 5 Gbps: strictly after the lone flow either way.
  ASSERT_EQ(pack_done.size(), 3u);
  for (const SimTime done : pack_done) EXPECT_GT(done, lone_done + Milliseconds(5));
}

TEST(QosFabricTest, TenantWeightsSkewTheSplit) {
  sim::Simulator sim;
  net::ClusterConfig cfg = QosRackConfig();
  cfg.qos.wfq = true;
  cfg.qos.tenant_weights = {1.0, 3.0, 1.0};  // tenant 1 is 3x tenant 2
  net::RackFabric net(sim, cfg);

  SimTime heavy_done = -1;
  net.Send(0, 2, MB(4), [&] { heavy_done = sim.Now(); }, TenantId{1});
  net.Send(1, 3, MB(4), [&] {}, TenantId{2});
  sim.Run();

  // Weighted split of the 5 Gbps uplink: 3.75 vs 1.25 Gbps.
  const SimTime heavy_expect = TransferTime(MB(4), Gbps(3.75)) + Microseconds(50);
  EXPECT_NEAR(heavy_done, heavy_expect, kSlackNs);
}

TEST(QosFabricTest, AqmMarksSustainedUplinkHogsAndBackpressuresTheSender) {
  sim::Simulator sim;
  net::ClusterConfig cfg = QosRackConfig();
  cfg.qos.wfq = true;
  cfg.qos.aqm = true;
  net::RackFabric net(sim, cfg);

  std::vector<TenantId> backpressured;
  net.SetBackpressureHandler(
      [&](NodeID, TenantId tenant) { backpressured.push_back(tenant); });

  // 64 MB of cross-rack backlog at a 5 Gbps uplink is ~100 ms of sojourn —
  // far past the AQM target, sustained past its interval.
  int delivered = 0;
  for (int i = 0; i < 8; ++i) {
    net.Send(i % 2, 2 + i % 2, MB(8), [&] { ++delivered; }, TenantId{3});
  }
  sim.Run();

  EXPECT_GT(net.aqm_marks(), 0);
  ASSERT_FALSE(backpressured.empty());
  for (const TenantId tenant : backpressured) EXPECT_EQ(tenant, TenantId{3});
  // Pause/resume must never lose a flow: everything still lands.
  EXPECT_EQ(delivered, 8);
}

// ----------------------------------------------------------------------
// Client admission control.
// ----------------------------------------------------------------------

core::HopliteCluster::Options AdmissionOptions(double ops_per_s, double burst_ops,
                                               int max_outstanding) {
  core::HopliteCluster::Options options;
  options.network.num_nodes = 4;
  options.network.qos.admission = true;
  options.network.qos.admission_tuning.ops_per_s = ops_per_s;
  options.network.qos.admission_tuning.burst_ops = burst_ops;
  options.network.qos.admission_tuning.max_outstanding_ops = max_outstanding;
  return options;
}

TEST(QosAdmissionTest, OverOutstandingCapRejectsWithRetryHint) {
  core::HopliteCluster cluster(AdmissionOptions(1000.0, 4.0, 2));
  const TenantId tenant{1};
  std::vector<Ref<ObjectID>> puts;
  for (int i = 0; i < 4; ++i) {
    puts.push_back(cluster.client(0).Put(ObjectID::FromName("op").WithIndex(i),
                                         store::Buffer::OfSize(MB(8)), tenant));
  }
  // The cap polices synchronously: ops beyond 2 outstanding reject now.
  EXPECT_TRUE(puts[2].failed());
  EXPECT_EQ(puts[2].error().code, RefErrorCode::kThrottled);
  EXPECT_GE(puts[2].error().retry_after, 1);
  EXPECT_GE(cluster.client(0).throttled_ops(), 2);
  EXPECT_EQ(cluster.client(0).outstanding_ops(tenant), 2);

  cluster.RunAll();
  // Admitted ops settled and released their slots; rejected ones never held
  // any.
  EXPECT_TRUE(puts[0].ready());
  EXPECT_TRUE(puts[1].ready());
  EXPECT_EQ(cluster.client(0).outstanding_ops(tenant), 0);
}

TEST(QosAdmissionTest, UntaggedOpsBypassAdmission) {
  core::HopliteCluster cluster(AdmissionOptions(1000.0, 4.0, 1));
  std::vector<Ref<ObjectID>> puts;
  for (int i = 0; i < 4; ++i) {
    puts.push_back(cluster.client(0).Put(ObjectID::FromName("op").WithIndex(i),
                                         store::Buffer::OfSize(KB(64))));
  }
  cluster.RunAll();
  for (const auto& put : puts) EXPECT_TRUE(put.ready());
  EXPECT_EQ(cluster.client(0).throttled_ops(), 0);
  EXPECT_EQ(cluster.client(0).paced_ops(), 0);
}

TEST(QosAdmissionTest, FailedOpsRefundTheirToken) {
  // 1 op/s, no burst: a second admission within the same second paces —
  // unless the first op failed and refunded its token.
  core::HopliteCluster cluster(AdmissionOptions(1.0, 0.0, 8));
  const TenantId tenant{1};
  const ObjectID missing = ObjectID::FromName("missing");
  auto& client = cluster.client(0);
  const auto first = client.Get(
      missing, core::GetOptions{.timeout = Milliseconds(50), .tenant = tenant});
  Ref<store::Buffer> second;
  cluster.simulator().ScheduleAt(Milliseconds(100), [&] {
    second = client.Get(
        missing, core::GetOptions{.timeout = Milliseconds(50), .tenant = tenant});
  });
  cluster.RunAll();

  EXPECT_TRUE(first.failed());
  EXPECT_EQ(first.error().code, RefErrorCode::kTimeout);
  EXPECT_TRUE(second.failed());
  // The refunded token admitted the second Get on the spot: its timeout ran
  // from the issue instant, and nothing was ever paced.
  EXPECT_EQ(client.paced_ops(), 0);
  EXPECT_EQ(cluster.simulator().Now(), Milliseconds(150));
}

TEST(QosAdmissionTest, InlineReduceHoldsOneSlotForItsInternalFetchesAndPut) {
  // The small-object Reduce fetches its inline sources and Puts its result
  // on behalf of the one admitted Reduce: those internal ops must not be
  // admitted again, or a cap of 1 would throttle the Reduce's own work.
  core::HopliteCluster cluster(AdmissionOptions(1000.0, 16.0, 1));
  const TenantId tenant{1};
  std::vector<ObjectID> sources;
  for (int i = 0; i < 4; ++i) {
    sources.push_back(ObjectID::FromName("small").WithIndex(i));
    cluster.client(i).Put(sources.back(), store::Buffer::OfSize(KB(4)));
  }
  cluster.RunAll();

  auto& client = cluster.client(0);
  const Ref<core::ReduceResult> reduce = client.Reduce(core::ReduceSpec{
      .target = ObjectID::FromName("small-sum"), .sources = sources, .tenant = tenant});
  bool one_slot_throughout = true;
  cluster.simulator().RunUntilPredicate([&] {
    if (!reduce.settled()) one_slot_throughout &= client.outstanding_ops(tenant) == 1;
    return reduce.settled();
  });
  cluster.RunAll();

  ASSERT_TRUE(reduce.ready());
  EXPECT_EQ(reduce.value().reduced.size(), 4u);
  EXPECT_TRUE(one_slot_throughout);
  EXPECT_EQ(client.throttled_ops(), 0);
  EXPECT_EQ(client.paced_ops(), 0);
  EXPECT_EQ(client.outstanding_ops(tenant), 0);
}

TEST(QosAdmissionTest, PacedGetThatTimesOutBeforeItsGrantIsShed) {
  // 1 op/s, no burst: a tagged Put takes the token at t = 0, so a tagged Get
  // issued at once is paced to the 1 s grant. Its 50 ms timeout fires
  // first, and the dead op must not reach the protocol at the grant.
  core::HopliteCluster cluster(AdmissionOptions(1.0, 0.0, 8));
  const TenantId tenant{1};
  const ObjectID remote = ObjectID::FromName("remote");
  cluster.client(1).Put(remote, store::Buffer::OfSize(MB(1)));
  cluster.RunAll();
  const SimTime start = cluster.simulator().Now();

  auto& client = cluster.client(0);
  (void)client.Put(ObjectID::FromName("local"), store::Buffer::OfSize(MB(1)), tenant);
  const auto get =
      client.Get(remote, core::GetOptions{.timeout = Milliseconds(50), .tenant = tenant});
  EXPECT_EQ(client.paced_ops(), 1);
  // Scheduled after the Get, so it runs just after the paced issue.
  bool fetch_at_grant = true;
  cluster.simulator().ScheduleAt(start + Seconds(1), [&] {
    fetch_at_grant = client.HasFetchSession(remote);
  });
  cluster.RunAll();

  ASSERT_TRUE(get.failed());
  EXPECT_EQ(get.error().code, RefErrorCode::kTimeout);
  EXPECT_FALSE(fetch_at_grant);
  EXPECT_EQ(cluster.network().TrafficOf(0).bytes_received, 0);
  EXPECT_EQ(client.outstanding_ops(tenant), 0);
}

// ----------------------------------------------------------------------
// Tenant-accounting edges.
// ----------------------------------------------------------------------

TEST(QosAccountingTest, CoalescedInlineFetchChargesTheWindowOpeningTenant) {
  core::HopliteCluster::Options options;
  options.network.num_nodes = 4;
  options.network.cache.coalescing = true;
  core::HopliteCluster cluster(options);

  const ObjectID hot = ObjectID::FromName("hot");
  cluster.client(0).Put(hot, store::Buffer::OfSize(KB(16)));
  cluster.RunAll();

  // Two concurrent claims for the inline object: node 1 (tenant 1) opens
  // the interest window, node 2 (tenant 2) attaches to it.
  const auto opener_get = cluster.client(1).Get(
      hot, core::GetOptions{.read_only = true, .tenant = TenantId{1}});
  const auto attacher_get = cluster.client(2).Get(
      hot, core::GetOptions{.read_only = true, .tenant = TenantId{2}});
  cluster.RunAll();
  EXPECT_TRUE(opener_get.ready());
  EXPECT_TRUE(attacher_get.ready());

  // The window opener pays the shard's inline egress — one payload, not
  // two. The attacher is served through the fan-out machinery and pays its
  // own relay transfer, never a second shard fetch.
  const std::int64_t opener = cluster.network().TenantBytes(TenantId{1});
  EXPECT_GE(opener, KB(16));
  EXPECT_LT(opener, KB(16) + KB(4));  // payload + control framing, no double charge
}

TEST(QosAccountingTest, BroadcastRelayFlowsInheritTheRequestersTenant) {
  core::HopliteCluster::Options options;
  options.network.num_nodes = 4;
  core::HopliteCluster cluster(options);

  // One producer, three concurrent receivers with distinct tenants: the
  // broadcast tree serves some receivers from other receivers' partial
  // copies, and each such relay flow must charge the *requesting*
  // receiver's tenant, not the relaying sender's.
  const ObjectID object = ObjectID::FromName("bcast");
  cluster.client(0).Put(object, store::Buffer::OfSize(KB(256)));
  cluster.RunAll();
  std::vector<Ref<store::Buffer>> gets;
  for (NodeID receiver = 1; receiver < 4; ++receiver) {
    gets.push_back(cluster.client(receiver).Get(
        object,
        core::GetOptions{.read_only = true, .tenant = TenantId{4 + receiver}}));
  }
  cluster.RunAll();
  for (const auto& get : gets) EXPECT_TRUE(get.ready());

  for (NodeID receiver = 1; receiver < 4; ++receiver) {
    EXPECT_GE(cluster.network().TenantBytes(TenantId{4 + receiver}), KB(256))
        << "receiver " << receiver << " must be charged for its own delivery";
  }
}

}  // namespace
}  // namespace hoplite::qos

// ----------------------------------------------------------------------
// Scenario-level determinism: the fairness figure's substrate must be
// bit-identical across engine shard counts, QoS fully on.
// ----------------------------------------------------------------------

namespace hoplite::workload {
namespace {

ScenarioSpec SmallMisbehavingSpec(int engine_shards) {
  ScenarioTuning tuning;
  tuning.num_nodes = 8;
  tuning.horizon = Milliseconds(100);
  tuning.seed = 13;
  tuning.load_scale = 2.0;
  tuning.max_object_bytes = KB(512);
  ScenarioSpec spec = BuildScenario("misbehaving-tenant", tuning);
  spec.engine_shards = engine_shards;
  spec.qos.wfq = true;
  spec.qos.aqm = true;
  spec.qos.admission = true;
  spec.qos.tenant_weights.assign(spec.tenants.size(), 1.0);
  return spec;
}

TEST(QosScenarioTest, MisbehavingTenantRunIsBitIdenticalAcrossShardCounts) {
  const LoadReport reference = RunScenario(SmallMisbehavingSpec(1), BackendKind::kHoplite);
  const LoadReport sharded = RunScenario(SmallMisbehavingSpec(4), BackendKind::kHoplite);
  ASSERT_GT(reference.total.offered, 0u);
  ASSERT_EQ(reference.ops.size(), sharded.ops.size());
  for (std::size_t i = 0; i < reference.ops.size(); ++i) {
    EXPECT_EQ(reference.ops[i].issued_at, sharded.ops[i].issued_at) << "op " << i;
    EXPECT_EQ(reference.ops[i].settled_at, sharded.ops[i].settled_at) << "op " << i;
    EXPECT_EQ(reference.ops[i].ok, sharded.ops[i].ok) << "op " << i;
  }
  EXPECT_EQ(reference.end_time, sharded.end_time);
  EXPECT_DOUBLE_EQ(reference.fairness, sharded.fairness);
}

}  // namespace
}  // namespace hoplite::workload
