// Tests for the Ref future surface: combinator semantics (Then / WhenAll /
// WithTimeout), failure propagation (killed producers, Delete'd objects,
// timeouts), RAII membership subscriptions, and determinism of a ref DAG
// across runs.
#include "core/ref.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "store/buffer.h"

namespace hoplite {
namespace {

core::HopliteCluster::Options TestOptions(int nodes) {
  core::HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  options.network.failure_detection_delay = Milliseconds(100);
  return options;
}

store::Buffer MakeValue(float v) {
  return store::Buffer::FromValues(std::vector<float>(64 * 1024, v));  // 256 KB
}

// ----------------------------------------------------------------------
// Pure combinator semantics (bare simulator, no cluster).
// ----------------------------------------------------------------------

TEST(RefTest, ThenChainsAndFlattens) {
  sim::Simulator sim;
  RefPromise<int> promise(&sim, ObjectID{});
  std::vector<std::string> order;
  const Ref<std::string> chained =
      promise.ref()
          .Then([&](const int& v) { return v + 1; })
          .Then([&](const int& v) {
            // A continuation returning a ref is flattened.
            return After(sim, Milliseconds(5)).Then([v] { return std::to_string(v); });
          });
  chained.Then([&](const std::string& s) { order.push_back(s); });
  EXPECT_FALSE(chained.settled());
  promise.Resolve(41);
  EXPECT_FALSE(chained.settled()) << "inner After must actually wait";
  sim.Run();
  ASSERT_TRUE(chained.ready());
  EXPECT_EQ(chained.value(), "42");
  EXPECT_EQ(order, (std::vector<std::string>{"42"}));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
}

TEST(RefTest, ContinuationsFireInAttachOrderAndInline) {
  sim::Simulator sim;
  RefPromise<int> promise(&sim, ObjectID{});
  std::vector<int> order;
  promise.ref().Then([&](const int&) { order.push_back(1); });
  promise.ref().Then([&](const int&) { order.push_back(2); });
  promise.Resolve(0);
  // Inline: no simulator step was needed.
  promise.ref().Then([&](const int&) { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RefTest, ErrorSkipsThenAndPropagatesDownChains) {
  sim::Simulator sim;
  RefPromise<int> promise(&sim, ObjectID{});
  bool then_ran = false;
  std::optional<RefError> seen;
  promise.ref()
      .Then([&](const int&) {
        then_ran = true;
        return 1;
      })
      .Then([&](const int&) { then_ran = true; })
      .OnError([&](const RefError& error) { seen = error; });
  promise.Reject(RefError{RefErrorCode::kProducerLost, "gone"});
  EXPECT_FALSE(then_ran);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->code, RefErrorCode::kProducerLost);
  EXPECT_EQ(seen->message, "gone");
}

TEST(RefTest, SettleIsFirstWinsIdempotent) {
  sim::Simulator sim;
  RefPromise<int> promise(&sim, ObjectID{});
  promise.Resolve(1);
  promise.Resolve(2);
  promise.Reject(RefError{RefErrorCode::kTimeout, "late"});
  ASSERT_TRUE(promise.ref().ready());
  EXPECT_EQ(promise.ref().value(), 1);
}

TEST(RefTest, WhenAllPreservesInputOrderAndRejectsOnFirstError) {
  sim::Simulator sim;
  std::vector<RefPromise<int>> promises;
  std::vector<Ref<int>> refs;
  for (int i = 0; i < 3; ++i) {
    promises.emplace_back(&sim, ObjectID{});
    refs.push_back(promises.back().ref());
  }
  const Ref<std::vector<int>> all = WhenAll(refs);
  promises[2].Resolve(30);
  promises[0].Resolve(10);
  EXPECT_FALSE(all.settled());
  promises[1].Resolve(20);
  ASSERT_TRUE(all.ready());
  EXPECT_EQ(all.value(), (std::vector<int>{10, 20, 30}));  // input order

  std::vector<RefPromise<int>> failing{{&sim, ObjectID{}}, {&sim, ObjectID{}}};
  const auto failed =
      WhenAll(std::vector<Ref<int>>{failing[0].ref(), failing[1].ref()});
  failing[1].Reject(RefError{RefErrorCode::kDeleted, "boom"});
  ASSERT_TRUE(failed.failed());
  EXPECT_EQ(failed.error().code, RefErrorCode::kDeleted);

  EXPECT_TRUE(WhenAll(std::vector<Ref<int>>{}).ready());  // empty resolves now
}

TEST(RefTest, WhenAllSettledCollectsOutcomesInsteadOfRejecting) {
  sim::Simulator sim;
  std::vector<RefPromise<int>> promises;
  std::vector<Ref<int>> refs;
  for (int i = 0; i < 3; ++i) {
    promises.emplace_back(&sim, ObjectID::FromName("settled").WithIndex(i));
    refs.push_back(promises.back().ref());
  }
  const Ref<std::vector<Settled<int>>> all = WhenAllSettled(refs);
  promises[1].Reject(RefError{RefErrorCode::kProducerLost, "dead"});
  promises[2].Resolve(30);
  EXPECT_FALSE(all.settled()) << "must wait for every ref, failures included";
  promises[0].Resolve(10);
  ASSERT_TRUE(all.ready()) << "a failed input must not reject the result";
  const std::vector<Settled<int>>& outcomes = all.value();
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].value, 10);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_EQ(outcomes[1].error.code, RefErrorCode::kProducerLost);
  EXPECT_EQ(outcomes[1].id, ObjectID::FromName("settled").WithIndex(1));
  EXPECT_TRUE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].value, 30);

  EXPECT_TRUE(WhenAllSettled(std::vector<Ref<int>>{}).ready());  // empty resolves now
}

TEST(RefTest, WhenAllSettledOnClusterKeepsCountingPastAFailedGet) {
  // The workload-driver use case: one op's producer dies (its Get times out,
  // per the documented pair-Get-with-timeout contract), and the combinator
  // still reports every other op's outcome instead of rejecting wholesale.
  core::HopliteCluster cluster(TestOptions(4));
  const ObjectID alive_id = ObjectID::FromName("settled-alive");
  const ObjectID doomed_id = ObjectID::FromName("settled-doomed");
  cluster.client(1).Put(alive_id, MakeValue(1.0F));
  cluster.client(3).Put(doomed_id, MakeValue(2.0F));
  std::vector<Ref<store::Buffer>> gets{
      cluster.client(0).Get(alive_id),
      cluster.client(0).Get(doomed_id, core::GetOptions{.timeout = Milliseconds(500)}),
  };
  const auto settled = WhenAllSettled(gets);
  cluster.simulator().ScheduleAt(Microseconds(10), [&] { cluster.KillNode(3); });
  cluster.RunAll();
  ASSERT_TRUE(settled.ready());
  ASSERT_EQ(settled.value().size(), 2u);
  EXPECT_TRUE(settled.value()[0].ok);
  EXPECT_FALSE(settled.value()[1].ok);
  EXPECT_EQ(settled.value()[1].error.code, RefErrorCode::kTimeout);
}

TEST(RefTest, WithTimeoutFiresAndIsCancelledBySettle) {
  sim::Simulator sim;
  RefPromise<int> never(&sim, ObjectID{});
  const Ref<int> timed_out = never.ref().WithTimeout(Milliseconds(10));
  RefPromise<int> quick(&sim, ObjectID{});
  const Ref<int> in_time = quick.ref().WithTimeout(Milliseconds(10));
  sim.ScheduleAt(Milliseconds(2), [&] { quick.Resolve(7); });
  sim.Run();
  ASSERT_TRUE(timed_out.failed());
  EXPECT_EQ(timed_out.error().code, RefErrorCode::kTimeout);
  ASSERT_TRUE(in_time.ready());
  EXPECT_EQ(in_time.value(), 7);
  // The satisfied mirror's timer was cancelled; only the unsatisfied one's
  // timer advanced the clock.
  EXPECT_EQ(sim.Now(), Milliseconds(10));
  EXPECT_TRUE(sim.Idle());
}

// ----------------------------------------------------------------------
// Failure propagation on the cluster (satellite: combinator semantics
// under failure).
// ----------------------------------------------------------------------

TEST(RefFailureTest, WhenAllFailsWhenProducerKilledMidStream) {
  core::HopliteCluster cluster(TestOptions(4));
  // Each 256 MB Put spends ~27 ms in its node's worker->store copy, so the
  // kill at 10 ms lands while node 1's copy is still streaming.
  std::vector<Ref<ObjectID>> outputs;
  for (int i = 0; i < 3; ++i) {
    outputs.push_back(cluster.client(static_cast<NodeID>(i))
                          .Put(ObjectID::FromName("producer").WithIndex(i),
                               store::Buffer::OfSize(MB(256))));
  }
  const auto all = WhenAll(outputs);
  std::optional<SimTime> failed_at;
  all.OnError([&](const RefError&) { failed_at = cluster.Now(); });
  cluster.simulator().ScheduleAt(Milliseconds(10), [&] { cluster.KillNode(1); });
  cluster.RunAll();
  ASSERT_TRUE(all.failed());
  EXPECT_EQ(all.error().code, RefErrorCode::kProducerLost);
  ASSERT_TRUE(failed_at.has_value());
  // The failure becomes observable exactly one detection delay after the
  // kill — not at the kill instant (nobody can know yet), not never.
  EXPECT_EQ(*failed_at, Milliseconds(10) + Milliseconds(100));
  // The surviving producers still resolve.
  EXPECT_TRUE(outputs[0].ready());
  EXPECT_TRUE(outputs[2].ready());
  EXPECT_TRUE(outputs[1].failed());
}

TEST(RefFailureTest, KilledProducerStaysFailedAcrossRecoveryWhileOthersResolve) {
  core::HopliteCluster cluster(TestOptions(4));
  // Node i Puts (128 + 32i) MB: its worker->store copy finishes at ~13, 17,
  // 20 and 23 ms, so node 0 would be the first finisher.
  std::vector<Ref<ObjectID>> outputs;
  for (int i = 0; i < 4; ++i) {
    outputs.push_back(cluster.client(static_cast<NodeID>(i))
                          .Put(ObjectID::FromName("rollout").WithIndex(i),
                               store::Buffer::OfSize(MB(128 + 32 * i))));
  }
  // Kill the fastest producer mid-copy; it recovers later with an empty
  // store.
  cluster.simulator().ScheduleAt(Milliseconds(10), [&] { cluster.KillNode(0); });
  cluster.simulator().ScheduleAt(Milliseconds(500), [&] { cluster.RecoverNode(0); });
  cluster.RunAll();
  // The killed producer's ref fails at detection; recovery does not revive it.
  ASSERT_TRUE(outputs[0].failed());
  EXPECT_EQ(outputs[0].error().code, RefErrorCode::kProducerLost);
  // The other producers are unaffected.
  EXPECT_TRUE(outputs[1].ready());
  EXPECT_TRUE(outputs[2].ready());
  EXPECT_TRUE(outputs[3].ready());
}

TEST(RefFailureTest, ThenChainedOffDeletedObjectObservesError) {
  core::HopliteCluster cluster(TestOptions(3));
  const ObjectID id = ObjectID::FromName("doomed");
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(64)));
  bool then_ran = false;
  std::optional<RefError> seen;
  cluster.client(1)
      .Get(id)
      .Then([&](const store::Buffer&) { then_ran = true; })
      .OnError([&](const RefError& error) { seen = error; });
  // Delete mid-transfer: the pending Get fails with kDeleted instead of
  // silently never firing.
  cluster.simulator().ScheduleAt(Milliseconds(5), [&] { cluster.client(2).Delete(id); });
  cluster.RunAll();
  EXPECT_FALSE(then_ran);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->code, RefErrorCode::kDeleted);
  EXPECT_FALSE(cluster.store(1).Contains(id));
}

TEST(RefFailureTest, GetWithTimeoutOnNeverPutObjectWithAllProducersDead) {
  // Table 1's Get(ObjectID, timeout) regression: the object is never Put and
  // every node that could have produced it is dead — without a timeout the
  // claim parks in the directory forever.
  core::HopliteCluster cluster(TestOptions(3));
  cluster.KillNode(1);
  cluster.KillNode(2);
  cluster.simulator().RunUntil(Milliseconds(300));
  std::optional<RefError> seen;
  SimTime failed_at = 0;
  const SimTime issued_at = cluster.Now();
  cluster.client(0)
      .Get(ObjectID::FromName("never-put"), core::GetOptions{.timeout = Seconds(1)})
      .OnError([&](const RefError& error) {
        seen = error;
        failed_at = cluster.Now();
      });
  cluster.RunAll();
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->code, RefErrorCode::kTimeout);
  EXPECT_EQ(failed_at, issued_at + Seconds(1));
}

TEST(RefFailureTest, KilledNodesOwnRefsFailAtDetectionTime) {
  core::HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("big");
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(256)));
  std::optional<SimTime> failed_at;
  const auto get = cluster.client(1).Get(id);
  get.OnError([&](const RefError& error) {
    EXPECT_EQ(error.code, RefErrorCode::kProducerLost);
    failed_at = cluster.Now();
  });
  // Kill the *getter* long before the 256 MB transfer can finish.
  cluster.simulator().ScheduleAt(Milliseconds(1), [&] { cluster.KillNode(1); });
  cluster.RunAll();
  ASSERT_TRUE(failed_at.has_value());
  EXPECT_EQ(*failed_at, Milliseconds(1) + Milliseconds(100));
}

TEST(RefFailureTest, BackToBackDeathsRejectEachIncarnationsRefsSeparately) {
  // kill -> recover -> kill inside one detection window: each incarnation's
  // refs must fail at *its own* death's observation instant, not the first.
  core::HopliteCluster cluster(TestOptions(2));
  std::optional<SimTime> first_failed_at;
  std::optional<SimTime> second_failed_at;
  const auto first = cluster.client(1).Get(ObjectID::FromName("never-a"));
  first.OnError([&](const RefError&) { first_failed_at = cluster.Now(); });
  cluster.KillNode(1);  // observed at 100 ms
  cluster.simulator().ScheduleAt(Milliseconds(50), [&] { cluster.RecoverNode(1); });
  cluster.simulator().ScheduleAt(Milliseconds(60), [&] {
    cluster.client(1).Get(ObjectID::FromName("never-b")).OnError([&](const RefError&) {
      second_failed_at = cluster.Now();
    });
  });
  cluster.simulator().ScheduleAt(Milliseconds(70), [&] { cluster.KillNode(1); });
  cluster.RunAll();
  ASSERT_TRUE(first_failed_at.has_value());
  ASSERT_TRUE(second_failed_at.has_value());
  EXPECT_EQ(*first_failed_at, Milliseconds(100));
  EXPECT_EQ(*second_failed_at, Milliseconds(70) + Milliseconds(100));
}

TEST(RefFailureTest, RecoveredIncarnationRefsAreNotSweptByOldDeath) {
  // Kill a node, recover it before the detection delay elapses, and issue a
  // fresh Get from the new incarnation: the delayed death observation must
  // fail only the old incarnation's refs.
  core::HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("x");
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(1)));
  cluster.RunAll();
  const auto old_get = cluster.client(1).Get(ObjectID::FromName("never"));
  cluster.KillNode(1);
  cluster.simulator().ScheduleAt(Milliseconds(50), [&] { cluster.RecoverNode(1); });
  std::optional<store::Buffer> fresh_value;
  bool fresh_failed = false;
  cluster.simulator().ScheduleAt(Milliseconds(60), [&] {
    cluster.client(1)
        .Get(id)
        .Then([&](const store::Buffer& b) { fresh_value = b; })
        .OnError([&](const RefError&) { fresh_failed = true; });
  });
  cluster.RunAll();
  EXPECT_TRUE(old_get.failed());
  EXPECT_FALSE(fresh_failed);
  ASSERT_TRUE(fresh_value.has_value());
  EXPECT_EQ(fresh_value->size(), MB(1));
}

TEST(RefFailureTest, OpsOnAKilledNodeNeverStartAndTheRejoinStartsEmpty) {
  // A Put issued on a node that is dead but whose death is not yet observed
  // must not start: it would re-create a store entry after the kill wiped
  // the store, and the rejoined node's own Put of that id would abort.
  core::HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("grad");
  cluster.KillNode(1);  // observed at 100 ms
  std::optional<RefError> put_error;
  SimTime failed_at = 0;
  cluster.simulator().ScheduleAt(Milliseconds(10), [&] {
    cluster.client(1).Put(id, MakeValue(1.0f)).OnError([&](const RefError& error) {
      put_error = error;
      failed_at = cluster.Now();
    });
  });
  cluster.RunAll();
  ASSERT_TRUE(put_error.has_value());
  EXPECT_EQ(put_error->code, RefErrorCode::kProducerLost);
  EXPECT_EQ(failed_at, Milliseconds(100));
  // Once the death is observed, an op issued there fails at once.
  EXPECT_TRUE(cluster.client(1).Get(id).failed());
  EXPECT_TRUE(cluster.client(1).Delete(id).failed());
  const core::ReduceSpec sum{.target = ObjectID::FromName("sum"), .sources = {id}};
  EXPECT_TRUE(cluster.client(1).Reduce(sum).failed());

  cluster.RecoverNode(1);
  EXPECT_TRUE(cluster.store(1).ListObjects().empty());
  bool stored = false;
  cluster.client(1).Put(id, MakeValue(2.0f)).Then([&] { stored = true; });
  cluster.RunAll();
  EXPECT_TRUE(stored);
}

// ----------------------------------------------------------------------
// RAII membership subscriptions (satellite).
// ----------------------------------------------------------------------

TEST(MembershipSubscriptionTest, DroppedHandleStopsNotifications) {
  core::HopliteCluster cluster(TestOptions(3));
  int outer_events = 0;
  int inner_events = 0;
  const auto outer = cluster.AddMembershipListener(
      [&](NodeID, bool) { ++outer_events; });
  {
    const auto inner = cluster.AddMembershipListener(
        [&](NodeID, bool) { ++inner_events; });
    cluster.KillNode(1);
    cluster.RunAll();
    EXPECT_EQ(inner_events, 1);
  }
  // The inner observer died before the cluster: its std::function is gone,
  // so this kill must not touch it (the pre-RAII API left it dangling).
  cluster.KillNode(2);
  cluster.RunAll();
  EXPECT_EQ(inner_events, 1);
  EXPECT_EQ(outer_events, 2);
}

TEST(MembershipSubscriptionTest, RejoinInsideTheDetectionDelayIsNotReportedDeadLater) {
  // Node 1 rejoins 50 ms after its kill, long before the 740 ms detection
  // delay runs out: the rejoin reports the death first, and the delayed
  // observation must neither report the live node dead again nor erase
  // the locations its new incarnation registered.
  core::HopliteCluster::Options options = TestOptions(3);
  options.network.failure_detection_delay = Milliseconds(740);
  core::HopliteCluster cluster(options);
  std::vector<std::pair<SimTime, bool>> heard;
  const auto subscription = cluster.AddMembershipListener(
      [&](NodeID, bool alive) { heard.emplace_back(cluster.Now(), alive); });
  const ObjectID id = ObjectID::FromName("rejoined");
  auto& sim = cluster.simulator();
  sim.ScheduleAt(Milliseconds(100), [&] { cluster.KillNode(1); });
  sim.ScheduleAt(Milliseconds(150), [&] { cluster.RecoverNode(1); });
  sim.ScheduleAt(Milliseconds(200),
                 [&] { cluster.client(1).Put(id, store::Buffer::OfSize(MB(1))); });
  std::optional<store::Buffer> got;
  sim.ScheduleAt(Milliseconds(900), [&] {
    cluster.client(2).Get(id).Then([&](const store::Buffer& b) { got = b; });
  });
  cluster.RunAll();
  EXPECT_EQ(heard, (std::vector<std::pair<SimTime, bool>>{{Milliseconds(150), false},
                                                          {Milliseconds(150), true}}));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), MB(1));
  EXPECT_EQ(cluster.directory().LocationsOf(id), (std::vector<NodeID>{1, 2}));
}

TEST(MembershipSubscriptionTest, HandleIsMovable) {
  core::HopliteCluster cluster(TestOptions(2));
  int events = 0;
  auto a = cluster.AddMembershipListener([&](NodeID, bool) { ++events; });
  auto b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  b.Reset();
  EXPECT_FALSE(b.active());
  cluster.KillNode(1);
  cluster.RunAll();
  EXPECT_EQ(events, 0);
}

// ----------------------------------------------------------------------
// Determinism: a seeded DAG of 30 puts, 50 gets and 10 WhenAll groups
// resolves identically across two runs.
// ----------------------------------------------------------------------

std::vector<std::pair<int, SimTime>> RunRefDag(std::uint64_t seed) {
  core::HopliteCluster cluster(TestOptions(8));
  auto& sim = cluster.simulator();
  Rng rng(seed);
  std::vector<std::pair<int, SimTime>> log;
  std::vector<Ref<store::Buffer>> gets;
  int tag = 0;

  // 30 producers: staggered Puts of varying sizes (some inline-small).
  std::vector<ObjectID> objects;
  for (int i = 0; i < 30; ++i) {
    const ObjectID id = ObjectID::FromName("dag").WithIndex(i);
    objects.push_back(id);
    const NodeID src = static_cast<NodeID>(rng.NextBounded(8));
    const std::int64_t bytes =
        i % 3 == 0 ? KB(1) : MB(1) + static_cast<std::int64_t>(rng.NextBounded(8)) * MB(1);
    At(sim, Milliseconds(static_cast<std::int64_t>(rng.NextBounded(20))))
        .Then([&cluster, src, id, bytes] {
          cluster.client(src).Put(id, store::Buffer::OfSize(bytes));
        });
  }
  // 50 consumers: Gets with Then chains from random nodes.
  for (int i = 0; i < 50; ++i) {
    const ObjectID id = objects[rng.NextBounded(objects.size())];
    const NodeID dst = static_cast<NodeID>(rng.NextBounded(8));
    const int this_tag = tag++;
    gets.push_back(cluster.client(dst)
                       .Get(id, core::GetOptions{.read_only = i % 2 == 0})
                       .Then([&log, &cluster, this_tag](const store::Buffer& b) {
                         log.emplace_back(this_tag, cluster.Now());
                         return b;
                       }));
  }
  // 10 WhenAll groups over random windows of the gets.
  for (int i = 0; i < 10; ++i) {
    const std::size_t start = rng.NextBounded(gets.size() - 5);
    const std::vector<Ref<store::Buffer>> window(gets.begin() + start,
                                                 gets.begin() + start + 5);
    const int all_tag = tag++;
    WhenAll(window).Then([&log, &cluster, all_tag] {
      log.emplace_back(all_tag, cluster.Now());
    });
  }
  cluster.RunAll();
  EXPECT_EQ(log.size(), 50u + 10u);
  return log;
}

TEST(RefDeterminismTest, HundredRefDagResolvesIdenticallyAcrossRuns) {
  const auto first = RunRefDag(17);
  const auto second = RunRefDag(17);
  EXPECT_EQ(first, second);
  // And a different seed actually changes the schedule (the test is live).
  EXPECT_NE(first, RunRefDag(18));
}

}  // namespace
}  // namespace hoplite
