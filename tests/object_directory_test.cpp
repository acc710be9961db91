// Unit tests for the object directory service.
#include "directory/object_directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hoplite::directory {
namespace {

class DirectoryTest : public ::testing::Test {
 protected:
  explicit DirectoryTest(bool coalescing = false)
      : net_(MakeNetwork(coalescing)), dir_(*net_, DirectoryConfig{}) {}

  std::unique_ptr<net::FlatFabric> MakeNetwork(bool coalescing) {
    net::ClusterConfig cfg;
    cfg.num_nodes = 8;
    cfg.per_message_overhead = 0;
    cfg.cache.coalescing = coalescing;
    return std::make_unique<net::FlatFabric>(sim_, cfg);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::FlatFabric> net_;
  ObjectDirectory dir_;
  const ObjectID obj_ = ObjectID::FromName("payload");
};

/// The same directory with request coalescing on: fetch-origin partials are
/// not grantable, so a claim parks while the only complete copy is busy.
class CoalescingDirectoryTest : public DirectoryTest {
 protected:
  CoalescingDirectoryTest() : DirectoryTest(/*coalescing=*/true) {}
};

/// `count` distinct object ids in ascending order.
std::vector<ObjectID> AscendingIds(const char* name, int count) {
  std::vector<ObjectID> ids;
  for (int i = 0; i < count; ++i) ids.push_back(ObjectID::FromName(name).WithIndex(i));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(DirectoryTest, RegisterThenQuery) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  EXPECT_TRUE(dir_.HasObject(obj_));
  EXPECT_EQ(dir_.SizeOf(obj_), MB(1));
  EXPECT_EQ(dir_.StateOf(obj_, 2), LocationState::kAvailablePartial);
  EXPECT_EQ(dir_.LocationsOf(obj_), (std::vector<NodeID>{2}));
}

TEST_F(DirectoryTest, WriteLatencyIsCharged) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  EXPECT_FALSE(dir_.HasObject(obj_));  // not yet applied
  sim_.RunUntil(Microseconds(166));
  EXPECT_FALSE(dir_.HasObject(obj_));
  sim_.RunUntil(Microseconds(167));
  EXPECT_TRUE(dir_.HasObject(obj_));
}

TEST_F(DirectoryTest, MarkCompletePromotesLocation) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  sim_.Run();
  EXPECT_EQ(dir_.StateOf(obj_, 2), LocationState::kAvailableComplete);
}

TEST_F(DirectoryTest, ClaimGrantsCompleteSenderAndMarksItBusy) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
  EXPECT_TRUE(reply->sender_complete);
  EXPECT_FALSE(reply->inline_payload);
  EXPECT_EQ(reply->object_size, MB(1));
  EXPECT_EQ(reply->sender_chain, (std::vector<NodeID>{2}));
  // Sender is now busy; receiver self-registered as partial.
  EXPECT_EQ(dir_.StateOf(obj_, 2), LocationState::kBusy);
  EXPECT_EQ(dir_.StateOf(obj_, 5), LocationState::kAvailablePartial);
}

TEST_F(DirectoryTest, ClaimPrefersCompleteOverPartial) {
  dir_.RegisterPartial(obj_, 1, MB(1));  // partial
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);  // complete
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
}

TEST_F(DirectoryTest, SecondClaimFallsBackToPartialCopy) {
  // Mirrors Figure 4b: S is busy sending to R1, so R2 gets R1 (partial).
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  std::optional<ClaimReply> r1;
  std::optional<ClaimReply> r2;
  dir_.ClaimSender(obj_, 1, [&](const ClaimReply& r) { r1 = r; });
  sim_.Run();
  dir_.ClaimSender(obj_, 2, [&](const ClaimReply& r) { r2 = r; });
  sim_.Run();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->sender, 0);
  EXPECT_EQ(r2->sender, 1);  // the partial copy at R1
  EXPECT_FALSE(r2->sender_complete);
  EXPECT_EQ(r2->sender_chain, (std::vector<NodeID>{0, 1}));
}

TEST_F(DirectoryTest, TransferFinishedReturnsSenderToPoolAndCompletesReceiver) {
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  dir_.TransferFinished(obj_, 0, 1);
  sim_.Run();
  EXPECT_EQ(dir_.StateOf(obj_, 0), LocationState::kAvailableComplete);
  EXPECT_EQ(dir_.StateOf(obj_, 1), LocationState::kAvailableComplete);
}

TEST_F(DirectoryTest, ClaimParksUntilObjectAppears) {
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value());  // parked
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
  EXPECT_FALSE(reply->sender_complete);
}

TEST_F(DirectoryTest, EveryClaimAddsAnAvailablePartialSender) {
  // The claim protocol guarantees the sender pool never empties during a
  // broadcast: each granted receiver immediately becomes an available
  // partial location (this is what builds the dynamic broadcast tree).
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  std::vector<NodeID> granted;
  for (NodeID r = 1; r <= 4; ++r) {
    std::optional<ClaimReply> reply;
    dir_.ClaimSender(obj_, r, [&](const ClaimReply& rep) { reply = rep; });
    sim_.Run();
    ASSERT_TRUE(reply.has_value()) << "receiver " << r << " should never park";
    granted.push_back(reply->sender);
  }
  // Receiver k is granted receiver k-1's partial copy (node 0 then 1, 2, 3).
  EXPECT_EQ(granted, (std::vector<NodeID>{0, 1, 2, 3}));
}

TEST_F(DirectoryTest, ClaimParksWhenOnlySenderIsBusyAndIsServedFifo) {
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  // Node 1's partial copy disappears (e.g. evicted); only busy node 0 left.
  dir_.RemoveLocation(obj_, 1);
  sim_.Run();
  std::optional<ClaimReply> first;
  std::optional<ClaimReply> second;
  dir_.ClaimSender(obj_, 2, [&](const ClaimReply& r) { first = r; });
  sim_.Run();
  EXPECT_FALSE(first.has_value());  // parked: node 0 is busy
  dir_.ClaimSender(obj_, 3, [&](const ClaimReply& r) { second = r; });
  sim_.Run();
  EXPECT_FALSE(second.has_value());
  // The transfer to (now-gone) node 1 finishes: node 0 returns to the pool
  // and the parked claims are served in FIFO order.
  dir_.TransferFinished(obj_, 0, 1);
  sim_.Run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->sender, 0);
  // Receiver 2 self-registered as partial, so receiver 3 fetches from it.
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->sender, 2);
}

TEST_F(DirectoryTest, ClaimNeverGrantsSenderWhoseChainContainsReceiver) {
  // Node 1 fetches from node 0; node 1's chain is {0, 1}... then node 0
  // fails and node 1 re-claims: the only other location is node 2, which is
  // fetching from node 1 (chain {0,1,2} contains 1) — must park, not grant.
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  dir_.ClaimSender(obj_, 2, [](const ClaimReply&) {});  // gets node 1
  sim_.Run();
  ASSERT_EQ(dir_.StateOf(obj_, 1), LocationState::kBusy);
  dir_.NodeFailed(0);
  dir_.TransferAborted(obj_, 0, 1, /*sender_alive=*/false);
  sim_.Run();
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 1, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value()) << "cyclic grant: node 2 depends on node 1";
  // When node 2's fetch aborts and its chain clears, node 1 can claim it.
  dir_.TransferAborted(obj_, 1, 2, /*sender_alive=*/true);
  sim_.Run();
  // Note: node 2 kept only a prefix; it serves as a partial sender.
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
}

TEST_F(DirectoryTest, InlineSmallObjectServedFromDirectory) {
  const auto payload = store::Buffer::FromValues({1, 2, 3, 4});
  bool stored = false;
  dir_.PutInline(obj_, 0, payload, [&] { stored = true; });
  sim_.Run();
  EXPECT_TRUE(stored);
  EXPECT_TRUE(dir_.IsInline(obj_));
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->inline_payload);
  EXPECT_EQ(reply->payload.values(), (std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(reply->sender, kInvalidNode);
}

TEST_F(DirectoryTest, ParkedClaimServedWhenInlinePutArrives) {
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value());
  dir_.PutInline(obj_, 0, store::Buffer::OfSize(100), nullptr);
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->inline_payload);
  EXPECT_EQ(reply->payload.size(), 100);
}

TEST_F(DirectoryTest, SubscriptionPublishesCurrentAndFutureLocations) {
  dir_.RegisterPartial(obj_, 1, MB(1));
  sim_.Run();
  std::vector<LocationEvent> events;
  dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_FALSE(events[0].complete);
  dir_.MarkComplete(obj_, 1);
  dir_.RegisterPartial(obj_, 3, MB(1));
  sim_.Run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[1].complete);
  EXPECT_EQ(events[2].node, 3);
}

TEST_F(DirectoryTest, UnsubscribeStopsEvents) {
  std::vector<LocationEvent> events;
  const auto id = dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  dir_.Unsubscribe(obj_, id);
  dir_.RegisterPartial(obj_, 1, MB(1));
  sim_.Run();
  EXPECT_TRUE(events.empty());
}

TEST_F(DirectoryTest, NodeFailureRemovesLocationsAndPublishesRemoval) {
  dir_.RegisterPartial(obj_, 1, MB(1));
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  std::vector<LocationEvent> events;
  dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  events.clear();
  dir_.NodeFailed(1);
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].removed);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_EQ(dir_.LocationsOf(obj_), (std::vector<NodeID>{2}));
}

TEST_F(DirectoryTest, DeleteReturnsHoldersAndDropsEntry) {
  dir_.RegisterPartial(obj_, 1, MB(1));
  dir_.RegisterPartial(obj_, 4, MB(1));
  sim_.Run();
  std::optional<std::vector<NodeID>> holders;
  dir_.DeleteObject(obj_, [&](std::vector<NodeID> h) { holders = std::move(h); });
  sim_.Run();
  ASSERT_TRUE(holders.has_value());
  EXPECT_EQ(*holders, (std::vector<NodeID>{1, 4}));
  EXPECT_FALSE(dir_.HasObject(obj_));
}

TEST_F(DirectoryTest, NodeFailureDropsOnlyTheDeadReceiversParkedClaims) {
  std::vector<NodeID> replied;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply&) { replied.push_back(5); });
  dir_.ClaimSender(obj_, 6, [&](const ClaimReply&) { replied.push_back(6); });
  sim_.Run();
  dir_.NodeFailed(5);
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  EXPECT_EQ(replied, (std::vector<NodeID>{6}));
}

TEST_F(DirectoryTest, ShardIsStableAndInRange) {
  const NodeID shard = dir_.ShardOf(obj_);
  EXPECT_GE(shard, 0);
  EXPECT_LT(shard, 8);
  EXPECT_EQ(dir_.ShardOf(obj_), shard);
}

TEST_F(DirectoryTest, DeleteWhileParkedKeepsTheClaimAlive) {
  // A claim parked behind a missing sender must survive a concurrent
  // Delete: dropping it would strand the claimant's callback forever. The
  // claim resolves once the object is re-created, exactly as if it had been
  // issued after the delete.
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  int replies = 0;
  NodeID granted = kInvalidNode;
  // Claim the only copy, then re-claim from the same receiver (a client
  // whose first fetch stalled does exactly this): the second claim has no
  // eligible sender — 2 is busy, 5 cannot serve itself — so it parks.
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply&) { ++replies; });
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) {
    ++replies;
    granted = r.sender;
  });
  sim_.Run();
  EXPECT_EQ(replies, 1);
  dir_.DeleteObject(obj_, nullptr);
  sim_.Run();
  // Every copy and the recorded size are gone; the id lives on only as a
  // parking lot (exactly the state a claim-before-put creates).
  EXPECT_EQ(dir_.LocationsOf(obj_), std::vector<NodeID>{});
  EXPECT_EQ(dir_.SizeOf(obj_), std::nullopt);
  EXPECT_EQ(replies, 1) << "parked claim must not be dropped or misfired";
  // Re-create the object: the surviving parked claim is served from it.
  dir_.RegisterPartial(obj_, 3, MB(1));
  dir_.MarkComplete(obj_, 3);
  sim_.Run();
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(granted, 3);
}

TEST_F(DirectoryTest, DeleteWhileClaimInFlightDoesNotResurrectTheEntry) {
  // Delete races a granted (in-flight) claim: the transfer-finished write
  // that lands after the delete must not recreate locations or crash, and
  // the claimant's reply must already have been delivered.
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  sim_.Run();
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
  // The receiver is now a registered partial and the sender is busy; the
  // framework deletes the object while the bytes are still on the wire.
  dir_.DeleteObject(obj_, nullptr);
  sim_.Run();
  EXPECT_FALSE(dir_.HasObject(obj_));
  // The late completion write finds no entry and must be a clean no-op.
  dir_.TransferFinished(obj_, 2, 5);
  sim_.Run();
  EXPECT_FALSE(dir_.HasObject(obj_));
  EXPECT_EQ(dir_.LocationsOf(obj_), std::vector<NodeID>{});
}

TEST_F(DirectoryTest, DeleteWhileClaimReadInFlightParksOnTheFreshEntry) {
  // The claim's read latency straddles the delete: when the read lands the
  // entry is gone, so the claim parks on the fresh entry and resolves when
  // the object reappears.
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  sim_.Run();
  dir_.DeleteObject(obj_, nullptr);  // write latency 167 us < read latency 177 us
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value()) << "claim must park, not resolve on a deleted copy";
  dir_.RegisterPartial(obj_, 7, MB(1));
  dir_.MarkComplete(obj_, 7);
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 7);
}

TEST_F(CoalescingDirectoryTest, NodeFailureWalksTheDeadNodesObjectsInAscendingId) {
  // Node 1 takes a role on ten objects in descending id order: for each, it
  // is served by node 0, the only complete copy, and node 5's claim parks
  // behind it. Node 1's death removes its partial and frees node 0, which
  // is granted to node 5 at once: removals and grants interleave by
  // ascending object id, whatever order the roles began in.
  const std::vector<ObjectID> ids = AscendingIds("walk", 10);
  std::vector<std::pair<char, ObjectID>> log;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    const ObjectID object = *it;
    dir_.RegisterPartial(object, 0, MB(1));
    dir_.MarkComplete(object, 0);
    sim_.Run();
    dir_.ClaimSender(object, 1, [](const ClaimReply&) {});
    sim_.Run();
    ASSERT_EQ(dir_.StateOf(object, 0), LocationState::kBusy);
    dir_.ClaimSender(object, 5, [&log](const ClaimReply& r) {
      EXPECT_EQ(r.sender, 0);
      log.emplace_back('g', r.object);
    });
    dir_.Subscribe(object, [&log](const LocationEvent& e) {
      if (e.removed) log.emplace_back('r', e.object);
    });
    sim_.Run();
  }
  ASSERT_TRUE(log.empty());
  dir_.NodeFailed(1);
  sim_.Run();
  std::vector<std::pair<char, ObjectID>> expected;
  for (const ObjectID object : ids) {
    expected.emplace_back('r', object);
    expected.emplace_back('g', object);
  }
  EXPECT_EQ(log, expected);
  EXPECT_EQ(dir_.failure_visits(), ids.size());
}

TEST_F(DirectoryTest, NodeFailureVisitsOnlyWhatTheNodeHeld) {
  // Node 1 holds 3 of 10,000 objects and has one claim parked on an id no
  // one has produced yet: its death visits those 4 objects, not all of them.
  const std::vector<ObjectID> ids = AscendingIds("many", 10000);
  for (const ObjectID object : ids) dir_.RegisterPartial(object, 0, KB(1));
  for (const std::size_t i : {17u, 4242u, 9001u}) dir_.RegisterPartial(ids[i], 1, KB(1));
  const ObjectID unborn = ObjectID::FromName("unborn");
  bool parked_replied = false;
  dir_.ClaimSender(unborn, 1, [&](const ClaimReply&) { parked_replied = true; });
  sim_.Run();
  ASSERT_EQ(dir_.LocationsOf(ids[4242]), (std::vector<NodeID>{0, 1}));
  dir_.NodeFailed(1);
  sim_.Run();
  EXPECT_LE(dir_.failure_visits(), 4u);
  for (const std::size_t i : {17u, 4242u, 9001u}) {
    EXPECT_EQ(dir_.LocationsOf(ids[i]), (std::vector<NodeID>{0}));
  }
  EXPECT_EQ(dir_.IndexedObjectsOf(1), 0u);
  dir_.RegisterPartial(unborn, 2, KB(1));
  sim_.Run();
  EXPECT_FALSE(parked_replied) << "the dead node's parked claim must be dropped";
}

TEST_F(DirectoryTest, FailureIndexOfANodeThatNeverDiesStaysBounded) {
  // Node 1 registers and deletes 10,000 distinct objects, holding at most
  // one at a time. Its index may keep ids it no longer holds, but each prune
  // leaves only what it holds, and the next one comes at twice that plus 64.
  std::size_t longest = 0;
  for (const ObjectID object : AscendingIds("cycle", 10000)) {
    dir_.RegisterPartial(object, 1, KB(1));
    sim_.Run();
    longest = std::max(longest, dir_.IndexedObjectsOf(1));
    dir_.DeleteObject(object, nullptr);
    sim_.Run();
  }
  EXPECT_LE(longest, 2u * 1 + 64);
}

TEST_F(CoalescingDirectoryTest, EvictingTheLastSupplyRestartsTheCoalescingWindow) {
  // Node 1 caches the inline object and serves node 2; node 3's claim
  // attaches behind it. Node 1 then retracts its copy (evicted): node 2's
  // fetch-origin partial is no supply, so node 3's claim must restart the
  // window from the shard now rather than wait for an unrelated wake-up.
  dir_.PutInline(obj_, 0, store::Buffer::OfSize(100), nullptr);
  sim_.Run();
  std::optional<ClaimReply> first;
  dir_.ClaimSender(obj_, 1, [&](const ClaimReply& r) { first = r; });
  sim_.Run();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(first->inline_payload);
  dir_.RegisterCachedCopy(obj_, 1);
  sim_.Run();
  EXPECT_EQ(dir_.pending_interests(), 0u);
  std::optional<ClaimReply> second;
  dir_.ClaimSender(obj_, 2, [&](const ClaimReply& r) { second = r; });
  sim_.Run();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->sender, 1);
  std::optional<ClaimReply> third;
  dir_.ClaimSender(obj_, 3, [&](const ClaimReply& r) { third = r; });
  sim_.Run();
  ASSERT_FALSE(third.has_value()) << "node 1 is busy and node 2 is still fetching";
  dir_.RemoveLocation(obj_, 1);
  sim_.Run();
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(third->inline_payload);
  EXPECT_EQ(third->payload.size(), 100);
  EXPECT_EQ(dir_.pending_interests(), 1u) << "node 3 opened the new window";
}

}  // namespace
}  // namespace hoplite::directory
