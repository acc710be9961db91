// Unit tests for the pluggable store replacement policies: LRU recency
// order, 2Q's ghost-proven promotion and scan resistance, and segmented
// LRU's probation/protected split and tail demotion. Each entry is reached
// through the queue node OnInsert returned, as the store does, so these
// also cover nodes that move between queues.
#include "cache/eviction_policy.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace hoplite::cache {
namespace {

using Handle = EvictionPolicy::Handle;

const ObjectID kA = ObjectID::FromName("a");
const ObjectID kB = ObjectID::FromName("b");
const ObjectID kC = ObjectID::FromName("c");

/// Inserts an entry the store has already marked evictable (complete,
/// unreferenced, not a primary).
Handle InsertEvictable(EvictionPolicy& policy, ObjectID object, std::int64_t bytes) {
  const Handle node = policy.OnInsert(object, bytes);
  policy.SetEvictable(node, true);
  return node;
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kLru, KB(4));
  const Handle a = InsertEvictable(*policy, kA, KB(1));
  const Handle b = InsertEvictable(*policy, kB, KB(1));
  InsertEvictable(*policy, kC, KB(1));
  EXPECT_EQ(policy->PickVictim(), kA);

  policy->OnTouch(a);  // a is now the most recent; b becomes the tail
  EXPECT_EQ(policy->PickVictim(), kB);

  policy->OnRemove(b, RemovalCause::kErased);
  EXPECT_EQ(policy->PickVictim(), kC);
  EXPECT_EQ(policy->size(), 2u);
}

TEST(LruPolicyTest, NonEvictableTailIsSkipped) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kLru, KB(4));
  const Handle a = InsertEvictable(*policy, kA, KB(1));
  const Handle b = InsertEvictable(*policy, kB, KB(1));
  // The LRU tail is pinned: the pick must pass over it, not give up.
  policy->SetEvictable(a, false);
  EXPECT_FALSE(policy->IsEvictable(a));
  EXPECT_TRUE(policy->IsEvictable(b));
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->SetEvictable(b, false);
  EXPECT_EQ(policy->PickVictim(), std::nullopt);
  // Unpinned again, the tail is the victim once more.
  policy->SetEvictable(a, true);
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(TwoQPolicyTest, GhostHitPromotesAndScansSpareTheMainQueue) {
  // capacity 1000 -> A1in target 250, ghost budget 500.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);

  // First life of `a`: probationary, evicted, leaves a ghost.
  const Handle first_a = InsertEvictable(*policy, kA, 200);
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(first_a, RemovalCause::kEvicted);

  // Second life: the ghost proves reuse -> straight into the main queue.
  InsertEvictable(*policy, kA, 200);

  // A one-touch scan overflows A1in; victims must come from the scan
  // entries (FIFO oldest first), never from the proven-hot main queue.
  const Handle b = InsertEvictable(*policy, kB, 200);
  InsertEvictable(*policy, kC, 200);
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->OnTouch(b);  // a second access proves reuse: b escapes A1in into Am
  // Promotion brought A1in back under target, so the 2Q rule bills Am —
  // whose LRU tail is the ghost-promoted a, not the freshly touched b.
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(TwoQPolicyTest, ErasedEntriesLeaveNoGhost) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);
  const Handle first_a = InsertEvictable(*policy, kA, 200);
  policy->OnRemove(first_a, RemovalCause::kErased);  // deleted, not evicted

  // A recreated id must start probationary again, not inherit hotness.
  InsertEvictable(*policy, kA, 200);
  InsertEvictable(*policy, kB, 200);
  EXPECT_EQ(policy->PickVictim(), kA);  // FIFO: a is the older probationer
}

TEST(TwoQPolicyTest, MainQueueEvictionsLeaveNoGhost) {
  // capacity 1000 -> A1in target 250.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);
  const Handle first_a = InsertEvictable(*policy, kA, 200);
  policy->OnTouch(first_a);  // promoted: the node now sits in Am
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(first_a, RemovalCause::kEvicted);
  EXPECT_EQ(policy->PickVictim(), std::nullopt);

  // Only A1in evictions leave ghosts, so a returns on probation: ahead of
  // two 200-byte probationers, A1in is over target and a is its oldest.
  InsertEvictable(*policy, kA, 200);
  InsertEvictable(*policy, kB, 200);
  InsertEvictable(*policy, kC, 200);
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(SegmentedLruPolicyTest, VictimsComeFromProbationFirst) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  const Handle a = InsertEvictable(*policy, kA, 100);
  const Handle b = InsertEvictable(*policy, kB, 100);
  policy->OnTouch(a);  // a earns the protected segment

  // b is older than nothing in protection; the untouched probationer goes.
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->OnRemove(b, RemovalCause::kEvicted);

  // Only protected entries left: the pick falls back to them.
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(SegmentedLruPolicyTest, ProtectedOverflowDemotesItsTail) {
  // capacity 1000 -> protected target 800.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  const Handle a = InsertEvictable(*policy, kA, 300);
  const Handle b = InsertEvictable(*policy, kB, 300);
  const Handle c = InsertEvictable(*policy, kC, 300);
  policy->OnTouch(a);
  policy->OnTouch(b);
  policy->OnTouch(c);  // 900 bytes protected -> the oldest (a) is demoted

  // a re-entered probation; c and b stay protected, so a is the victim.
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(a, RemovalCause::kEvicted);
  EXPECT_EQ(policy->PickVictim(), kB);
}

TEST(SegmentedLruPolicyTest, DemotedEntryLeavesFromProbation) {
  // capacity 1000 -> protected target 800.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  const Handle a = InsertEvictable(*policy, kA, 300);
  const Handle b = InsertEvictable(*policy, kB, 300);
  const Handle c = InsertEvictable(*policy, kC, 300);
  policy->OnTouch(a);
  policy->OnTouch(b);
  policy->OnTouch(c);  // a is demoted to probation

  // Removing a through its handle must leave the protected byte count (b
  // and c, 600) intact, so the next promotion (900 bytes) demotes b, the
  // protected tail, to probation's MRU end: ahead of the newer probationer
  // d, b is probation's LRU end and the victim.
  policy->OnRemove(a, RemovalCause::kErased);
  EXPECT_EQ(policy->size(), 2u);
  policy->OnTouch(InsertEvictable(*policy, kA, 300));
  InsertEvictable(*policy, ObjectID::FromName("d"), 100);
  EXPECT_EQ(policy->PickVictim(), kB);
}

}  // namespace
}  // namespace hoplite::cache
