// Unit tests for the pluggable store replacement policies: LRU recency
// order, 2Q's ghost-proven promotion and scan resistance, and segmented
// LRU's probation/protected split and tail demotion.
#include "cache/eviction_policy.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace hoplite::cache {
namespace {

const ObjectID kA = ObjectID::FromName("a");
const ObjectID kB = ObjectID::FromName("b");
const ObjectID kC = ObjectID::FromName("c");

/// Inserts an entry the store has already marked evictable (complete,
/// unreferenced, not a primary).
void InsertEvictable(EvictionPolicy& policy, ObjectID object, std::int64_t bytes) {
  policy.OnInsert(object, bytes);
  policy.SetEvictable(object, true);
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kLru, KB(4));
  InsertEvictable(*policy, kA, KB(1));
  InsertEvictable(*policy, kB, KB(1));
  InsertEvictable(*policy, kC, KB(1));
  EXPECT_EQ(policy->PickVictim(), kA);

  policy->OnTouch(kA);  // a is now the most recent; b becomes the tail
  EXPECT_EQ(policy->PickVictim(), kB);

  policy->OnRemove(kB, RemovalCause::kErased);
  EXPECT_EQ(policy->PickVictim(), kC);
  EXPECT_EQ(policy->size(), 2u);
  EXPECT_FALSE(policy->Contains(kB));
}

TEST(LruPolicyTest, NonEvictableTailIsSkipped) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kLru, KB(4));
  InsertEvictable(*policy, kA, KB(1));
  InsertEvictable(*policy, kB, KB(1));
  // The LRU tail is pinned: the pick must pass over it, not give up.
  policy->SetEvictable(kA, false);
  EXPECT_FALSE(policy->IsEvictable(kA));
  EXPECT_TRUE(policy->IsEvictable(kB));
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->SetEvictable(kB, false);
  EXPECT_EQ(policy->PickVictim(), std::nullopt);
  // Unpinned again, the tail is the victim once more.
  policy->SetEvictable(kA, true);
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(TwoQPolicyTest, GhostHitPromotesAndScansSpareTheMainQueue) {
  // capacity 1000 -> A1in target 250, ghost budget 500.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);

  // First life of `a`: probationary, evicted, leaves a ghost.
  InsertEvictable(*policy, kA, 200);
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(kA, RemovalCause::kEvicted);

  // Second life: the ghost proves reuse -> straight into the main queue.
  InsertEvictable(*policy, kA, 200);

  // A one-touch scan overflows A1in; victims must come from the scan
  // entries (FIFO oldest first), never from the proven-hot main queue.
  InsertEvictable(*policy, kB, 200);
  InsertEvictable(*policy, kC, 200);
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->OnTouch(kB);  // a second access proves reuse: b escapes A1in into Am
  // Promotion brought A1in back under target, so the 2Q rule bills Am —
  // whose LRU tail is the ghost-promoted a, not the freshly touched b.
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(TwoQPolicyTest, ErasedEntriesLeaveNoGhost) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);
  InsertEvictable(*policy, kA, 200);
  policy->OnRemove(kA, RemovalCause::kErased);  // deleted, not evicted

  // A recreated id must start probationary again, not inherit hotness.
  InsertEvictable(*policy, kA, 200);
  InsertEvictable(*policy, kB, 200);
  EXPECT_EQ(policy->PickVictim(), kA);  // FIFO: a is the older probationer
}

TEST(SegmentedLruPolicyTest, VictimsComeFromProbationFirst) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  InsertEvictable(*policy, kA, 100);
  InsertEvictable(*policy, kB, 100);
  policy->OnTouch(kA);  // a earns the protected segment

  // b is older than nothing in protection; the untouched probationer goes.
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->OnRemove(kB, RemovalCause::kEvicted);

  // Only protected entries left: the pick falls back to them.
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(SegmentedLruPolicyTest, ProtectedOverflowDemotesItsTail) {
  // capacity 1000 -> protected target 800.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  InsertEvictable(*policy, kA, 300);
  InsertEvictable(*policy, kB, 300);
  InsertEvictable(*policy, kC, 300);
  policy->OnTouch(kA);
  policy->OnTouch(kB);
  policy->OnTouch(kC);  // 900 bytes protected -> the oldest (a) is demoted

  // a re-entered probation; c and b stay protected, so a is the victim.
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(kA, RemovalCause::kEvicted);
  EXPECT_EQ(policy->PickVictim(), kB);
}

}  // namespace
}  // namespace hoplite::cache
