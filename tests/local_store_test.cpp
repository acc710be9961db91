// Unit tests for the per-node object store.
#include "store/local_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/det.h"
#include "common/rng.h"
#include "common/units.h"

namespace hoplite::store {
namespace {

const ObjectID kObj = ObjectID::FromName("x");
const ObjectID kObj2 = ObjectID::FromName("y");

TEST(LocalStoreTest, CreateAdvanceComplete) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(8), CopyKind::kPrimary, MB(4));
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_FALSE(store.IsComplete(kObj));
  EXPECT_EQ(store.ChunksReady(kObj), 0);

  store.AdvanceChunks(kObj, 1);
  EXPECT_EQ(store.ChunksReady(kObj), 1);

  store.MarkComplete(kObj, Buffer::OfSize(MB(8)));
  EXPECT_TRUE(store.IsComplete(kObj));
  EXPECT_EQ(store.ChunksReady(kObj), 2);
  EXPECT_EQ(store.PayloadOf(kObj).size(), MB(8));
}

TEST(LocalStoreTest, AdvanceIsMonotone) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  store.AdvanceChunks(kObj, 3);
  store.AdvanceChunks(kObj, 1);  // ignored
  EXPECT_EQ(store.ChunksReady(kObj), 3);
}

TEST(LocalStoreTest, ChunkProgressSubscription) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  std::vector<std::int64_t> seen;
  store.OnChunkProgress(kObj, [&](std::int64_t c) { seen.push_back(c); });
  store.AdvanceChunks(kObj, 2);
  store.AdvanceChunks(kObj, 4);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2, 4}));
}

TEST(LocalStoreTest, ChunkSubscriptionFiresImmediatelyIfProgressExists) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  store.AdvanceChunks(kObj, 2);
  std::vector<std::int64_t> seen;
  store.OnChunkProgress(kObj, [&](std::int64_t c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2}));
}

TEST(LocalStoreTest, CompletionSubscription) {
  LocalStore store(0);
  store.CreatePartial(kObj, 100, CopyKind::kPrimary, MB(4));
  int fired = 0;
  store.OnCompletion(kObj, [&](const Buffer& b) {
    EXPECT_EQ(b.size(), 100);
    ++fired;
  });
  store.MarkComplete(kObj, Buffer::OfSize(100));
  EXPECT_EQ(fired, 1);
  // Subscribing after completion fires immediately.
  store.OnCompletion(kObj, [&](const Buffer&) { ++fired; });
  EXPECT_EQ(fired, 2);
}

TEST(LocalStoreTest, UnsubscribeStopsCallbacks) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  int fired = 0;
  const auto token = store.OnChunkProgress(kObj, [&](std::int64_t) { ++fired; });
  store.Unsubscribe(kObj, token);
  store.AdvanceChunks(kObj, 2);
  EXPECT_EQ(fired, 0);
}

TEST(LocalStoreTest, RemoveDropsEntry) {
  LocalStore store(0);
  store.CreatePartial(kObj, 100, CopyKind::kPrimary, MB(4));
  EXPECT_EQ(store.used_bytes(), 100);
  store.Remove(kObj);
  EXPECT_FALSE(store.Contains(kObj));
  EXPECT_EQ(store.used_bytes(), 0);
  store.Remove(kObj);  // idempotent
}

TEST(LocalStoreTest, LruEvictsOnlyUnpinnedReplicas) {
  LocalStore store(0, /*capacity_bytes=*/MB(10));
  // Primary: never evicted.
  store.CreatePartial(kObj, MB(6), CopyKind::kPrimary, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  // Replica: evictable once complete.
  store.CreatePartial(kObj2, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj2, Buffer::OfSize(MB(6)));
  // Over capacity (12 MB > 10 MB): the replica must have been evicted.
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_FALSE(store.Contains(kObj2));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(LocalStoreTest, EvictionSkipsReferencedEntries) {
  LocalStore store(0, MB(10));
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  store.Ref(kObj);
  store.CreatePartial(kObj2, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj2, Buffer::OfSize(MB(6)));
  // kObj is referenced; kObj2 (more recent) must be the victim.
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_FALSE(store.Contains(kObj2));
  store.Unref(kObj);
}

TEST(LocalStoreTest, EvictionSkipsPartialEntries) {
  LocalStore store(0, MB(10));
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));   // stays partial
  store.CreatePartial(kObj2, MB(6), CopyKind::kReplica, MB(4));  // stays partial
  // Nothing is evictable; the store stays over capacity rather than dropping
  // in-flight data.
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_TRUE(store.Contains(kObj2));
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(LocalStoreTest, LruOrderRespectsTouch) {
  LocalStore store(0, MB(12));
  const ObjectID a = ObjectID::FromName("a");
  const ObjectID b = ObjectID::FromName("b");
  store.CreatePartial(a, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(a, Buffer::OfSize(MB(6)));
  store.CreatePartial(b, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(b, Buffer::OfSize(MB(6)));
  store.Touch(a);  // now b is least-recently-used
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  EXPECT_TRUE(store.Contains(a));
  EXPECT_FALSE(store.Contains(b));
}

TEST(LocalStoreTest, UnrefAfterRemoveIsSafe) {
  LocalStore store(0);
  store.CreatePartial(kObj, 100, CopyKind::kReplica, MB(4));
  store.Ref(kObj);
  store.Remove(kObj);  // Delete can race with an in-flight send
  store.Unref(kObj);   // must not crash
  EXPECT_FALSE(store.Contains(kObj));
}

TEST(LocalStoreTest, CompletionSubscriberMayEvictTheEntry) {
  // A 60 B replica with two completion subscribers in a 100 B store. The
  // first creates a 60 B primary, which evicts the replica it was told
  // about: complete and unreferenced, it is a candidate from the moment it
  // completes. The second runs after that eviction and must still be
  // handed the full payload.
  LocalStore store(0, /*capacity_bytes=*/100);
  const ObjectID a = ObjectID::FromName("a");
  const ObjectID b = ObjectID::FromName("b");
  store.CreatePartial(a, 60, CopyKind::kReplica, MB(4));
  store.OnCompletion(a, [&](const Buffer&) {
    store.CreatePartial(b, 60, CopyKind::kPrimary, MB(4));
  });
  std::int64_t seen = -1;
  bool resident_for_second = true;
  store.OnCompletion(a, [&](const Buffer& payload) {
    resident_for_second = store.Contains(a);
    seen = payload.size();
  });
  store.MarkComplete(a, Buffer::OfSize(60));
  EXPECT_FALSE(resident_for_second);
  EXPECT_EQ(seen, 60);
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_TRUE(store.Contains(b));
}

TEST(LocalStoreTest, ChunkSubscriberEvictionStillCompletes) {
  // A 60 B replica in a 100 B store whose chunk subscriber creates a 60 B
  // primary: that evicts the replica before its completion subscribers run.
  // They must run anyway, or a Get waiting on one would hang.
  LocalStore store(0, /*capacity_bytes=*/100);
  const ObjectID a = ObjectID::FromName("a");
  const ObjectID b = ObjectID::FromName("b");
  store.CreatePartial(a, 60, CopyKind::kReplica, MB(4));
  store.OnChunkProgress(a, [&](std::int64_t) {
    if (!store.Contains(b)) store.CreatePartial(b, 60, CopyKind::kPrimary, MB(4));
  });
  int completions = 0;
  std::int64_t seen = -1;
  store.OnCompletion(a, [&](const Buffer& payload) {
    ++completions;
    seen = payload.size();
  });
  store.MarkComplete(a, Buffer::OfSize(60));
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_FALSE(store.Contains(a));
  EXPECT_TRUE(store.Contains(b));
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(seen, 60);
}

TEST(LocalStoreTest, ListObjects) {
  LocalStore store(0);
  store.CreatePartial(kObj, 1, CopyKind::kPrimary, MB(4));
  store.CreatePartial(kObj2, 2, CopyKind::kPrimary, MB(4));
  EXPECT_EQ(store.ListObjects().size(), 2u);
}

TEST(LocalStoreTest, EmptyObjectCompletes) {
  LocalStore store(0);
  store.CreatePartial(kObj, 0, CopyKind::kPrimary, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(0));
  EXPECT_TRUE(store.IsComplete(kObj));
  EXPECT_EQ(store.ChunksReady(kObj), 1);  // the single empty chunk
}

struct GoldenStoreTrace {
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
  std::uint64_t evictions = 0;

  void Fold(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (word >> (8 * byte)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  }
};

/// 100 seeded sequences of 200 store operations each on a 400 B store fed
/// 1-100 B objects from a pool of 24 ids, so ids come back after eviction
/// and removal (exercising the ghost lists). About half the creates are
/// pinned primaries; the rest spread over the three evictable kinds. After
/// every step the trace folds (sequence, step, evictions, used bytes,
/// resident ids), so any change to which entry a policy evicts, or when,
/// moves the digest.
GoldenStoreTrace ReplayGoldenStoreOps(cache::EvictionPolicyKind kind) {
  constexpr std::int64_t kCapacity = 400;
  constexpr int kPool = 24;
  GoldenStoreTrace trace;
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    Rng rng(0x570e + seq);
    LocalStore store(0, kCapacity, cache::MakeEvictionPolicy(kind, kCapacity));
    det::Map<ObjectID, int> held;  // refs this sequence holds, per object
    auto pick = [&rng](const std::vector<ObjectID>& from) {
      return from[rng.NextBounded(from.size())];
    };
    for (int step = 0; step < 200; ++step) {
      const std::vector<ObjectID> resident = store.ListObjects();
      const std::uint64_t op = rng.NextBounded(100);
      if (op < 30) {
        const ObjectID id = ObjectID::FromName("golden").WithIndex(
            static_cast<std::int64_t>(rng.NextBounded(kPool)));
        const auto size = 1 + static_cast<std::int64_t>(rng.NextBounded(100));
        const std::uint64_t draw = rng.NextBounded(6);
        const CopyKind copy = draw < 3   ? CopyKind::kPrimary
                              : draw < 4 ? CopyKind::kReplica
                              : draw < 5 ? CopyKind::kReduced
                                         : CopyKind::kCached;
        if (!store.Contains(id)) store.CreatePartial(id, size, copy, 16);
      } else if (op < 55) {
        std::vector<ObjectID> partial;
        for (const ObjectID id : resident) {
          if (!store.IsComplete(id)) partial.push_back(id);
        }
        if (!partial.empty()) {
          const ObjectID id = pick(partial);
          store.MarkComplete(id, Buffer::OfSize(store.StateOf(id).size));
        }
      } else if (op < 65) {
        if (!resident.empty()) {
          const ObjectID id = pick(resident);
          store.Ref(id);
          ++held[id];
        }
      } else if (op < 75) {
        if (!held.empty()) {
          std::vector<ObjectID> reffed;
          for (const auto& [id, count] : held) reffed.push_back(id);
          const ObjectID id = pick(reffed);
          store.Unref(id);
          if (--held[id] == 0) held.erase(id);
        }
      } else if (op < 90) {
        if (!resident.empty()) store.Touch(pick(resident));
      } else if (!resident.empty()) {
        const ObjectID id = pick(resident);
        store.Remove(id);
        held.erase(id);  // a removed entry's refs died with it
      }
      trace.Fold(seq);
      trace.Fold(static_cast<std::uint64_t>(step));
      trace.Fold(store.evictions());
      trace.Fold(static_cast<std::uint64_t>(store.used_bytes()));
      for (const ObjectID id : store.ListObjects()) trace.Fold(id.value());
    }
    trace.evictions += store.evictions();
  }
  return trace;
}

TEST(LocalStoreGoldenTest, LruEvictionTraceIsPinned) {
  const GoldenStoreTrace trace = ReplayGoldenStoreOps(cache::EvictionPolicyKind::kLru);
  EXPECT_EQ(trace.digest, 0xfedf4648fbe96b6dULL) << std::hex << "digest 0x" << trace.digest;
  EXPECT_EQ(trace.evictions, 1363u);
}

TEST(LocalStoreGoldenTest, TwoQEvictionTraceIsPinned) {
  const GoldenStoreTrace trace = ReplayGoldenStoreOps(cache::EvictionPolicyKind::kTwoQ);
  EXPECT_EQ(trace.digest, 0x1d9652d28b1b457dULL) << std::hex << "digest 0x" << trace.digest;
  EXPECT_EQ(trace.evictions, 1364u);
}

TEST(LocalStoreGoldenTest, SegmentedLruEvictionTraceIsPinned) {
  const GoldenStoreTrace trace =
      ReplayGoldenStoreOps(cache::EvictionPolicyKind::kSegmentedLru);
  EXPECT_EQ(trace.digest, 0x8ba63fa4a256c91bULL) << std::hex << "digest 0x" << trace.digest;
  EXPECT_EQ(trace.evictions, 1361u);
}

}  // namespace
}  // namespace hoplite::store
