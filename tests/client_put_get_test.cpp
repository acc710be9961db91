// Integration tests for Put/Get/Delete and the implicit broadcast protocol
// (§3.1, §3.3, §3.4.1) on a simulated cluster.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite::core {
namespace {

HopliteCluster::Options TestOptions(int nodes) {
  HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  options.network.one_way_latency = Microseconds(50);
  options.network.per_message_overhead = Microseconds(5);
  options.network.failure_detection_delay = Milliseconds(100);
  return options;
}

std::vector<float> Pattern(std::size_t n, float scale) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = scale * static_cast<float>(i % 97);
  return v;
}

TEST(PutGetTest, LocalPutThenLocalGet) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("x");
  const auto values = Pattern(64 * 1024, 1.0f);  // 256 KB: store path
  bool put_done = false;
  std::optional<store::Buffer> got;
  cluster.client(0).Put(id, store::Buffer::FromValues(values)).Then([&] { put_done = true; });
  cluster.client(0).Get(id).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  EXPECT_TRUE(put_done);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->values(), values);
}

TEST(PutGetTest, RemoteGetTransfersObject) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("x");
  const auto values = Pattern(256 * 1024, 2.0f);  // 1 MB
  std::optional<store::Buffer> got;
  cluster.client(0).Put(id, store::Buffer::FromValues(values));
  cluster.client(1).Get(id).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->values(), values);
  // The receiver now holds a complete replica.
  EXPECT_TRUE(cluster.store(1).IsComplete(id));
  // And the directory knows about both copies.
  const auto locations = cluster.directory().LocationsOf(id);
  EXPECT_EQ(locations, (std::vector<NodeID>{0, 1}));
}

TEST(PutGetTest, GetBeforePutParksAndCompletes) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("x");
  std::optional<store::Buffer> got;
  cluster.client(1).Get(id).Then([&](const store::Buffer& b) { got = b; });
  // Put happens much later; the parked claim must be served then.
  cluster.simulator().ScheduleAt(Milliseconds(50), [&] {
    cluster.client(0).Put(id, store::Buffer::OfSize(MB(1)));
  });
  cluster.RunAll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), MB(1));
}

TEST(PutGetTest, SmallObjectUsesInlineFastPath) {
  HopliteCluster cluster(TestOptions(4));
  const ObjectID id = ObjectID::FromName("small");
  const auto values = Pattern(256, 1.0f);  // 1 KB < 64 KB threshold
  std::optional<store::Buffer> got;
  cluster.client(0).Put(id, store::Buffer::FromValues(values));
  cluster.client(3).Get(id).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->values(), values);
  EXPECT_TRUE(cluster.directory().IsInline(id));
  // No store entry anywhere: the payload lives in the directory (§3.2).
  EXPECT_FALSE(cluster.store(0).Contains(id));
  EXPECT_FALSE(cluster.store(3).Contains(id));
}

TEST(PutGetTest, ReadOnlyGetSkipsWorkerCopy) {
  // With read_only, the callback fires as soon as the store copy completes;
  // a mutable Get pays an extra (pipelined) memcpy. Compare completion times.
  const ObjectID id = ObjectID::FromName("x");
  SimTime t_ro = 0;
  SimTime t_rw = 0;
  for (const bool read_only : {true, false}) {
    HopliteCluster cluster(TestOptions(2));
    SimTime done = 0;
    cluster.client(0).Put(id, store::Buffer::OfSize(MB(64)));
    cluster.client(1)
        .Get(id, GetOptions{.read_only = read_only})
        .Then([&](const store::Buffer&) { done = cluster.Now(); });
    cluster.RunAll();
    (read_only ? t_ro : t_rw) = done;
  }
  EXPECT_GT(t_ro, 0);
  EXPECT_GT(t_rw, t_ro);
  // Pipelined worker copy should cost roughly one chunk of memcpy, far less
  // than a full (64 MB / 10 GBps = 6.7 ms) blocking copy.
  EXPECT_LT(t_rw - t_ro, Milliseconds(2));
}

TEST(PutGetTest, PipeliningBeatsSequentialTransfers) {
  // End-to-end remote Get of a large object with chunk pipelining should be
  // close to the pure serialization bound, not 3x it (put-copy + network +
  // get-copy run overlapped, §3.3).
  const ObjectID id = ObjectID::FromName("big");
  auto run = [&](bool pipelined) {
    auto options = TestOptions(2);
    options.hoplite.pipeline_worker_copies = pipelined;
    HopliteCluster cluster(options);
    SimTime done = 0;
    cluster.client(0).Put(id, store::Buffer::OfSize(GB(1)));
    cluster.client(1).Get(id).Then([&](const store::Buffer&) { done = cluster.Now(); });
    cluster.RunAll();
    return done;
  };
  const SimTime pipelined = run(true);
  const SimTime sequential = run(false);
  const double network_bound = ToSeconds(TransferTime(GB(1), Gbps(10)));
  EXPECT_LT(ToSeconds(pipelined), network_bound * 1.15);
  EXPECT_GT(ToSeconds(sequential),
            network_bound + 2 * ToSeconds(TransferTime(GB(1), GBps(10))) * 0.9);
}

TEST(PutGetTest, ConcurrentGettersOfSameObjectShareOneFetch) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("x");
  int arrived = 0;
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(8)));
  cluster.client(1).Get(id).Then([&](const store::Buffer&) { ++arrived; });
  cluster.client(1).Get(id).Then([&](const store::Buffer&) { ++arrived; });
  cluster.RunAll();
  EXPECT_EQ(arrived, 2);
  // Only one network copy was made.
  EXPECT_EQ(cluster.network().TrafficOf(1).bytes_received,
            MB(8) + cluster.network().TrafficOf(1).bytes_received - MB(8));
  EXPECT_LE(cluster.network().TrafficOf(0).bytes_sent, MB(8) + KB(64));
}

TEST(BroadcastTest, ManyReceiversFormDistributionTree) {
  // 8 receivers Get the same 64 MB object. With the claim protocol each
  // sender serves one receiver at a time, so the sender's egress traffic
  // stays ~1 object, not 7.
  HopliteCluster cluster(TestOptions(8));
  const ObjectID id = ObjectID::FromName("model");
  int arrived = 0;
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(64)));
  for (NodeID r = 1; r < 8; ++r) {
    cluster.client(r).Get(id).Then([&](const store::Buffer&) { ++arrived; });
  }
  cluster.RunAll();
  EXPECT_EQ(arrived, 7);
  // Sender bandwidth bound: at most ~2 copies left node 0 (tree fan-out).
  EXPECT_LE(cluster.network().TrafficOf(0).bytes_sent, 3 * MB(64));
  // Everyone ended complete and registered.
  for (NodeID r = 1; r < 8; ++r) {
    EXPECT_TRUE(cluster.store(r).IsComplete(id)) << "receiver " << r;
  }
  EXPECT_EQ(cluster.directory().LocationsOf(id).size(), 8u);
}

TEST(BroadcastTest, TreeBroadcastBeatsSenderSerialization) {
  // Latency of the slowest of 15 receivers should be far below 15 sequential
  // sends from the origin (what Ray does), because receivers re-serve.
  HopliteCluster cluster(TestOptions(16));
  const ObjectID id = ObjectID::FromName("model");
  const std::int64_t size = MB(256);
  int arrived = 0;
  SimTime last = 0;
  cluster.client(0).Put(id, store::Buffer::OfSize(size));
  for (NodeID r = 1; r < 16; ++r) {
    cluster.client(r).Get(id).Then([&](const store::Buffer&) {
      ++arrived;
      last = cluster.Now();
    });
  }
  cluster.RunAll();
  EXPECT_EQ(arrived, 15);
  const double serialized = 15.0 * ToSeconds(TransferTime(size, Gbps(10)));
  EXPECT_LT(ToSeconds(last), serialized / 2.5);
}

TEST(BroadcastTest, LateReceiverFetchesFromAnyCompleteCopy) {
  HopliteCluster cluster(TestOptions(4));
  const ObjectID id = ObjectID::FromName("x");
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(8)));
  int early = 0;
  cluster.client(1).Get(id).Then([&](const store::Buffer&) { ++early; });
  cluster.RunAll();
  // Much later, a new receiver arrives; both 0 and 1 hold complete copies.
  int late = 0;
  cluster.client(2).Get(id).Then([&](const store::Buffer&) { ++late; });
  cluster.RunAll();
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 1);
}

TEST(DeleteTest, DeleteRemovesAllCopies) {
  HopliteCluster cluster(TestOptions(3));
  const ObjectID id = ObjectID::FromName("x");
  cluster.client(0).Put(id, store::Buffer::OfSize(MB(4)));
  cluster.client(1).Get(id).Then([](const store::Buffer&) {});
  cluster.client(2).Get(id).Then([](const store::Buffer&) {});
  cluster.RunAll();
  EXPECT_TRUE(cluster.store(1).Contains(id));
  bool deleted = false;
  cluster.client(0).Delete(id).Then([&] { deleted = true; });
  cluster.RunAll();
  EXPECT_TRUE(deleted);
  EXPECT_FALSE(cluster.store(0).Contains(id));
  EXPECT_FALSE(cluster.store(1).Contains(id));
  EXPECT_FALSE(cluster.store(2).Contains(id));
  EXPECT_FALSE(cluster.directory().HasObject(id));
}

TEST(DeleteTest, DeleteInlineObject) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("tiny");
  cluster.client(0).Put(id, store::Buffer::OfSize(KB(1)));
  cluster.RunAll();
  EXPECT_TRUE(cluster.directory().IsInline(id));
  cluster.client(0).Delete(id);
  cluster.RunAll();
  EXPECT_FALSE(cluster.directory().HasObject(id));
}

TEST(PutGetTest, EmptyObjectRoundTrip) {
  HopliteCluster cluster(TestOptions(2));
  const ObjectID id = ObjectID::FromName("empty");
  std::optional<store::Buffer> got;
  cluster.client(0).Put(id, store::Buffer::OfSize(0));
  cluster.client(1).Get(id).Then([&](const store::Buffer& b) { got = b; });
  cluster.RunAll();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 0);
}

TEST(PutGetTest, ManyDistinctObjectsInParallel) {
  HopliteCluster cluster(TestOptions(4));
  constexpr int kObjects = 32;
  int arrived = 0;
  for (int i = 0; i < kObjects; ++i) {
    const ObjectID id = ObjectID::FromName("obj").WithIndex(i);
    const NodeID src = static_cast<NodeID>(i % 4);
    const NodeID dst = static_cast<NodeID>((i + 1) % 4);
    cluster.client(src).Put(id, store::Buffer::OfSize(MB(1)));
    cluster.client(dst).Get(id).Then([&](const store::Buffer&) { ++arrived; });
  }
  cluster.RunAll();
  EXPECT_EQ(arrived, kObjects);
}

}  // namespace
}  // namespace hoplite::core
