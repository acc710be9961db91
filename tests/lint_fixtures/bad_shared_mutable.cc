// Lint self-test fixture: thread-shared mutable state outside the
// sanctioned owners (event engine, bench --jobs pool). Shards share no
// state: each engine domain runs on one shard only.
// Never compiled; consumed by `lint_determinism.py --self-test`.
#include <atomic>
#include <mutex>
#include <thread>

std::atomic<int> racy_counter{0};  // expect-lint: shared-mutable
std::mutex racy_mu;  // expect-lint: shared-mutable
thread_local int per_thread_cache = 0;  // expect-lint: shared-mutable

void SideChannelBetweenShards() {
  std::thread worker([] { racy_counter.fetch_add(1); });  // expect-lint: shared-mutable
  {
    std::lock_guard<std::mutex> lock(racy_mu);  // expect-lint: shared-mutable
    ++per_thread_cache;
  }
  worker.join();
}
