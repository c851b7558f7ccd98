// ThreadPool contract tests: full iteration coverage, exception
// propagation (lowest index wins), deadlock-free nesting, work stealing,
// thread-scoped region marking, and helpers that start after their loop
// returned. These are the properties the deterministic round executor
// builds on.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exec_context.h"

namespace mpcqp {
namespace {

// Force real helper threads before the first pool runs: on a small CI
// machine the spare-core cap would fold every parallel loop down to one
// participant and the work-stealing paths (and their tsan coverage) would
// never execute. Scheduling-only — results are identical either way.
[[maybe_unused]] const bool kForceHelpers = [] {
  ::setenv("MPCQP_LOOP_HELPERS", "7", /*overwrite=*/0);
  return true;
}();

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  int64_t sum = 0;  // Inline: no lock, no atomics needed.
  pool.ParallelFor(100, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += i;
  });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsLowestIndexException) {
  ThreadPool pool(4);
  // Run several times: scheduling varies, the winning exception must not.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> executed{0};
    try {
      pool.ParallelFor(200, [&](int64_t i) {
        executed.fetch_add(1);
        if (i == 13 || i == 77 || i == 150) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 13");
    }
    // All iterations still ran (no early abort mid-loop).
    EXPECT_EQ(executed.load(), 200);
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Every outer iteration issues an inner ParallelFor while all workers
  // are busy with outer iterations; the caller-participates design must
  // drain these inline instead of waiting for a free worker.
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(16, [&](int64_t) {
    pool.ParallelFor(16, [&](int64_t) {
      pool.ParallelFor(4, [&](int64_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 16 * 16 * 4);
}

TEST(ThreadPoolTest, WorkerIndexIsStableAndInRange) {
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);  // Main thread.
  std::mutex mu;
  std::set<int> seen;
  pool.ParallelFor(1000, [&](int64_t) {
    const int index = ThreadPool::current_worker_index();
    ASSERT_GE(index, -1);
    ASSERT_LT(index, kThreads - 1);
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(index);
  });
  // At minimum the caller (-1) or some worker ran; all values in range.
  EXPECT_FALSE(seen.empty());
}

TEST(ThreadPoolTest, ZeroAndNegativeIterationCountsAreNoOps) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](int64_t) { ++calls; });
  pool.ParallelFor(-5, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, StealHeavySkewedLoad) {
  // Iteration 0 is a deliberate straggler: the rest of its owner's block
  // must migrate to thieves instead of queueing behind it. Run under tsan
  // this also locks down the deque handoff (owner front-pop vs. thief
  // back-steal) as race-free.
  ThreadPool pool(8);
  constexpr int64_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](int64_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, InParallelRegionDuringParallelFor) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::CallingThreadInParallelRegion());
  std::atomic<bool> always_in_region{true};
  pool.ParallelFor(64, [&](int64_t) {
    if (!ThreadPool::CallingThreadInParallelRegion()) {
      always_in_region = false;
    }
  });
  EXPECT_TRUE(always_in_region.load());
  EXPECT_FALSE(ThreadPool::CallingThreadInParallelRegion());
}

TEST(ThreadPoolTest, LoopsThatReturnBeforeTheirHelpersRun) {
  // A two-iteration loop usually finishes on its caller before its one
  // helper task is dequeued; the helper then runs against a loop whose
  // body (a stack temporary capturing a stack local) is gone. A second
  // driver keeps the workers busy so helpers start late. ASan's
  // stack-use-after-return detection and TSan flag a helper that touches
  // a finished loop's body or state.
  ThreadPool pool(8);
  std::atomic<bool> stop{false};
  std::atomic<bool> busy_ok{true};
  std::thread busy([&] {
    do {
      std::atomic<int64_t> sum{0};
      pool.ParallelFor(64, [&sum](int64_t i) { sum.fetch_add(i); });
      if (sum.load() != 64 * 63 / 2) busy_ok = false;
    } while (!stop.load());
  });
  constexpr int kLoops = 10000;
  int64_t covered = 0;
  for (int loop = 0; loop < kLoops; ++loop) {
    int hits[2] = {0, 0};
    pool.ParallelFor(2, [&hits](int64_t i) { ++hits[i]; });
    covered += (hits[0] == 1) + (hits[1] == 1);
  }
  stop = true;
  busy.join();
  EXPECT_EQ(covered, 2 * kLoops);
  EXPECT_TRUE(busy_ok.load());
}

// --- Multi-cluster sharing (the serving-runtime contract) ---

TEST(ThreadPoolTest, InParallelRegionIsThreadScopedNotPoolScoped) {
  // While one thread's loop is in flight, a DIFFERENT thread asking "am I
  // in a parallel region?" must hear no — that's what lets cluster A draw
  // hash functions between its loops while cluster B's loops run on the
  // same pool. A pool-wide counter would fail this.
  ThreadPool pool(4);
  std::atomic<bool> loop_running{false};
  std::atomic<bool> observed{false};
  std::atomic<bool> observer_in_region{true};
  std::thread observer([&] {
    while (!loop_running.load()) std::this_thread::yield();
    observer_in_region = ThreadPool::CallingThreadInParallelRegion();
    observed = true;
  });
  pool.ParallelFor(64, [&](int64_t i) {
    EXPECT_TRUE(ThreadPool::CallingThreadInParallelRegion());
    if (i == 0) {
      loop_running = true;
      while (!observed.load()) std::this_thread::yield();
    }
  });
  observer.join();
  EXPECT_FALSE(observer_in_region.load());
  EXPECT_FALSE(ThreadPool::CallingThreadInParallelRegion());
}

TEST(ThreadPoolTest, WorkerIndexStaysPoolScopedAcrossClusters) {
  // Two driver threads ("clusters") hammer the same pool with interleaved
  // loops. Every physical thread must report ONE stable index for
  // its lifetime, in [-1, kThreads - 1), no matter whose morsel it is
  // executing — per-cluster shard arrays sized by num_threads() index with
  // worker+1 and would corrupt memory otherwise.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::map<std::thread::id, std::set<int>> indices;
  auto driver = [&] {
    for (int round = 0; round < 20; ++round) {
      pool.ParallelFor(64, [&](int64_t) {
        const int index = ThreadPool::current_worker_index();
        ASSERT_GE(index, -1);
        ASSERT_LT(index, kThreads - 1);
        std::lock_guard<std::mutex> lock(mu);
        indices[std::this_thread::get_id()].insert(index);
      });
    }
  };
  std::thread a(driver);
  std::thread b(driver);
  a.join();
  b.join();
  ASSERT_FALSE(indices.empty());
  for (const auto& [id, seen] : indices) {
    EXPECT_EQ(seen.size(), 1u) << "a thread reported two worker indices";
  }
  EXPECT_EQ(ThreadPool::current_worker_index(), -1);  // Main thread.
}

// --- ExecContext propagation (per-query attribution on shared workers) ---

TEST(ExecContextTest, DefaultIsNullAndScopesNest) {
  EXPECT_EQ(CurrentExecContext(), nullptr);
  ExecContext outer;
  ExecContext inner;
  {
    ExecContextScope outer_scope(&outer);
    EXPECT_EQ(CurrentExecContext(), &outer);
    {
      ExecContextScope inner_scope(&inner);
      EXPECT_EQ(CurrentExecContext(), &inner);
    }
    EXPECT_EQ(CurrentExecContext(), &outer);
  }
  EXPECT_EQ(CurrentExecContext(), nullptr);
}

TEST(ExecContextTest, PropagatesIntoParallelLoops) {
  ThreadPool pool(4);
  ExecContext context;
  ExecContextScope scope(&context);
  std::atomic<bool> all_match{true};
  pool.ParallelFor(512, [&](int64_t) {
    if (CurrentExecContext() != &context) all_match = false;
  });
  EXPECT_TRUE(all_match.load());
}

TEST(ExecContextTest, ConcurrentLoopsKeepTheirOwnContexts) {
  // Three drivers, each with its own context, fan out onto the SAME pool
  // at once. A worker may execute driver 0's morsel right after driver
  // 2's — each body must still see the context of the loop it belongs to
  // (capture-at-call, not capture-at-thread), and each driver's counter
  // must account for exactly its own iterations.
  ThreadPool pool(4);
  constexpr int kDrivers = 3;
  constexpr int64_t kIters = 4096;
  std::vector<ExecContext> contexts(kDrivers);
  std::vector<std::atomic<int64_t>> counts(kDrivers);
  for (int d = 0; d < kDrivers; ++d) {
    contexts[d].cow_detaches = &counts[d];
  }
  std::atomic<bool> bleed{false};
  std::vector<std::thread> drivers;
  for (int d = 0; d < kDrivers; ++d) {
    drivers.emplace_back([&, d] {
      ExecContextScope scope(&contexts[d]);
      pool.ParallelFor(kIters, [&, d](int64_t) {
        const ExecContext* current = CurrentExecContext();
        if (current != &contexts[d]) {
          bleed = true;
          return;
        }
        current->cow_detaches->fetch_add(1);
      });
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_FALSE(bleed.load());
  for (int d = 0; d < kDrivers; ++d) {
    EXPECT_EQ(counts[d].load(), kIters) << "driver " << d;
  }
}

// --- ExecutorRegistry (the process-wide shared pool) ---

TEST(ExecutorRegistryTest, FirstCallerSizesTheSharedPool) {
  ExecutorRegistry::ResetForTesting();
  EXPECT_EQ(ExecutorRegistry::SharedIfCreated(), nullptr);

  std::shared_ptr<ThreadPool> pool = ExecutorRegistry::Shared(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);
  // Later callers get THE pool; their requested count is ignored.
  EXPECT_EQ(ExecutorRegistry::Shared(8), pool);
  EXPECT_EQ(pool->num_threads(), 3);
  EXPECT_EQ(ExecutorRegistry::SharedIfCreated(), pool);

  ExecutorRegistry::ResetForTesting();
  EXPECT_EQ(ExecutorRegistry::SharedIfCreated(), nullptr);
  // Existing handles outlive the reset (shared_ptr, not a raw singleton).
  std::atomic<int64_t> sum{0};
  pool->ParallelFor(100, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);

  std::shared_ptr<ThreadPool> fresh = ExecutorRegistry::Shared(2);
  EXPECT_NE(fresh, pool);
  EXPECT_EQ(fresh->num_threads(), 2);
  ExecutorRegistry::ResetForTesting();
}

}  // namespace
}  // namespace mpcqp
