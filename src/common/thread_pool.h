#ifndef MPCQP_COMMON_THREAD_POOL_H_
#define MPCQP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/exec_context.h"

namespace mpcqp {

// Fixed-size worker pool driving the simulator's parallel round execution.
// Its one entry point is ParallelFor; the MPC costs (L, r) never depend on
// it, so it is a pure execution engine.
//
// `num_threads` is the total degree of parallelism: the pool spawns
// num_threads - 1 worker threads, and ParallelFor additionally runs loop
// bodies on the calling thread. A pool of 1 spawns no threads and executes
// everything inline on the caller, which makes `threads=1` exactly the
// historic serial execution (no locks taken, no scheduling). Parallel
// loops fan out to at most the machine's core count (the caller plus
// spare cores): past that, helper tasks only add context switches. The
// cap affects scheduling only — results are identical either way — and
// the MPCQP_LOOP_HELPERS env var overrides the detected spare-core count.
//
// ParallelFor(n, body) runs body(i) for every i in [0, n) exactly once:
//  - The calling thread participates, so a ParallelFor issued from inside
//    a loop body can never deadlock even when every worker is busy — the
//    nested call simply runs its whole iteration space inline.
//  - Each participant (caller + helpers) owns a contiguous block of
//    iterations in a per-participant deque, takes them front to back
//    (sequential memory order), and when empty steals from the BACK of
//    another participant's deque — the classic work-stealing layout, so a
//    straggler iteration never serializes the loop behind one task, and
//    adjacent iterations stay on one thread.
//  - If bodies throw, the exception raised by the lowest iteration index
//    is rethrown after every iteration has finished. (At num_threads == 1
//    the loop is a plain serial loop and the first throw escapes at once.)
//
// Sharing one pool across many logical clusters (the serving runtime):
// a ThreadPool has no per-client state, so any number of Clusters — and
// therefore any number of concurrently executing queries — may call
// ParallelFor from their own driver threads at once. Helper tasks from
// different loops interleave FIFO in the shared queue (morsel-level
// interleaving across queries); each loop's completion is tracked by its
// own call-scoped state, so loops never observe each other, and a helper
// that starts after its loop returned finds no work and never touches the
// loop's body. Two things make the sharing sound:
//  - current_worker_index() is POOL-scoped, not loop- or cluster-scoped:
//    a worker executing a morsel for cluster A right after one for
//    cluster B still reports its stable pool index, so per-cluster shard
//    arrays sized by num_threads() always index correctly.
//  - CallingThreadInParallelRegion() is CALLING-THREAD-scoped (a
//    thread-local loop depth, not a pool-wide counter): it answers "is
//    this thread inside a parallel loop body of any pool", so cluster A's
//    driver can draw hash functions between loops while cluster B's loops
//    are in flight, while a draw from inside a loop body is still caught
//    at every thread count. The MPCQP_LOOP_HELPERS fan-out cap is
//    process-wide and per-loop.
//
// ExecContext propagation: every ParallelFor captures the calling thread's
// ExecContext (see common/exec_context.h) and installs it on each helper,
// so per-query attribution survives the hop onto shared workers.
class ThreadPool {
 public:
  // Upper bound on num_threads: a pool never spawns more than
  // kMaxThreads - 1 workers (the CLI's --threads range is the same).
  static constexpr int kMaxThreads = 1024;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs body(i) for every i in [0, n); see the class comment for the
  // participation, scheduling, nesting, and exception contract.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& body);

  // Index of the calling pool worker thread in [0, num_threads() - 1), or
  // -1 when the caller is not a pool worker (e.g. the main thread or a
  // query driver thread). Pool-scoped and stable: the index never depends
  // on which cluster's work the worker happens to be executing.
  static int current_worker_index();

  // True while the CALLING THREAD is inside a parallel loop body (of any
  // pool; including single-threaded and nested inline runs, so the answer
  // does not depend on num_threads). Lets callers reject operations that
  // are unsafe — or would lose determinism — inside a parallel region,
  // e.g. Cluster::NewHashFunction. Deliberately thread-scoped rather than
  // pool-scoped: when several clusters share one pool, cluster A's driver
  // calling this between its own loops must not observe cluster B's loops
  // (a pool-wide counter would make NewHashFunction fail spuriously under
  // concurrent queries).
  static bool CallingThreadInParallelRegion();

 private:
  void Enqueue(std::function<void()> task);
  void WorkerMain(int index);

  int num_threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // Guarded by mu_.
  bool stopping_ = false;                    // Guarded by mu_.
  std::vector<std::thread> workers_;
};

// Process-wide shared-pool handle for the multi-query serving runtime.
// The first Shared() call creates THE process pool with the requested
// thread count; every later call returns the same pool (the count is
// fixed by the first caller — one work-stealing pool, not one per
// configuration). Callers that genuinely want a private pool (tests,
// single-query tools) construct a ThreadPool or shared_ptr directly.
class ExecutorRegistry {
 public:
  static std::shared_ptr<ThreadPool> Shared(int num_threads);
  // The current shared pool without creating one (nullptr if none).
  static std::shared_ptr<ThreadPool> SharedIfCreated();
  // Drops the registry's reference (tests; the pool itself survives while
  // any Cluster still holds it).
  static void ResetForTesting();
};

}  // namespace mpcqp

#endif  // MPCQP_COMMON_THREAD_POOL_H_
