#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parse.h"
#include "common/trace.h"

namespace mpcqp {

namespace {

thread_local int tls_worker_index = -1;
// Open parallel-loop bodies on this thread (nested loops stack). The
// thread-scoped counterpart of the old pool-wide counter: with many
// clusters sharing one pool, "am I inside a parallel region" must be a
// property of the calling thread, not of the pool.
thread_local int tls_loop_depth = 0;

// RAII bump of the calling thread's loop depth; exception-safe.
class ScopedLoopDepth {
 public:
  ScopedLoopDepth() { ++tls_loop_depth; }
  ~ScopedLoopDepth() { --tls_loop_depth; }

  ScopedLoopDepth(const ScopedLoopDepth&) = delete;
  ScopedLoopDepth& operator=(const ScopedLoopDepth&) = delete;
};

// Parallel loops never enqueue more helpers than there are spare cores:
// the caller already occupies one, and on an oversubscribed pool (threads
// > cores) every extra helper is pure context-switch overhead. This caps
// the execution fan-out only — the iterations and results are identical
// for every thread count. MPCQP_LOOP_HELPERS overrides the
// detected count (the concurrency test binaries use it to force the
// multi-participant steal path even on single-core machines).
int64_t MaxLoopHelpers() {
  static const int64_t spare = [] {
    if (const char* env = std::getenv("MPCQP_LOOP_HELPERS")) {
      const auto parsed = ParseInt64InRange(env, 0, INT64_MAX);
      if (parsed.ok()) return *parsed;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? INT64_MAX : static_cast<int64_t>(hw) - 1;
  }();
  return spare;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  MPCQP_CHECK_LE(num_threads_, kMaxThreads)
      << "ThreadPool wider than kMaxThreads";
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::current_worker_index() { return tls_worker_index; }

bool ThreadPool::CallingThreadInParallelRegion() {
  return tls_loop_depth > 0;
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    MPCQP_CHECK(!stopping_) << "task submitted to a stopping ThreadPool";
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerMain(int index) {
  tls_worker_index = index;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // Stopping and fully drained.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& body) {
  if (n <= 0) return;
  MPCQP_TRACE_SCOPE_ARG("parallel_for", "pool", n);
  // The region is marked active on the inline paths too, so misuse (e.g.
  // drawing a new hash function from a loop body) is caught at every
  // thread count, not only when it would actually race.
  ScopedLoopDepth in_region;
  if (num_threads_ <= 1 || n == 1) {
    for (int64_t i = 0; i < n; ++i) body(i);
    return;
  }
  const int participants = static_cast<int>(std::min(
      {static_cast<int64_t>(num_threads_), n, MaxLoopHelpers() + 1}));
  if (participants <= 1) {
    // The core cap squeezed a multi-threaded pool down to one participant
    // (threads > cores). Unlike the threads==1 serial path above, this
    // pool promises the multi-threaded exception contract: every
    // iteration runs, and the surviving exception is the lowest-index one
    // — which in ascending order is simply the first.
    std::exception_ptr error;
    for (int64_t i = 0; i < n; ++i) {
      try {
        body(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }

  // Each participant owns a contiguous block of iterations in its own
  // deque: deque k holds [k * n / P, (k+1) * n / P). Owners pop from the
  // FRONT (sequential order — prefetch-friendly) and thieves steal from
  // the BACK, so an owner and a thief only collide on the last iteration
  // of a deque. The deques are tiny (two indices), so a per-deque mutex
  // costs one uncontended lock per iteration — noise at morsel
  // granularity — and keeps the pool trivially TSan-clean.
  struct Deque {
    std::mutex mu;
    int64_t head = 0;  // Next iteration the owner takes.
    int64_t tail = 0;  // One past the last unclaimed iteration.
  };
  // Shared with the helper tasks, which may outlive this call: a helper
  // that starts after the loop finished finds every deque empty and never
  // dereferences `body`.
  struct LoopState {
    int64_t n = 0;
    int participants = 0;
    const std::function<void(int64_t)>* body = nullptr;
    const ExecContext* context = nullptr;  // The issuing query's context.
    std::vector<Deque> deques;
    std::atomic<int> next_slot{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t done = 0;          // Guarded by mu.
    int64_t error_index = -1;  // Guarded by mu.
    std::exception_ptr error;  // Guarded by mu.
  };
  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->participants = participants;
  state->body = &body;
  state->context = CurrentExecContext();
  state->deques = std::vector<Deque>(participants);
  for (int k = 0; k < participants; ++k) {
    state->deques[k].head = k * n / participants;
    state->deques[k].tail = (k + 1) * n / participants;
  }

  const auto drain = [](const std::shared_ptr<LoopState>& s) {
    ExecContextScope context_scope(s->context);
    ScopedLoopDepth in_body;
    const int slot = s->next_slot.fetch_add(1, std::memory_order_relaxed);
    const int P = s->participants;
    int64_t finished = 0;
    const auto run = [&](int64_t i) {
      try {
        (*s->body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s->mu);
        if (s->error_index < 0 || i < s->error_index) {
          s->error_index = i;
          s->error = std::current_exception();
        }
      }
      ++finished;
    };
    // Own deque first, front to back.
    Deque& mine = s->deques[slot % P];
    while (true) {
      int64_t i;
      {
        std::lock_guard<std::mutex> lock(mine.mu);
        if (mine.head >= mine.tail) break;
        i = mine.head++;
      }
      run(i);
    }
    // Then steal from the back of the other deques until nothing is left.
    for (int offset = 1; offset < P; ++offset) {
      Deque& victim = s->deques[(slot + offset) % P];
      while (true) {
        int64_t i;
        {
          std::lock_guard<std::mutex> lock(victim.mu);
          if (victim.head >= victim.tail) break;
          i = --victim.tail;
        }
        run(i);
      }
    }
    if (finished > 0) {
      std::lock_guard<std::mutex> lock(s->mu);
      s->done += finished;
      if (s->done == s->n) s->done_cv.notify_all();
    }
  };

  for (int h = 0; h < participants - 1; ++h) {
    Enqueue([state, drain] { drain(state); });
  }
  drain(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&state] { return state->done == state->n; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

std::mutex& RegistryMutex() {
  static std::mutex mu;
  return mu;
}

std::shared_ptr<ThreadPool>& RegistrySlot() {
  static std::shared_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

std::shared_ptr<ThreadPool> ExecutorRegistry::Shared(int num_threads) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::shared_ptr<ThreadPool>& slot = RegistrySlot();
  if (!slot) slot = std::make_shared<ThreadPool>(num_threads);
  return slot;
}

std::shared_ptr<ThreadPool> ExecutorRegistry::SharedIfCreated() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  return RegistrySlot();
}

void ExecutorRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  RegistrySlot().reset();
}

}  // namespace mpcqp
