// Work-stealing fork-join scheduler — the substrate that replaces the Cilk
// Plus runtime the paper's implementation runs on (DESIGN.md S1).
//
// Model: binary fork (`par_do`) with fully nested parallelism. Each worker
// owns a Chase–Lev deque; forked right-hand tasks are pushed to the owner's
// deque, the left-hand side runs inline, and the join either pops the task
// back (fast path, no atom contention beyond the deque protocol) or — if a
// thief took it — steals other work while waiting ("help-first" join). The
// calling thread participates as worker 0, so a program that never forks
// pays nothing.
//
// Tasks live on the forking frame's stack: `par_do` cannot return before the
// task completes, so no heap allocation or reference counting is needed.
// Exceptions must not escape a task (matching Cilk semantics); if one does,
// std::terminate fires via the noexcept execution path.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace ligra::parallel {

namespace internal {

// A unit of stealable work. `run` invokes the type-erased closure at `arg`;
// `done` is set (release) after the closure returns so the joiner can wait
// with an acquire load.
struct task {
  void (*run)(void*) = nullptr;
  void* arg = nullptr;
  std::atomic<bool> done{false};

  void execute() noexcept {
    run(arg);
    done.store(true, std::memory_order_release);
  }
};

// Chase–Lev work-stealing deque (Chase & Lev, SPAA'05; memory ordering per
// Lê et al., PPoPP'13). Owner pushes/pops at the bottom; thieves steal from
// the top. Fixed capacity: fork depth is O(log n) per nested loop so a few
// thousand slots is far more than any real program uses; on overflow the
// caller simply runs the task inline (graceful sequential degradation).
class deque {
 public:
  static constexpr size_t kCapacity = 1 << 13;

  // Owner only. Returns false when full (caller runs the task inline).
  bool push_bottom(task* t);

  // Owner only. Returns the most recently pushed task, or nullptr if the
  // deque is empty / the last task was stolen.
  task* pop_bottom();

  // Thieves. Returns the oldest task or nullptr (empty or lost race).
  task* steal_top();

  bool empty() const {
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
  }

 private:
  alignas(64) std::atomic<int64_t> top_{0};
  alignas(64) std::atomic<int64_t> bottom_{0};
  std::atomic<task*> buffer_[kCapacity];
};

}  // namespace internal

// Per-worker activity counters (observability; see docs/OBSERVABILITY.md).
// All bumps happen off the fork-join fast path: a successful steal already
// paid a CAS, and parks are idle-path events. Counters reset when the pool
// is rebuilt by set_num_workers.
struct worker_counters {
  uint64_t steals = 0;  // tasks taken from another worker's deque
  uint64_t parks = 0;   // 1 ms park episodes (idle-time proxy)
};

// The global scheduler. Not constructed directly — use the free functions
// below (`num_workers`, `par_do_impl` via par_do). The pool is created
// lazily on first use with `default_num_workers()` threads.
class scheduler {
 public:
  // Thread count: LIGRA_NUM_WORKERS env var, else hardware_concurrency().
  static int default_num_workers();

  static scheduler& instance();

  // Tears down the pool and restarts it with `n` workers. Must be called
  // from outside any parallel region (i.e. from the main thread with no
  // forks outstanding). Used by the scalability benchmarks.
  static void set_num_workers(int n);

  int num_workers() const { return num_workers_; }

  // Id of the calling thread within the pool: 0 for the thread that created
  // the pool, 1..p-1 for pool threads, -1 for foreign threads (which execute
  // parallel constructs sequentially).
  static int worker_id();

  // Forks `t` (pushed to the local deque, stealable) then runs `left`
  // inline, then joins. Core primitive behind par_do.
  void fork_join(internal::task* t, void (*left)(void*), void* left_arg);

  // Point-in-time copy of every worker's counters (index = worker id).
  // Relaxed reads of monotone counters: approximate while work is in
  // flight, exact when the pool is quiescent.
  std::vector<worker_counters> worker_stats() const;

  ~scheduler();

  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

 private:
  explicit scheduler(int num_workers);

  void worker_loop(int id);
  // One attempt to steal from a random victim and run the task.
  bool try_steal_and_run(uint64_t& rng_state);
  void wait_for(internal::task* t);

  int num_workers_;
  std::atomic<bool> shutdown_{false};
  // Count of workers currently parked; a pusher wakes one via futex-like
  // condvar when this is nonzero (see scheduler.cc).
  std::atomic<int> sleepers_{0};
  internal::deque* deques_;  // one per worker, cache-line padded
  std::thread* threads_;     // num_workers_ - 1 pool threads

  // One padded slot per worker; owner-only relaxed writes, so bumps never
  // contend and stats reads are tear-free per field.
  struct alignas(64) worker_counter_slot {
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> parks{0};
  };
  worker_counter_slot* counters_;  // one per worker

  friend struct scheduler_access;
};

// --- public fork-join API ------------------------------------------------

inline int num_workers() { return scheduler::instance().num_workers(); }
inline int worker_id() { return scheduler::worker_id(); }
inline void set_num_workers(int n) { scheduler::set_num_workers(n); }

// Runs `left()` and `right()` potentially in parallel; returns when both
// have completed. May be nested arbitrarily.
template <class Left, class Right>
void par_do(Left&& left, Right&& right) {
  using R = std::remove_reference_t<Right>;
  internal::task t;
  t.run = [](void* a) { (*static_cast<R*>(a))(); };
  t.arg = const_cast<std::remove_const_t<R>*>(std::addressof(right));
  using L = std::remove_reference_t<Left>;
  scheduler::instance().fork_join(
      &t, [](void* a) { (*static_cast<L*>(a))(); },
      const_cast<std::remove_const_t<L>*>(std::addressof(left)));
}

namespace internal {

template <class F>
void parallel_for_rec(size_t lo, size_t hi, size_t grain, const F& f) {
  while (hi - lo > grain) {
    size_t mid = lo + (hi - lo) / 2;
    bool right_done = false;
    par_do([&] { parallel_for_rec(lo, mid, grain, f); },
           [&] {
             parallel_for_rec(mid, hi, grain, f);
             right_done = true;
           });
    (void)right_done;
    return;
  }
  for (size_t i = lo; i < hi; i++) f(i);
}

}  // namespace internal

// Parallel loop over [start, end). `f(i)` must be safe to run concurrently
// for distinct i. `granularity` is the largest range executed sequentially;
// 0 selects a heuristic (n / (8p), clamped to [1, 2048]) that keeps
// per-task work well above scheduling overhead while exposing ~8 tasks per
// worker for load balance.
template <class F>
void parallel_for(size_t start, size_t end, F&& f, size_t granularity = 0) {
  if (end <= start) return;
  size_t n = end - start;
  if (granularity == 0) {
    size_t p = static_cast<size_t>(num_workers());
    granularity = n / (8 * p);
    if (granularity < 1) granularity = 1;
    if (granularity > 2048) granularity = 2048;
  }
  if (n <= granularity || num_workers() == 1) {
    for (size_t i = start; i < end; i++) f(i);
    return;
  }
  internal::parallel_for_rec(start, end, granularity, f);
}

}  // namespace ligra::parallel
