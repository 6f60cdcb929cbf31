#include "parallel/scheduler.h"

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <new>

#include "util/rng.h"

namespace ligra::parallel {

namespace internal {

bool deque::push_bottom(task* t) {
  int64_t b = bottom_.load(std::memory_order_relaxed);
  int64_t top = top_.load(std::memory_order_acquire);
  if (b - top >= static_cast<int64_t>(kCapacity)) return false;
  buffer_[b & (kCapacity - 1)].store(t, std::memory_order_relaxed);
  bottom_.store(b + 1, std::memory_order_release);
  return true;
}

task* deque::pop_bottom() {
  int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  int64_t top = top_.load(std::memory_order_relaxed);
  if (top > b) {  // deque was empty
    bottom_.store(b + 1, std::memory_order_relaxed);
    return nullptr;
  }
  task* t = buffer_[b & (kCapacity - 1)].load(std::memory_order_relaxed);
  if (top == b) {
    // Last element: race against thieves via CAS on top.
    if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      t = nullptr;  // a thief won
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return t;
}

task* deque::steal_top() {
  int64_t top = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  int64_t b = bottom_.load(std::memory_order_acquire);
  if (top >= b) return nullptr;
  task* t = buffer_[top & (kCapacity - 1)].load(std::memory_order_relaxed);
  if (!top_.compare_exchange_strong(top, top + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return nullptr;  // lost the race
  }
  return t;
}

}  // namespace internal

namespace {

thread_local int tl_worker_id = -1;

// Parking lot shared by all pool generations. Correctness does not depend on
// wakeup delivery (waits are timed); the condvar only cuts idle-spin CPU.
// Never destroyed: the global pool's workers are never joined, so they may
// still be parked here while static destructors run at exit.
struct parking_lot {
  std::mutex mutex;
  std::condition_variable cv;
};
parking_lot& park() {
  static parking_lot* lot = new parking_lot;
  return *lot;
}

// Guards construction / replacement of the global instance. `g_published`
// is the lock-free fast path; it is only written under `instance_mutex`.
std::mutex instance_mutex;
scheduler* g_instance = nullptr;
std::atomic<scheduler*> g_published{nullptr};

}  // namespace

int scheduler::default_num_workers() {
  if (const char* env = std::getenv("LIGRA_NUM_WORKERS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

scheduler& scheduler::instance() {
  scheduler* s = g_published.load(std::memory_order_acquire);
  if (s != nullptr) return *s;
  std::lock_guard<std::mutex> lock(instance_mutex);
  if (g_instance == nullptr) {
    g_instance = new scheduler(default_num_workers());
    g_published.store(g_instance, std::memory_order_release);
  }
  return *g_instance;
}

void scheduler::set_num_workers(int n) {
  if (n < 1) n = 1;
  std::lock_guard<std::mutex> lock(instance_mutex);
  if (g_instance != nullptr && g_instance->num_workers_ == n) return;
  // Unpublish first so no new caller grabs the dying pool, then replace.
  g_published.store(nullptr, std::memory_order_release);
  delete g_instance;
  g_instance = new scheduler(n);
  g_published.store(g_instance, std::memory_order_release);
}

int scheduler::worker_id() { return tl_worker_id; }

scheduler::scheduler(int num_workers) : num_workers_(num_workers) {
  deques_ = new internal::deque[num_workers_];
  counters_ = new worker_counter_slot[num_workers_];
  tl_worker_id = 0;  // constructing thread is worker 0
  threads_ = static_cast<std::thread*>(
      ::operator new[](sizeof(std::thread) * (num_workers_ > 1 ? num_workers_ - 1 : 1)));
  for (int i = 1; i < num_workers_; i++) {
    new (&threads_[i - 1]) std::thread([this, i] { worker_loop(i); });
  }
}

scheduler::~scheduler() {
  shutdown_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(park().mutex);
    park().cv.notify_all();
  }
  for (int i = 1; i < num_workers_; i++) {
    threads_[i - 1].join();
    threads_[i - 1].~thread();
  }
  ::operator delete[](threads_);
  delete[] deques_;
  delete[] counters_;
}

std::vector<worker_counters> scheduler::worker_stats() const {
  std::vector<worker_counters> out(static_cast<size_t>(num_workers_));
  for (int i = 0; i < num_workers_; i++) {
    out[i].steals = counters_[i].steals.load(std::memory_order_relaxed);
    out[i].parks = counters_[i].parks.load(std::memory_order_relaxed);
  }
  return out;
}

bool scheduler::try_steal_and_run(uint64_t& rng_state) {
  // One sweep over victims starting at a random offset.
  rng_state = hash64(rng_state);
  int start = static_cast<int>(rng_state % static_cast<uint64_t>(num_workers_));
  for (int k = 0; k < num_workers_; k++) {
    int victim = start + k;
    if (victim >= num_workers_) victim -= num_workers_;
    if (victim == tl_worker_id) continue;
    if (internal::task* t = deques_[victim].steal_top()) {
      counters_[tl_worker_id].steals.fetch_add(1, std::memory_order_relaxed);
      t->execute();
      return true;
    }
  }
  return false;
}

void scheduler::worker_loop(int id) {
  tl_worker_id = id;
  uint64_t rng_state = hash64(static_cast<uint64_t>(id) + 12345);
  int failures = 0;
  while (!shutdown_.load(std::memory_order_acquire)) {
    // Drain our own deque first (tasks forked by work we ran earlier).
    while (internal::task* t = deques_[id].pop_bottom()) t->execute();
    if (try_steal_and_run(rng_state)) {
      failures = 0;
      continue;
    }
    if (++failures < 128) {
      std::this_thread::yield();
      continue;
    }
    // Park with a timeout: a lost wakeup costs at most 1 ms of latency.
    failures = 0;
    counters_[id].parks.fetch_add(1, std::memory_order_relaxed);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(park().mutex);
      park().cv.wait_for(lock, std::chrono::milliseconds(1));
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void scheduler::fork_join(internal::task* t, void (*left)(void*),
                          void* left_arg) {
  int id = tl_worker_id;
  if (id < 0 || num_workers_ == 1) {
    // Foreign thread or sequential pool: run both inline.
    left(left_arg);
    t->execute();
    return;
  }
  if (!deques_[id].push_bottom(t)) {
    left(left_arg);  // deque full: degrade gracefully to sequential
    t->execute();
    return;
  }
  if (sleepers_.load(std::memory_order_seq_cst) > 0) park().cv.notify_one();

  left(left_arg);

  if (internal::task* back = deques_[id].pop_bottom()) {
    // LIFO discipline guarantees the task we get back is our own: every
    // nested fork inside `left` joined (and thus popped) before returning.
    back->execute();
    return;
  }
  wait_for(t);  // a thief has it; help out until it finishes
}

void scheduler::wait_for(internal::task* t) {
  uint64_t rng_state =
      hash64(reinterpret_cast<uintptr_t>(t) + static_cast<uint64_t>(tl_worker_id));
  int spins = 0;
  while (!t->done.load(std::memory_order_acquire)) {
    // Run our own pending forks first, then steal.
    if (internal::task* own = deques_[tl_worker_id].pop_bottom()) {
      own->execute();
      spins = 0;
      continue;
    }
    if (try_steal_and_run(rng_state)) {
      spins = 0;
      continue;
    }
    if (++spins > 64) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

}  // namespace ligra::parallel
