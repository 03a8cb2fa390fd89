#include "common/thread_pool.h"

#include <exception>

namespace tango {

/// One ParallelFor invocation. Workers claim item indices under `mu`; the
/// caller waits on `done_cv` until every claimed item has finished and no
/// claimable item remains, then on the pool's idle_cv_ until no pool thread
/// still holds the batch.
struct ThreadPool::Batch {
  std::size_t n = 0;
  const std::function<void(std::size_t, int)>* fn = nullptr;
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t next = 0;    // next unclaimed item
  int in_flight = 0;       // items currently executing
  bool abandon = false;    // a task threw: stop claiming new items
  std::exception_ptr error;

  // Guarded by the pool's mu_.
  Batch* next_open = nullptr;  // the pool's open list
  int attached = 0;            // pool threads holding this batch
  bool drained = false;        // no claimable item left: attach no more

  void Run(int worker) {
    std::unique_lock<std::mutex> lk(mu);
    while (!abandon && next < n) {
      const std::size_t item = next++;
      ++in_flight;
      lk.unlock();
      try {
        (*fn)(item, worker);
      } catch (...) {
        lk.lock();
        if (!error) error = std::current_exception();
        abandon = true;
        --in_flight;
        continue;
      }
      lk.lock();
      --in_flight;
    }
    if (in_flight == 0) done_cv.notify_all();
  }

  void AwaitDone() {
    std::unique_lock<std::mutex> lk(mu);
    done_cv.wait(lk,
                 [this] { return in_flight == 0 && (abandon || next >= n); });
  }
};

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    const auto hw = static_cast<int>(std::thread::hardware_concurrency());
    num_threads = hw > 1 ? hw - 1 : 1;  // the caller is the extra worker
  }
  threads_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
  threads_.clear();
}

ThreadPool::Batch* ThreadPool::FirstOpen() const {
  for (Batch* b = open_; b != nullptr; b = b->next_open) {
    if (!b->drained) return b;
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(int worker_id) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Batch* b = nullptr;
    work_cv_.wait(lk, [&] {
      b = FirstOpen();
      return stop_ || b != nullptr;
    });
    if (b == nullptr) return;  // stopped, nothing open
    // Attached, b stays linked (and alive) until we detach; a batch is
    // marked drained once a Run over it returns, so no thread re-attaches
    // to work it has already exhausted.
    ++b->attached;
    lk.unlock();
    b->Run(worker_id);
    lk.lock();
    b->drained = true;
    if (--b->attached == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return;
  Batch b;
  b.n = n;
  b.fn = &fn;
  bool pooled;
  {
    std::lock_guard<std::mutex> lk(mu_);
    pooled = !stop_ && !threads_.empty() && n > 1;
    if (pooled) {
      Batch** tail = &open_;
      while (*tail != nullptr) tail = &(*tail)->next_open;
      *tail = &b;
    }
  }
  if (!pooled) {
    // Degraded path (shut down, zero threads, or a single item): the
    // calling thread does everything as worker slot size().
    for (std::size_t i = 0; i < n; ++i) fn(i, size());
    return;
  }
  work_cv_.notify_all();
  b.Run(size());  // the caller is worker slot size()
  b.AwaitDone();
  {
    // A pool thread may have attached to b but not yet entered Run; b must
    // outlive it. AwaitDone already guarantees no items remain, so this is
    // brief — and it waits only for this batch's threads.
    std::unique_lock<std::mutex> lk(mu_);
    b.drained = true;
    idle_cv_.wait(lk, [&b] { return b.attached == 0; });
    Batch** link = &open_;
    while (*link != &b) link = &(*link)->next_open;
    *link = b.next_open;
  }
  if (b.error) std::rethrow_exception(b.error);
}

}  // namespace tango
