// A small fixed-size thread pool with deterministic join semantics.
//
// The evaluation harness, the sharded engine and the A2C learner only need
// structured fan-out: run N independent tasks, wait for all of them,
// surface the first exception. ParallelFor provides exactly that — it
// blocks until every task has finished (or been abandoned after an
// exception elsewhere), so callers never observe a partially-completed
// batch. Each task receives a worker slot in [0, size()] which callers use
// to index per-slot scratch state; slot size() is the calling thread, which
// always participates in the work.
//
// Concurrent callers: several threads may call ParallelFor on one pool at
// the same time (concurrent experiments each training a learner on the one
// learner pool). Every item of every batch runs exactly once, and a caller
// returns once its own batch is done — it never waits for pool threads
// serving another caller's batch, and runs its items inline when no pool
// thread is free. Pool threads serve the open batches oldest first. Slots
// are unique within a batch (slot i is pool thread i, slot size() is that
// batch's caller), but two concurrent callers both run as slot size(), so
// per-slot scratch must belong to one call, not to the pool. Shutdown must
// not race a ParallelFor.
//
// Determinism note: the pool never introduces nondeterminism by itself —
// which worker runs which task varies, but tasks must depend only on their
// item index (per-item RNG streams, per-worker interchangeable scratch).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace tango {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers; 0 picks the hardware concurrency minus
  /// one (the calling thread is always the extra worker), at least 1.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool threads (the calling thread adds one more worker slot).
  int size() const { return static_cast<int>(threads_.size()); }

  /// Worker slots a ParallelFor can use, including the calling thread.
  int concurrency() const { return size() + 1; }

  /// Run fn(item, worker) for every item in [0, n). Blocks until all items
  /// are done. `worker` ∈ [0, size()] identifies the executing slot (size()
  /// = the calling thread). If any task throws, the first exception is
  /// rethrown here after every in-flight task has finished; remaining
  /// unstarted items are abandoned. After Shutdown() the loop degrades to
  /// serial in-caller execution (worker = size()).
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t, int)>& fn);

  /// Join all pool threads. Idempotent; implied by the destructor. A pool
  /// that is shut down still accepts ParallelFor (runs serially).
  void Shutdown();

 private:
  struct Batch;
  void WorkerLoop(int worker_id);
  /// The oldest open batch that still has unclaimed items; under mu_.
  Batch* FirstOpen() const;

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  Batch* open_ = nullptr;  // open batches, oldest first; guarded by mu_
  bool stop_ = false;      // guarded by mu_
};

}  // namespace tango
