#ifndef ASTERIX_HYRACKS_EXECUTOR_POOL_H_
#define ASTERIX_HYRACKS_EXECUTOR_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asterix {
namespace hyracks {

/// Persistent worker-thread pool for a job's tasks. Created at cluster boot
/// and reused across jobs, so the short low-latency queries of Table 3 stop
/// paying a thread spawn per task per job. A task is one pipeline instance:
/// a head operator instance plus the one-input stages fused behind it.
///
/// Sizing rule: pipelines block on channel I/O at the exchanges between
/// them, served by their peers, so a job makes progress only when EVERY one
/// of its pipelines has a live thread. RunAll() therefore reserves one
/// thread per task — summed across concurrently admitted jobs — and grows
/// the pool to the reserved total before enqueuing. The pool never admits a
/// job it cannot fully thread, and never shrinks (growth is a one-time
/// cost, amortized forever).
class ExecutorPool {
 public:
  explicit ExecutorPool(size_t boot_threads);
  ~ExecutorPool();

  ExecutorPool(const ExecutorPool&) = delete;
  ExecutorPool& operator=(const ExecutorPool&) = delete;

  /// Runs every task on a pool thread and blocks until all complete.
  /// Safe to call from multiple threads concurrently (concurrent jobs).
  void RunAll(std::vector<std::function<void()>> tasks);

  /// Total threads ever created — flat across repeated jobs once warm
  /// (the reuse guarantee tests assert on).
  uint64_t threads_created() const {
    return threads_created_.load(std::memory_order_relaxed);
  }
  size_t threads_alive() const;

  /// Threads currently inside a task (pool occupancy for StatusJson).
  size_t busy_threads() const {
    return busy_.load(std::memory_order_relaxed);
  }
  /// Tasks enqueued but not yet picked up by a worker.
  size_t queued_tasks() const;

 private:
  void WorkerLoop();
  /// Requires mu_. Grows the pool to `target` workers.
  void GrowLocked(size_t target);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t reserved_ = 0;  // in-flight tasks across active jobs
  bool stop_ = false;
  std::atomic<uint64_t> threads_created_{0};
  std::atomic<size_t> busy_{0};
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_EXECUTOR_POOL_H_
