#ifndef ASTERIX_HYRACKS_CHANNEL_H_
#define ASTERIX_HYRACKS_CHANNEL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "common/journal.h"
#include "common/metrics.h"
#include "hyracks/tuple.h"

namespace asterix {
namespace hyracks {

/// Hot-path metric endpoints shared by every channel. Resolved once; the
/// objects themselves are lock-free.
inline metrics::Gauge* QueuedFramesGauge() {
  static metrics::Gauge* g =
      metrics::MetricsRegistry::Default().GetGauge("hyracks.queued_frames");
  return g;
}
inline metrics::Histogram* BackpressureWaitHistogram() {
  static metrics::Histogram* h = metrics::MetricsRegistry::Default().GetHistogram(
      "hyracks.backpressure_wait_us");
  return h;
}
inline metrics::Histogram* QueueDepthHistogram() {
  static metrics::Histogram* h = metrics::MetricsRegistry::Default().GetHistogram(
      "hyracks.channel_queue_depth", metrics::Histogram::CountBounds());
  return h;
}

/// Consumer-side endpoint of a connector: one per (destination instance,
/// input port). N producer instances push frames tagged with their index;
/// the destination pulls whole frames, one channel-lock acquisition each,
/// until end-of-stream. Connectors fused into a pipeline have no channel.
class InChannel {
 public:
  virtual ~InChannel() = default;
  virtual void Push(int producer, Frame frame) = 0;
  virtual void ProducerDone(int producer) = 0;
  virtual void Fail(Status status) = 0;
  /// The consumer abandoned the stream (its pipeline failed). Queued and
  /// future frames are dropped and producers blocked on a full channel are
  /// released, so job teardown can never deadlock on backpressure.
  virtual void CancelConsumer() = 0;

  /// Blocking pull of the next frame. Returns false at end-of-stream; a
  /// failed stream surfaces its status.
  Result<bool> NextFrame(Frame* out) {
    out->tuples.clear();
    out->batch.reset();
    return PullFrame(out);
  }

 protected:
  /// Pulls one frame into `*out` (guaranteed empty on entry). Implementations
  /// hold their lock for the whole pull — one acquisition per frame, not per
  /// tuple.
  virtual Result<bool> PullFrame(Frame* out) = 0;
};

/// FIFO channel: frames interleave in arrival order (all connectors except
/// the merging one). With `capacity_frames` > 0 the queue is bounded:
/// producers block in Push() until the consumer drains a frame — the
/// bounded-buffer flow control that keeps a fast producer from growing
/// memory without limit (and that feeds inherit as backpressure).
class FifoChannel : public InChannel {
 public:
  explicit FifoChannel(int num_producers, size_t capacity_frames = 0)
      : open_producers_(num_producers), capacity_(capacity_frames) {}

  void Push(int producer, Frame frame) override {
    (void)producer;
    if (frame.tuples.empty() && frame.batch == nullptr) return;
    std::unique_lock<std::mutex> lock(mu_);
    WaitForSpace(lock, [&] { return frames_.size() < capacity_; });
    if (!status_.ok() || cancelled_) return;  // dropped; consumer is gone
    frames_.push_back(std::move(frame));
    QueuedFramesGauge()->Add(1);
    QueueDepthHistogram()->Observe(frames_.size());
    data_cv_.notify_one();
  }

  void ProducerDone(int) override {
    std::lock_guard<std::mutex> lock(mu_);
    --open_producers_;
    data_cv_.notify_one();
  }

  void Fail(Status status) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = std::move(status);
    data_cv_.notify_all();
    space_cv_.notify_all();
  }

  void CancelConsumer() override {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    QueuedFramesGauge()->Add(-static_cast<int64_t>(frames_.size()));
    frames_.clear();
    space_cv_.notify_all();
  }

  /// Frames currently queued (tests / diagnostics).
  size_t queued_frames() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }

 protected:
  Result<bool> PullFrame(Frame* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (!status_.ok()) return status_;
      if (!frames_.empty()) {
        *out = std::move(frames_.front());
        frames_.pop_front();
        QueuedFramesGauge()->Add(-1);
        space_cv_.notify_one();
        return true;
      }
      if (open_producers_ == 0) return false;
      data_cv_.wait(lock);
    }
  }

 private:
  template <typename HasSpace>
  void WaitForSpace(std::unique_lock<std::mutex>& lock, HasSpace has_space) {
    if (capacity_ == 0) return;
    if (has_space() || !status_.ok() || cancelled_) return;
    auto t0 = std::chrono::steady_clock::now();
    space_cv_.wait(lock, [&] {
      return has_space() || !status_.ok() || cancelled_;
    });
    uint64_t waited_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    BackpressureWaitHistogram()->Observe(waited_us);
    journal::Journal::Default().Post(journal::EventKind::kBackpressure,
                                     waited_us, frames_.size(), "fifo");
  }

  mutable std::mutex mu_;
  std::condition_variable data_cv_;
  std::condition_variable space_cv_;
  std::deque<Frame> frames_;
  int open_producers_;
  size_t capacity_;
  bool cancelled_ = false;
  Status status_;
};

/// Sorted-merge channel (the MToNPartitioningMerging connector): each
/// producer's stream is already sorted by `compare`; PullFrame() performs a
/// heap-based k-way merge, emitting merged tuples a frame at a time — it
/// never rescans all producers per tuple. `capacity_frames` bounds the
/// frames buffered PER PRODUCER (a whole-channel bound could deadlock the
/// merge: one fast producer filling the shared budget would block the slow
/// producer whose tuple the merge is waiting for).
class MergeChannel : public InChannel {
 public:
  MergeChannel(int num_producers, TupleCompare compare,
               size_t capacity_frames = 0)
      : producers_(static_cast<size_t>(num_producers)),
        compare_(std::move(compare)),
        capacity_(capacity_frames) {}

  void Push(int producer, Frame frame) override {
    if (frame.tuples.empty()) return;
    std::unique_lock<std::mutex> lock(mu_);
    ProducerState& p = producers_[static_cast<size_t>(producer)];
    if (capacity_ > 0 && p.frames.size() >= capacity_ && status_.ok() &&
        !cancelled_) {
      auto t0 = std::chrono::steady_clock::now();
      space_cv_.wait(lock, [&] {
        return p.frames.size() < capacity_ || !status_.ok() || cancelled_;
      });
      uint64_t waited_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      BackpressureWaitHistogram()->Observe(waited_us);
      journal::Journal::Default().Post(journal::EventKind::kBackpressure,
                                       waited_us, p.frames.size(), "merge");
    }
    if (!status_.ok() || cancelled_) return;
    p.frames.push_back(std::move(frame));
    QueuedFramesGauge()->Add(1);
    QueueDepthHistogram()->Observe(p.frames.size());
    data_cv_.notify_one();
  }

  void ProducerDone(int producer) override {
    std::lock_guard<std::mutex> lock(mu_);
    producers_[static_cast<size_t>(producer)].done = true;
    data_cv_.notify_one();
  }

  void Fail(Status status) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = std::move(status);
    data_cv_.notify_all();
    space_cv_.notify_all();
  }

  void CancelConsumer() override {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    for (auto& p : producers_) {
      QueuedFramesGauge()->Add(-static_cast<int64_t>(p.frames.size()));
      p.frames.clear();
      p.pos = 0;
    }
    space_cv_.notify_all();
  }

 protected:
  Result<bool> PullFrame(Frame* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      if (!status_.ok()) return status_;
      // Merge is possible only when every unfinished producer has a tuple
      // buffered (otherwise a smaller tuple could still arrive).
      bool ready = true;
      bool any = false;
      for (const auto& p : producers_) {
        if (p.frames.empty()) {
          if (!p.done) {
            ready = false;
            break;
          }
        } else {
          any = true;
        }
      }
      if (ready) {
        if (!any) return false;  // all done, all drained
        MergeBatch(out);
        return true;
      }
      data_cv_.wait(lock);
    }
  }

 private:
  struct ProducerState {
    std::deque<Frame> frames;
    size_t pos = 0;  // cursor into frames.front()
    bool done = false;
  };

  const Tuple& Head(const ProducerState& p) const {
    return p.frames.front().tuples[p.pos];
  }

  Tuple PopHead(ProducerState* p) {
    Tuple t = std::move(p->frames.front().tuples[p->pos++]);
    if (p->pos >= p->frames.front().tuples.size()) {
      p->frames.pop_front();
      p->pos = 0;
      QueuedFramesGauge()->Add(-1);
      space_cv_.notify_all();
    }
    return t;
  }

  /// Requires mu_ held and every unfinished producer non-empty. Emits up to
  /// kDefaultFrameTuples merged tuples; stops early if an unfinished
  /// producer runs dry (its next tuple is unknown).
  void MergeBatch(Frame* out) {
    heap_.clear();
    for (size_t i = 0; i < producers_.size(); ++i) {
      if (!producers_[i].frames.empty()) heap_.push_back(static_cast<int>(i));
    }
    // std::*_heap keeps the comparator-greatest at the front; invert the
    // tuple order so the front is the smallest head.
    auto comp = [this](int a, int b) {
      return compare_(Head(producers_[static_cast<size_t>(a)]),
                      Head(producers_[static_cast<size_t>(b)])) > 0;
    };
    std::make_heap(heap_.begin(), heap_.end(), comp);
    out->tuples.reserve(kDefaultFrameTuples);
    while (!heap_.empty() && out->tuples.size() < kDefaultFrameTuples) {
      std::pop_heap(heap_.begin(), heap_.end(), comp);
      int i = heap_.back();
      heap_.pop_back();
      ProducerState& p = producers_[static_cast<size_t>(i)];
      out->tuples.push_back(PopHead(&p));
      if (p.frames.empty()) {
        if (!p.done) break;  // can't merge past an unfinished dry producer
      } else {
        heap_.push_back(i);
        std::push_heap(heap_.begin(), heap_.end(), comp);
      }
    }
  }

  std::mutex mu_;
  std::condition_variable data_cv_;
  std::condition_variable space_cv_;
  std::vector<ProducerState> producers_;
  std::vector<int> heap_;  // producer indices keyed by head tuple
  TupleCompare compare_;
  size_t capacity_;
  bool cancelled_ = false;
  Status status_;
};

}  // namespace hyracks
}  // namespace asterix

#endif  // ASTERIX_HYRACKS_CHANNEL_H_
