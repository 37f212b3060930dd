// common::BoundedSampleQueue — the per-tenant ingestion primitive of the
// fleet layer (src/fleet/): a fixed-capacity ring of equal-width samples
// with explicit backpressure accounting.
//
// A sample is one time point's readings for every sensor of one stream
// (`sample_width` doubles). The ring is sized once at construction and never
// reallocates, so steady-state pushes and pops are pure copies into reserved
// storage — the queue participates in the fleet's zero-allocation contract.
//
// Backpressure is a *rejected push*, not a blocked producer: TryPush returns
// false when the ring is full and counts the rejection, so ingestion never
// stalls the caller and the drop rate is observable (FleetEngine surfaces the
// counters as cad_fleet_samples_rejected_total). There is deliberately no
// blocking push — a slow tenant must shed its own load, not wedge the
// producer thread that feeds every other tenant.
//
// Synchronization: one internal mutex at rank lock_order::kFleetQueue.
// Producers and the servicing fleet worker both take it with nothing else
// held — the worker pops a sample, releases the queue, then pushes the
// sample into the tenant's StreamingCad — so the queue never nests with
// another lock.
#ifndef CAD_COMMON_BOUNDED_QUEUE_H_
#define CAD_COMMON_BOUNDED_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace cad::common {

class BoundedSampleQueue {
 public:
  // A ring of `capacity_samples` slots, each `sample_width` doubles wide.
  BoundedSampleQueue(int sample_width, int capacity_samples)
      : sample_width_(sample_width),
        capacity_(capacity_samples),
        slots_(static_cast<size_t>(sample_width) * capacity_samples, 0.0) {}

  // Appends one sample; false (and a rejected() tick) when the ring is full.
  // `sample.size()` must equal sample_width().
  [[nodiscard]] bool TryPush(std::span<const double> sample) EXCLUDES(mu_) {
    // cad-lint: allow(CL009) name-collision: the lock tracker's OnAcquire calls vector empty()/size(), which the tree-wide resolver conflates with this queue's accessors
    MutexLock lock(mu_);
    if (size_ == capacity_) {
      ++rejected_;
      return false;
    }
    const int slot = (head_ + size_) % capacity_;
    std::copy(sample.begin(), sample.end(),
              slots_.begin() + static_cast<size_t>(slot) * sample_width_);
    ++size_;
    ++accepted_;
    return true;
  }

  // Copies the oldest sample into `dst` (sample_width() doubles); false when
  // the ring is empty.
  [[nodiscard]] bool PopInto(double* dst) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (size_ == 0) return false;
    const double* src =
        slots_.data() + static_cast<size_t>(head_) * sample_width_;
    std::copy(src, src + sample_width_, dst);
    head_ = (head_ + 1) % capacity_;
    --size_;
    return true;
  }

  int size() const EXCLUDES(mu_) {
    // cad-lint: allow(CL007) name-collision: realtime-annotated engine code calls container size(), which the tree-wide resolver conflates with this accessor; nothing realtime reaches the queue
    MutexLock lock(mu_);
    return size_;
  }
  bool empty() const EXCLUDES(mu_) { return size() == 0; }

  // Lifetime totals for backpressure accounting.
  uint64_t accepted() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return accepted_;
  }
  uint64_t rejected() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return rejected_;
  }

  int sample_width() const { return sample_width_; }
  int capacity() const { return capacity_; }

 private:
  const int sample_width_;
  const int capacity_;

  // Rank 18 (common/lock_order.h): producers and the fleet worker hold
  // nothing else while they take it.
  mutable Mutex mu_{lock_order::kFleetQueue,
                    "common::BoundedSampleQueue::mu_"};
  std::vector<double> slots_ GUARDED_BY(mu_);  // ring storage, never resized
  int head_ GUARDED_BY(mu_) = 0;               // index of the oldest sample
  int size_ GUARDED_BY(mu_) = 0;
  uint64_t accepted_ GUARDED_BY(mu_) = 0;
  uint64_t rejected_ GUARDED_BY(mu_) = 0;
};

}  // namespace cad::common

#endif  // CAD_COMMON_BOUNDED_QUEUE_H_
