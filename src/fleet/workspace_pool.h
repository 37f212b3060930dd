// fleet::WorkspacePool — shared arena pool of core::RoundWorkspace scratch,
// bucketed by sensor count so steady state stays 0-alloc fleet-wide.
//
// A RoundWorkspace is per-round scratch, not cross-round state (see
// core/round_processor.h): every buffer is overwritten before it is read,
// so workspaces are freely interchangeable between tenants. The pool
// exploits exactly that — instead of one workspace per tenant (10k tenants
// x dozens of vectors), workers borrow one per service quantum, bounded by
// the worker count, not the tenant count.
//
// Buckets are next-power-of-two sensor counts: a workspace that has served
// an N-sensor round has every vector grown to ~N capacity, and any tenant in
// the same bucket (N/2, N] reuses those capacities without growth. Mixing
// buckets would either waste 2x memory (small tenant on a big arena is fine,
// but the converse grows) or re-grow constantly; bucketing makes each
// arena's high-water mark converge after one warm round per bucket.
//
// Growth accounting: Acquire reports whether the arena has already served
// the caller's problem size (`max_sensors` / `max_window` high-water marks).
// A quantum on a cold arena is expected to allocate and is excluded from the
// fleet's steady-state allocation audit; callers raise the high-water marks
// before Release, and only after a round has actually run on the arena.
//
// Synchronization: one mutex at rank lock_order::kFleetWorkspacePool, taken
// alone (after the scheduler lock is dropped, never under a stream lock).
// Free-list pushes never allocate: each bucket's free list reserves capacity
// for every workspace ever created in it at creation time.
#ifndef CAD_FLEET_WORKSPACE_POOL_H_
#define CAD_FLEET_WORKSPACE_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/round_processor.h"

namespace cad::fleet {

class WorkspacePool {
 public:
  struct PooledWorkspace {
    core::RoundWorkspace workspace;
    // High-water problem size this arena has served; callers raise these
    // before Release. A quantum whose tenant exceeds either bound is a
    // growth quantum (allowed to allocate, excluded from steady-state
    // accounting).
    int max_sensors = 0;
    int max_window = 0;
    int bucket = 0;
  };

  struct Stats {
    uint64_t created = 0;   // workspaces ever constructed
    uint64_t acquires = 0;  // quanta served
    uint64_t in_use = 0;    // currently borrowed
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;
  ~WorkspacePool();

  // Borrows a workspace from the bucket covering `n_sensors`, creating one
  // if the bucket's free list is empty (the only allocating path; it happens
  // at most once per bucket per concurrent worker). Never returns null.
  PooledWorkspace* Acquire(int n_sensors) EXCLUDES(mu_);

  // Returns a borrowed workspace to its bucket's free list (no allocation:
  // the list's capacity covers every workspace created in the bucket).
  void Release(PooledWorkspace* ws) EXCLUDES(mu_);

  Stats GetStats() const EXCLUDES(mu_);

  // Bucket index covering `n_sensors`: ceil(log2(n)), so bucket b spans
  // (2^(b-1), 2^b] sensors.
  static int BucketOf(int n_sensors);

 private:
  // Rank 15 (common/lock_order.h): taken alone, never while the scheduler
  // or a stream lock is held.
  mutable common::Mutex mu_{common::lock_order::kFleetWorkspacePool,
                            "fleet::WorkspacePool::mu_"};
  // free_[b] owns the idle workspaces of bucket b; borrowed ones are owned
  // by the borrowing worker until Release.
  std::vector<std::vector<std::unique_ptr<PooledWorkspace>>> free_
      GUARDED_BY(mu_);
  std::vector<uint64_t> created_per_bucket_ GUARDED_BY(mu_);
  uint64_t created_ GUARDED_BY(mu_) = 0;
  uint64_t acquires_ GUARDED_BY(mu_) = 0;
  uint64_t in_use_ GUARDED_BY(mu_) = 0;
};

}  // namespace cad::fleet

#endif  // CAD_FLEET_WORKSPACE_POOL_H_
