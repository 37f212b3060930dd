// The global lock-order hierarchy (tier 7 of the static analysis stack,
// DESIGN.md "Concurrency contracts").
//
// Deadlock freedom in this tree is a *ranked hierarchy* invariant: every
// mutex carries a rank, and a thread may only acquire a mutex whose rank is
// strictly greater than the rank of every ranked mutex it already holds.
// Because the relation is a total order, no cycle of acquired-while-held
// edges can ever form, so the process cannot deadlock on these locks.
//
// The hierarchy, outermost first (a lower rank is acquired earlier):
//
//   rank | capability                          | why it sits here
//   -----+-------------------------------------+---------------------------
//    10  | obs::ExpositionServer::join_mu_     | Stop() holds it across the
//         |                                     | serve-thread join; handler
//         |                                     | code on that thread takes
//         |                                     | every lock below, so this
//         |                                     | one must never be taken
//         |                                     | while any of them is held.
//    14  | fleet::WeightedScheduler::mu_       | pick/release bookkeeping;
//         |                                     | always taken with nothing
//         |                                     | else held — workers pick,
//         |                                     | release, *then* service the
//         |                                     | tenant they were handed.
//    15  | fleet::WorkspacePool::mu_           | arena free-list pops; taken
//         |                                     | alone, never nested under
//         |                                     | the scheduler or a stream.
//    18  | common::BoundedSampleQueue::mu_     | per-tenant ingestion ring;
//         |                                     | producers and the servicing
//         |                                     | worker both take it alone.
//    20  | core::StreamingCad::mu_             | the per-stream driver lock
//         |                                     | (a solo stream or one fleet
//         |                                     | tenant); a round records
//         |                                     | telemetry and spans while
//         |                                     | holding it.
//    30  | obs::Registry::mu_                  | registration + snapshot of
//         |                                     | the metrics registry,
//         |                                     | taken inside a round.
//    31  | obs::Tracer::mu_                    | span buffer append, taken
//         |                                     | inside a round alongside
//         |                                     | the registry.
//    40  | baselines::ParallelEnsemble errors  | leaf: the worker error
//         |                                     | slot; scoring workers hold
//         |                                     | nothing else.
//
// Three independent enforcers consume this table:
//   * Clang thread-safety (ACQUIRED_BEFORE / ACQUIRED_AFTER in
//     thread_annotations.h, checked under -Wthread-safety-beta),
//   * tools/cad_lint rule CL009 (token-level acquired-while-held graph over
//     the whole tree; any cycle is a finding with the full lock chain), and
//   * the runtime lock-order tracker in common/mutex.h (CAD_CHECK_LEVEL=full
//     builds CAD_FATAL on the first inversion, with both conflicting
//     chains).
//
// Adding a mutex: pick a rank from this table (or add a row), construct the
// Mutex with it — `common::Mutex mu_{lock_order::kMyRank, "Class::mu_"}` —
// and keep the gaps: unassigned values between existing ranks leave room to
// slot new locks into the middle of the hierarchy without renumbering.
// Unranked mutexes (default constructor) are exempt from the rank check but
// still feed the tracker's acquired-after graph, so inversions among them
// are caught too.
#ifndef CAD_COMMON_LOCK_ORDER_H_
#define CAD_COMMON_LOCK_ORDER_H_

namespace cad::common::lock_order {

// obs::ExpositionServer::join_mu_ — held across the serve-thread join.
inline constexpr int kExpositionJoin = 10;

// fleet::WeightedScheduler::mu_ — tenant pick/release bookkeeping. Workers
// acquire it with no other lock held and release it before touching the
// picked tenant, so it never nests inside the rest of the fleet hierarchy.
inline constexpr int kFleetScheduler = 14;

// fleet::WorkspacePool::mu_ — RoundWorkspace arena free lists, taken alone
// after the scheduler handoff.
inline constexpr int kFleetWorkspacePool = 15;

// common::BoundedSampleQueue::mu_ — the per-tenant bounded ingestion ring.
// Producers and the servicing worker both take it with nothing else held.
inline constexpr int kFleetQueue = 18;

// core::StreamingCad::mu_ — the streaming driver's round/state lock, one per
// solo stream or fleet tenant.
inline constexpr int kStreamingCad = 20;

// obs::Registry::mu_ — metrics registration and snapshots.
inline constexpr int kObsRegistry = 30;

// obs::Tracer::mu_ — span buffer writes and snapshots.
inline constexpr int kObsTracer = 31;

// baselines::ParallelEnsemble's scoring-worker error slot (leaf).
inline constexpr int kEnsembleErrors = 40;

}  // namespace cad::common::lock_order

#endif  // CAD_COMMON_LOCK_ORDER_H_
