// The round-scoped candidate-evaluation interface the greedy driver loop
// solves against, its in-process implementations, and the reusable
// shard-restricted CELF engine behind the lazy ones:
//
//   - SweepCandidateEvaluator: the exhaustive execution (SolveGreedy and
//     SolveGreedyParallel) — one batch gain sweep per round, serial or
//     cut into chunks on a thread pool, then a serial strict-> scan;
//   - LazyCandidateEvaluator: the in-process kernel-backed execution —
//     exactly the threshold-seeded, bound-ordered lazy CELF that
//     SolveGreedyLazy has always run, restructured behind the interface;
//   - DistributedCandidateEvaluator (src/dist/distributed_solver.h): the
//     coordinator side of the multi-process sharded solve, where each
//     worker process runs a CelfShardEngine over its contiguous candidate
//     shard and the coordinator merges per-round proposals.
//
// The contract is deliberately tiny — one exact argmax per round, one
// commit per selection — because that is all Algorithm 1 needs:
//
//   BestCandidate()   the exact (gain, id)-argmax over every live
//                     candidate, with ties broken toward the smaller id
//                     (the canonical tie-break every execution shares).
//                     Must be exact, not approximate: the distributed
//                     solve's byte-identity to SolveGreedyLazy rests on
//                     every evaluator returning the plain-greedy argmax.
//   CommitWinner(v)   called after the driver applied AddNode(v) to the
//                     shared CoverState; the evaluator updates its own
//                     bookkeeping (heap round, remote shard residuals).
//
// Shard decomposition note (the GreeDIMM argument): candidates are
// partitioned across engines, every engine sees the full residual state,
// and max over per-shard exact argmaxes == the global exact argmax. The
// greedy selection sequence — and therefore the (1 - 1/e) guarantee —
// survives the decomposition unchanged.

#ifndef PREFCOVER_CORE_CANDIDATE_EVALUATOR_H_
#define PREFCOVER_CORE_CANDIDATE_EVALUATOR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "core/cover_state.h"
#include "core/solver_stats.h"
#include "graph/preference_graph.h"
#include "util/bitset.h"
#include "util/status.h"

namespace prefcover {

struct GreedyOptions;  // core/greedy_solver.h
class ThreadPool;      // util/thread_pool.h

/// \brief One round's winning candidate. `found == false` means the
/// evaluator has no live candidate left (every node retained/excluded).
struct CandidateProposal {
  bool found = false;
  double gain = 0.0;
  NodeId node = kInvalidNode;
};

/// \brief Work tallies an evaluator accumulates between driver drains
/// (the driver folds them into the run-scoped solver.* counters once per
/// round, keeping the inner loops free of sharded-counter traffic).
struct EvaluatorCounters {
  uint64_t gain_evaluations = 0;
  uint64_t heap_pops = 0;
  uint64_t stale_refreshes = 0;
  uint64_t seed_refills = 0;
  /// Pool dispatches (one per pooled gain sweep) and the work items they
  /// carried.
  uint64_t parallel_batches = 0;
  uint64_t parallel_items = 0;

  void MergeFrom(EvaluatorCounters* other) {
    gain_evaluations += other->gain_evaluations;
    heap_pops += other->heap_pops;
    stale_refreshes += other->stale_refreshes;
    seed_refills += other->seed_refills;
    parallel_batches += other->parallel_batches;
    parallel_items += other->parallel_items;
    *other = EvaluatorCounters();
  }
};

/// \brief Everything the driver hands an evaluator factory: the shared
/// cover state (already seeded with any force-include / resume prefix),
/// the exclusion mask, and the prefix that produced that state.
struct EvaluatorContext {
  const PreferenceGraph* graph = nullptr;
  /// Driver-owned; the driver applies every AddNode. Evaluators read
  /// gains/residuals from it and must not mutate it.
  CoverState* state = nullptr;
  const Bitset* excluded = nullptr;
  size_t num_excluded = 0;
  /// Items already committed (force_include or checkpoint resume), in
  /// selection order. The factory runs after the driver replayed them.
  const std::vector<NodeId>* committed = nullptr;
  size_t k = 0;
  const GreedyOptions* options = nullptr;
};

/// \brief Round-scoped candidate evaluation: the interface both the
/// in-process and the distributed greedy executions implement.
class CandidateEvaluator {
 public:
  virtual ~CandidateEvaluator() = default;

  /// The exact argmax over all live candidates for the current round.
  /// Stable under repetition: calling twice without an intervening
  /// CommitWinner returns the same proposal.
  virtual Result<CandidateProposal> BestCandidate() = 0;

  /// Advances to the next round after the driver applied `v` to the
  /// shared CoverState. `v` is the proposal BestCandidate returned.
  virtual Status CommitWinner(NodeId v) = 0;

  /// Moves accumulated work tallies into `*into` (resets the internal
  /// tallies). Called by the driver once per selection round.
  virtual void DrainCounters(EvaluatorCounters* into) { (void)into; }

  /// End-of-run hook: lets an evaluator fold execution-wide telemetry
  /// (e.g. the distributed workers' counters) into the solution stats.
  virtual Status Finish(SolverStats* stats) {
    (void)stats;
    return Status::OK();
  }
};

/// \brief The exhaustive argmax of Algorithm 1: each round one
/// CoverState::GainsInto sweep writes every node's gain, then a serial
/// strict-> scan over the live candidates in id order picks the winner, so
/// ties keep the smaller id. With a pool the sweep is cut into
/// ParallelForChunked chunks at arbitrary node ids; a gain does not depend
/// on any other, so the chunking cannot change a value and the selection
/// is identical for every thread count.
class SweepCandidateEvaluator : public CandidateEvaluator {
 public:
  /// `pool` may be nullptr: one serial sweep over [0, n) per round.
  SweepCandidateEvaluator(const EvaluatorContext& context, ThreadPool* pool);

  Result<CandidateProposal> BestCandidate() override;
  Status CommitWinner(NodeId v) override;
  void DrainCounters(EvaluatorCounters* into) override;
  /// Reports the pool width and the busy / wall seconds of the pooled
  /// sweeps (SolverStats::PoolUtilization).
  Status Finish(SolverStats* stats) override;

 private:
  const CoverState* state_;
  const Bitset* excluded_;
  ThreadPool* pool_;
  /// Gains indexed by node id; every sweep overwrites [0, n) first.
  std::unique_ptr<double[]> gains_;
  /// Chunk wall seconds per ParallelForChunked worker slot, summed over
  /// all sweeps; and the wall seconds of those sweeps on the caller.
  std::vector<double> busy_seconds_;
  double sweep_seconds_ = 0.0;
  EvaluatorCounters counters_;
};

// --- CELF machinery shared by the lazy executions and the shard engine --

/// \brief Lazy-greedy heap entry: a (gain, node) pair tagged with the
/// selection round the gain was computed in; entries from earlier rounds
/// are stale upper bounds (submodularity) and are refreshed before they
/// can win.
struct CelfHeapEntry {
  double gain;
  NodeId node;
  uint32_t round;
};

/// \brief Heap order: larger gain first, ties toward the smaller id —
/// exactly the plain greedy scan's strict-> tie-break.
struct CelfWorse {
  bool operator()(const CelfHeapEntry& a, const CelfHeapEntry& b) const {
    if (a.gain != b.gain) return a.gain < b.gain;
    return a.node > b.node;
  }
};

using CelfHeap = std::priority_queue<CelfHeapEntry,
                                     std::vector<CelfHeapEntry>, CelfWorse>;

/// \brief A threshold-seeded CELF heap: the exact top-`cap` candidates by
/// (gain, id) order plus the cut threshold theta (the worst kept entry)
/// when candidates were cut. Exactness: while the selection front stays
/// at or above theta the cut pool cannot hold the argmax; the moment it
/// might, the owner refills.
struct CelfSeededHeap {
  CelfHeap heap;
  CelfHeapEntry theta{0.0, 0, 0};
  bool truncated = false;
};

/// \brief Visits every node in [begin, end) that is neither retained nor
/// excluded, in increasing id order, testing 64 nodes per word load.
/// The enumeration order is load-bearing: the plain scan's strict->
/// tie-break depends on it.
template <typename Fn>
void ForEachCandidateInRange(const Bitset& retained, const Bitset& excluded,
                             size_t begin, size_t end, Fn&& fn) {
  const size_t first_word = begin / Bitset::kWordBits;
  const size_t last_word = (end + Bitset::kWordBits - 1) / Bitset::kWordBits;
  for (size_t w = first_word; w < last_word; ++w) {
    uint64_t live = ~(retained.WordAt(w) | excluded.WordAt(w));
    const size_t base = w * Bitset::kWordBits;
    if (base < begin) {  // clip the partial first word
      live &= ~0ULL << (begin - base);
    }
    if (end - base < Bitset::kWordBits) {  // clip past end (+ ghost bits)
      live &= (1ULL << (end - base)) - 1;
    }
    if (live == ~0ULL) {
      // Full word (the common case before many selections): skip the
      // bit-extraction dance entirely.
      for (size_t b = 0; b < Bitset::kWordBits; ++b) {
        fn(static_cast<NodeId>(base + b));
      }
      continue;
    }
    while (live != 0) {
      const int b = __builtin_ctzll(live);
      live &= live - 1;
      fn(static_cast<NodeId>(base + static_cast<size_t>(b)));
    }
  }
}

/// \brief Streams the candidates of [begin, end) over batch-computed
/// `gains` (indexed by node id), keeping the exact top `cap` entries by
/// (gain, id). Tallies one gain evaluation per candidate into
/// `*gain_evals` (the batch sweep computed them all). The scalar-tier
/// seed path; see candidate_evaluator.cc for the collect-and-compact
/// argument.
CelfSeededHeap BuildCelfSeed(const CoverState& state, const Bitset& excluded,
                             size_t begin, size_t end,
                             std::span<const double> gains, size_t cap,
                             uint32_t round, uint64_t* gain_evals);

/// \brief Bound-ordered seed for the kernel tiers: walks the graph's
/// descending static-gain-bound order, evaluating exact gains only for
/// candidates in [begin, end), and stops once the running threshold
/// exceeds every remaining bound. `live_candidates` is the number of
/// unretained, unexcluded nodes currently in the range (the builder
/// cannot count them itself — the early exit is the whole point). The
/// kept set is the exact top `cap` by (gain, id) — identical to
/// BuildCelfSeed's — so every tier selects identical node sequences.
CelfSeededHeap BuildCelfSeedBounded(const CoverState& state,
                                    const Bitset& excluded, size_t begin,
                                    size_t end, size_t cap, uint32_t round,
                                    size_t live_candidates,
                                    uint64_t* gain_evals);

/// \brief Lazy CELF over one contiguous candidate shard [begin, end):
/// the per-shard engine of the distributed solve, and (over the full
/// range) the machinery behind LazyCandidateEvaluator.
///
/// Propose() settles the heap top to freshness and returns the shard's
/// exact (gain, id)-argmax against the current CoverState — without
/// consuming it, so a proposal that loses the global merge stays
/// available. OnCommitted(winner) must be called for *every* committed
/// selection (any shard's): the caller has already applied AddNode, so
/// the engine only advances its round (stored gains become stale upper
/// bounds) and recycles the held proposal.
class CelfShardEngine {
 public:
  struct Config {
    size_t shard_begin = 0;
    size_t shard_end = 0;  // exclusive; 0/0 means the full range
    /// Seed-heap capacity T (0 = the lazy default, 1024), clamped to the
    /// shard size. Purely a performance knob — the proposal sequence is
    /// identical for every value.
    size_t seed_heap_capacity = 0;
  };

  /// `state` and `excluded` must outlive the engine. The state may
  /// already contain committed selections (force_include / resume); the
  /// seed is built against it on the first Propose().
  CelfShardEngine(const CoverState* state, const Bitset* excluded,
                  Config config);

  /// The shard's exact argmax for the current round (found == false when
  /// the shard has no live candidate). Repeatable until OnCommitted.
  CandidateProposal Propose();

  /// Advances past a committed selection. `winner` may belong to any
  /// shard; the caller has already applied CoverState::AddNode(winner).
  void OnCommitted(NodeId winner);

  void DrainCounters(EvaluatorCounters* into) { into->MergeFrom(&counters_); }

  size_t shard_begin() const { return shard_begin_; }
  size_t shard_end() const { return shard_end_; }
  uint32_t round() const { return round_; }

 private:
  void Reseed();

  const CoverState* state_;
  const Bitset* excluded_;
  size_t shard_begin_;
  size_t shard_end_;
  size_t seed_cap_;
  /// Unretained, unexcluded ids currently in [shard_begin_, shard_end_);
  /// kept incrementally so the bounded seed knows when it truncated.
  size_t live_candidates_;

  CelfSeededHeap seeded_;
  bool seeded_once_ = false;
  uint32_t round_ = 0;
  /// The settled proposal for the current round, held out of the heap
  /// until OnCommitted decides its fate (winner: dropped; loser:
  /// reinserted, becoming a stale upper bound for the next round).
  std::optional<CelfHeapEntry> pending_;
  /// Scalar-tier seed scratch (gains indexed by node id; sized to
  /// shard_end_ on first use).
  std::vector<double> gains_;

  EvaluatorCounters counters_;
};

/// \brief The in-process implementation of CandidateEvaluator: exactly
/// SolveGreedyLazy's threshold-seeded lazy CELF over the full candidate
/// range, kernel-backed at the state's SimdLevel.
class LazyCandidateEvaluator : public CandidateEvaluator {
 public:
  explicit LazyCandidateEvaluator(const EvaluatorContext& context);

  Result<CandidateProposal> BestCandidate() override;
  Status CommitWinner(NodeId v) override;
  void DrainCounters(EvaluatorCounters* into) override;

 private:
  CelfShardEngine engine_;
};

}  // namespace prefcover

#endif  // PREFCOVER_CORE_CANDIDATE_EVALUATOR_H_
