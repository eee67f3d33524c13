#include "core/candidate_evaluator.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/greedy_solver.h"
#include "obs/trace.h"
#include "util/parallel_for.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace prefcover {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr size_t kDefaultCelfSeedCapacity = 1024;

}  // namespace

SweepCandidateEvaluator::SweepCandidateEvaluator(
    const EvaluatorContext& context, ThreadPool* pool)
    : state_(context.state),
      excluded_(context.excluded),
      pool_(pool),
      gains_(std::make_unique_for_overwrite<double[]>(
          context.graph->NumNodes())),
      busy_seconds_(pool == nullptr ? 0 : pool->num_threads(), 0.0) {}

Result<CandidateProposal> SweepCandidateEvaluator::BestCandidate() {
  const size_t n = state_->graph().NumNodes();
  const std::span<double> gains(gains_.get(), n);
  if (pool_ == nullptr) {
    state_->GainsInto(0, n, gains);
  } else {
    Stopwatch sweep;
    ParallelForChunked(pool_, 0, n,
                       [this, gains](size_t lo, size_t hi, size_t worker) {
                         Stopwatch chunk;
                         state_->GainsInto(lo, hi, gains);
                         busy_seconds_[worker] += chunk.ElapsedSeconds();
                       });
    sweep_seconds_ += sweep.ElapsedSeconds();
    ++counters_.parallel_batches;
    counters_.parallel_items += n;
  }
  CandidateProposal best;
  double best_gain = -1.0;
  ForEachCandidateInRange(state_->retained(), *excluded_, 0, n,
                          [&](NodeId v) {
    ++counters_.gain_evaluations;
    if (gains[v] > best_gain) {  // strict: ties keep the smaller id
      best_gain = gains[v];
      best = {true, best_gain, v};
    }
  });
  return best;
}

Status SweepCandidateEvaluator::CommitWinner(NodeId v) {
  (void)v;  // the next sweep reads the driver's updated CoverState
  return Status::OK();
}

void SweepCandidateEvaluator::DrainCounters(EvaluatorCounters* into) {
  into->MergeFrom(&counters_);
}

Status SweepCandidateEvaluator::Finish(SolverStats* stats) {
  if (pool_ == nullptr) return Status::OK();
  stats->threads = pool_->num_threads();
  stats->pool_busy_seconds =
      std::accumulate(busy_seconds_.begin(), busy_seconds_.end(), 0.0);
  stats->pool_wall_seconds = sweep_seconds_;
  return Status::OK();
}

// Collect-and-compact top-cap selection over a shard range (exactness:
// see CelfSeededHeap in the header): candidates above the running
// threshold are appended to a 2*cap buffer cut back to the exact top
// `cap` (nth_element by pair order) whenever it fills — O(1) amortized
// per survivor instead of a push_heap. (gain, id) pairs are unique, so the
// kept set does not depend on nth_element's implementation.
CelfSeededHeap BuildCelfSeed(const CoverState& state, const Bitset& excluded,
                             size_t begin, size_t end,
                             std::span<const double> gains, size_t cap,
                             uint32_t round, uint64_t* gain_evals) {
  const auto best_first = [](const CelfHeapEntry& a, const CelfHeapEntry& b) {
    return CelfWorse()(b, a);
  };
  std::vector<CelfHeapEntry> keep;
  keep.reserve(2 * cap);
  size_t candidates = 0;
  double theta_gain = kNegInf;  // nothing is cut until the first compact
  NodeId theta_node = 0;
  const auto compact = [&] {
    std::nth_element(keep.begin(),
                     keep.begin() + static_cast<ptrdiff_t>(cap - 1),
                     keep.end(), best_first);
    keep.resize(cap);
    theta_gain = keep[cap - 1].gain;
    theta_node = keep[cap - 1].node;
  };
  ForEachCandidateInRange(state.retained(), excluded, begin, end,
                          [&](NodeId v) {
    ++candidates;
    ++*gain_evals;
    const double g = gains[v];
    if (g < theta_gain || (g == theta_gain && v > theta_node)) return;
    keep.push_back({g, v, round});
    if (keep.size() == 2 * cap) compact();
  });
  if (keep.size() > cap) compact();
  CelfSeededHeap out;
  out.truncated = candidates > keep.size();
  if (out.truncated) out.theta = {theta_gain, theta_node, round};
  out.heap = CelfHeap(CelfWorse(), std::move(keep));
  return out;
}

// Bound-ordered walk with exact early exit (the kernel-tier seed). theta
// is the last compact's cut — a lower bound on the running exact
// threshold — so the stop test is conservative: it can only visit extra
// nodes, never skip a needed one.
CelfSeededHeap BuildCelfSeedBounded(const CoverState& state,
                                    const Bitset& excluded, size_t begin,
                                    size_t end, size_t cap, uint32_t round,
                                    size_t live_candidates,
                                    uint64_t* gain_evals) {
  const auto best_first = [](const CelfHeapEntry& a, const CelfHeapEntry& b) {
    return CelfWorse()(b, a);
  };
  const PreferenceGraph& graph = state.graph();
  const std::span<const double> bounds = graph.StaticGainBounds();
  const Bitset& retained = state.retained();
  std::vector<CelfHeapEntry> keep;
  keep.reserve(2 * cap);
  double theta_gain = kNegInf;  // nothing is cut until the first compact
  NodeId theta_node = 0;
  const auto compact = [&] {
    std::nth_element(keep.begin(),
                     keep.begin() + static_cast<ptrdiff_t>(cap - 1),
                     keep.end(), best_first);
    keep.resize(cap);
    theta_gain = keep[cap - 1].gain;
    theta_node = keep[cap - 1].node;
  };
  for (const NodeId v : graph.NodesByStaticGainBound()) {
    // Strict: a bound that ties theta can still hide a gain that ties
    // theta with a smaller id, which would outrank it in pair order.
    if (bounds[v] < theta_gain) break;
    if (v < begin || v >= end) continue;
    if (retained.Test(v) || excluded.Test(v)) continue;
    const double g = state.GainOf(v);
    ++*gain_evals;
    if (g < theta_gain || (g == theta_gain && v > theta_node)) continue;
    keep.push_back({g, v, round});
    if (keep.size() == 2 * cap) compact();
  }
  if (keep.size() > cap) compact();
  CelfSeededHeap out;
  // Candidates below the cut — whether filtered or never visited — were
  // truncated exactly when fewer entries were kept than candidates exist.
  out.truncated = live_candidates > keep.size();
  if (out.truncated) out.theta = {theta_gain, theta_node, round};
  out.heap = CelfHeap(CelfWorse(), std::move(keep));
  return out;
}

CelfShardEngine::CelfShardEngine(const CoverState* state,
                                 const Bitset* excluded, Config config)
    : state_(state),
      excluded_(excluded),
      shard_begin_(config.shard_begin),
      shard_end_(config.shard_end),
      live_candidates_(0) {
  const size_t n = state_->graph().NumNodes();
  if (shard_end_ == 0 && shard_begin_ == 0) shard_end_ = n;
  shard_end_ = std::min(shard_end_, n);
  shard_begin_ = std::min(shard_begin_, shard_end_);
  const size_t cap = config.seed_heap_capacity > 0
                         ? config.seed_heap_capacity
                         : kDefaultCelfSeedCapacity;
  seed_cap_ = std::max<size_t>(
      1, std::min(cap, shard_end_ - shard_begin_));
  ForEachCandidateInRange(state_->retained(), *excluded_, shard_begin_,
                          shard_end_, [&](NodeId) { ++live_candidates_; });
}

void CelfShardEngine::Reseed() {
  obs::Span seed_span("solver.init_heap", "solver");
  seed_span.Arg("n", static_cast<uint64_t>(shard_end_ - shard_begin_));
  if (state_->simd_level() != SimdLevel::kScalar) {
    seeded_ = BuildCelfSeedBounded(*state_, *excluded_, shard_begin_,
                                   shard_end_, seed_cap_, round_,
                                   live_candidates_,
                                   &counters_.gain_evaluations);
    return;
  }
  // Scalar tier: the literal reference — one batch gain sweep over the
  // shard, cut to the top seed_cap_. The buffer is indexed by absolute
  // node id (GainsInto's contract), so it spans [0, shard_end_) even for
  // a tail shard; allocated once and reused across refills.
  if (gains_.empty()) {
    gains_.resize(shard_end_);
  }
  state_->GainsInto(shard_begin_, shard_end_, gains_);
  seeded_ = BuildCelfSeed(*state_, *excluded_, shard_begin_, shard_end_,
                          gains_, seed_cap_, round_,
                          &counters_.gain_evaluations);
}

CandidateProposal CelfShardEngine::Propose() {
  if (pending_.has_value()) {
    return {true, pending_->gain, pending_->node};
  }
  if (!seeded_once_) {
    seeded_once_ = true;
    Reseed();
  }
  CelfHeap& heap = seeded_.heap;
  for (;;) {
    if (heap.empty()) {
      if (!seeded_.truncated) return CandidateProposal{};  // exhausted
      // The kept pool drained; pull the cut candidates back in.
      ++counters_.seed_refills;
      Reseed();
      continue;
    }
    CelfHeapEntry top = heap.top();
    heap.pop();
    ++counters_.heap_pops;
    if (state_->IsRetained(top.node)) continue;
    if (top.round != round_) {
      // Submodularity: the true gain can only be <= the stale value, so
      // after refreshing, re-inserting preserves heap correctness.
      top.gain = state_->GainOf(top.node);
      top.round = round_;
      ++counters_.gain_evaluations;
      ++counters_.stale_refreshes;
      heap.push(top);
      continue;
    }
    if (seeded_.truncated && CelfWorse()(top, seeded_.theta)) {
      // The fresh front fell below the seed cut: a cut candidate may now
      // be the true argmax. Rebuild from a fresh sweep (top's node is
      // still a candidate, so the rebuild re-covers it).
      ++counters_.seed_refills;
      Reseed();
      continue;
    }
    // A fresh top dominates every other entry's stored gain, and stored
    // gains upper-bound true gains, so this is exactly the shard's
    // plain-greedy argmax. Held out of the heap until OnCommitted.
    pending_ = top;
    return {true, top.gain, top.node};
  }
}

void CelfShardEngine::OnCommitted(NodeId winner) {
  if (pending_.has_value()) {
    if (pending_->node != winner) {
      // A remote shard won the round: recycle the held proposal. Its
      // round tag predates the commit, so it re-enters as a stale upper
      // bound and gets refreshed before it can win again.
      seeded_.heap.push(*pending_);
    }
    pending_.reset();
  }
  if (winner >= shard_begin_ && winner < shard_end_) {
    --live_candidates_;  // the winner left this shard's candidate pool
  }
  ++round_;
}

LazyCandidateEvaluator::LazyCandidateEvaluator(const EvaluatorContext& context)
    : engine_(context.state, context.excluded,
              CelfShardEngine::Config{
                  0, context.graph->NumNodes(),
                  context.options != nullptr
                      ? context.options->seed_heap_capacity
                      : 0}) {}

Result<CandidateProposal> LazyCandidateEvaluator::BestCandidate() {
  return engine_.Propose();
}

Status LazyCandidateEvaluator::CommitWinner(NodeId v) {
  engine_.OnCommitted(v);
  return Status::OK();
}

void LazyCandidateEvaluator::DrainCounters(EvaluatorCounters* into) {
  engine_.DrainCounters(into);
}

}  // namespace prefcover
