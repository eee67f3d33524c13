#include "core/constrained_solver.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <string>
#include <tuple>
#include <utility>

#include "core/cover_function.h"
#include "core/cover_state.h"
#include "core/solver_stats.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace prefcover {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// The CELF heap over gain/cost ratios. Submodularity makes gains
// non-increasing as S grows and costs are fixed positives, so ratios are
// non-increasing too — the standard lazy argument carries over verbatim.
// Ties break to the smaller id, matching the unconstrained executions
// (with unit costs the ratio IS the gain, bit for bit).
struct RatioEntry {
  double ratio;
  NodeId node;
  uint32_t round;  // selection round the ratio was computed in
};
struct WorseRatio {
  bool operator()(const RatioEntry& a, const RatioEntry& b) const {
    if (a.ratio != b.ratio) return a.ratio < b.ratio;
    return a.node > b.node;  // smaller id wins ties
  }
};
using RatioHeap =
    std::priority_queue<RatioEntry, std::vector<RatioEntry>, WorseRatio>;

constexpr size_t kSeedHeapCapacity = 1024;

// Everything one constrained solve tracks besides the CoverState:
// selection order, budget/quota accounting and the telemetry tallies.
struct ConstrainedRun {
  ConstrainedRun(const PreferenceGraph* graph,
                 const ConstraintSpec* run_spec, Variant variant)
      : state(graph, variant), spec(run_spec) {
    if (spec->HasBudget()) remaining = spec->budget;
    if (spec->HasQuotas()) {
      count.assign(spec->quotas.size(), 0);
      deficit.resize(spec->quotas.size());
      for (size_t c = 0; c < spec->quotas.size(); ++c) {
        deficit[c] = spec->quotas[c].min_items;
        total_deficit += deficit[c];
      }
    }
  }

  CoverState state;
  const ConstraintSpec* spec;
  std::vector<NodeId> items;
  std::vector<double> prefix_covers;
  double total_cost = 0.0;
  double remaining = std::numeric_limits<double>::infinity();

  // Quota accounting, indexed by category (empty without quotas).
  std::vector<uint32_t> count;
  std::vector<uint32_t> deficit;
  uint64_t total_deficit = 0;

  // Telemetry, folded into SolverStats (and the global registry) at the
  // end — the hot loop stays plain integer increments.
  uint64_t iterations = 0;
  uint64_t gain_evaluations = 0;
  uint64_t heap_pops = 0;
  uint64_t stale_refreshes = 0;
  uint64_t seed_refills = 0;

  // A candidate is admissible when it is unretained, affordable, and its
  // category is below its maximum. All three only tighten as S grows, so
  // an inadmissible candidate is dead for the rest of the solve — popped
  // heap entries for it are simply dropped.
  bool Admissible(NodeId v) const {
    if (state.IsRetained(v)) return false;
    if (spec->CostOf(v) > remaining) return false;
    if (!count.empty()) {
      const uint32_t c = spec->categories[v];
      if (count[c] >= spec->quotas[c].max_items) return false;
    }
    return true;
  }

  void Select(NodeId v) {
    state.AddNode(v);
    items.push_back(v);
    prefix_covers.push_back(state.cover());
    const double cost = spec->CostOf(v);
    total_cost += cost;
    if (spec->HasBudget()) remaining -= cost;
    if (!count.empty()) {
      const uint32_t c = spec->categories[v];
      ++count[c];
      if (deficit[c] > 0) {
        --deficit[c];
        --total_deficit;
      }
    }
    ++iterations;
  }
};

// Sum of the `take` cheapest unretained members of `members` (ascending
// (cost, id) order), skipping `skip` — the budget a category still needs
// reserved to finish its minimum quota.
double ReserveCost(const ConstrainedRun& run,
                   const std::vector<NodeId>& members, NodeId skip,
                   uint32_t take) {
  double sum = 0.0;
  uint32_t taken = 0;
  for (NodeId v : members) {
    if (taken == take) break;
    if (v == skip || run.state.IsRetained(v)) continue;
    sum += run.spec->CostOf(v);
    ++taken;
  }
  return sum;
}

// Phase 1: satisfy every minimum quota. Each round picks the best
// gain/cost ratio among members of still-deficient categories that are
// admissible AND leave enough of the remaining budget to finish every
// other deficit with its cheapest members. The cheapest member of every
// deficient category always passes that test (picking it converts its
// own reservation into spend one-for-one), so the phase never strands a
// minimum that the static feasibility check admitted.
void FillMinimumQuotas(ConstrainedRun* run,
                       const std::vector<std::vector<NodeId>>& members) {
  const ConstraintSpec& spec = *run->spec;
  const bool has_budget = spec.HasBudget();
  // Per-category reservation under the current retained set.
  std::vector<double> reserve(run->deficit.size(), 0.0);
  double reserve_total = 0.0;
  const auto refresh_reserves = [&] {
    if (!has_budget) return;
    reserve_total = 0.0;
    for (size_t c = 0; c < run->deficit.size(); ++c) {
      reserve[c] = run->deficit[c] == 0
                       ? 0.0
                       : ReserveCost(*run, members[c], kInvalidNode,
                                     run->deficit[c]);
      reserve_total += reserve[c];
    }
  };
  refresh_reserves();
  while (run->total_deficit > 0) {
    NodeId best = kInvalidNode;
    double best_ratio = kNegInf;
    for (size_t c = 0; c < run->deficit.size(); ++c) {
      if (run->deficit[c] == 0) continue;
      for (NodeId v : members[c]) {
        if (run->state.IsRetained(v)) continue;
        const double cost = spec.CostOf(v);
        if (has_budget) {
          if (cost > run->remaining) continue;
          const double reserve_after =
              reserve_total - reserve[c] +
              ReserveCost(*run, members[c], v, run->deficit[c] - 1);
          if (run->remaining - cost < reserve_after) continue;
        }
        const double gain = run->state.GainOf(v);
        ++run->gain_evaluations;
        const double ratio = gain / cost;
        if (ratio > best_ratio || (ratio == best_ratio && v < best)) {
          best_ratio = ratio;
          best = v;
        }
      }
    }
    if (best == kInvalidNode) break;  // unreachable after feasibility checks
    run->Select(best);
    refresh_reserves();
  }
}

// Threshold-seeded ratio heap, the constrained twin of the unconstrained
// bounded seed (core/candidate_evaluator.cc): walk `order` — descending
// bound(v)/cost(v) — evaluating exact ratios for admissible candidates,
// keep the top `cap` by (ratio, id), and STOP once every remaining
// bound-ratio falls below the cut: Gain(v) <= bound(v) against any
// retained set and cost(v) > 0, so bound(v)/cost(v) caps the true ratio.
// Unlike the unconstrained solver this single walk is the seed at every
// SIMD level — GainOf is bit-identical across levels, so so is the seed.
struct SeededRatioHeap {
  RatioHeap heap;
  RatioEntry theta{0.0, 0, 0};  // worst kept entry; valid iff truncated
  bool truncated = false;
};

SeededRatioHeap BuildRatioSeed(ConstrainedRun* run,
                               std::span<const NodeId> order,
                               std::span<const double> bounds, size_t cap,
                               uint32_t round) {
  const ConstraintSpec& spec = *run->spec;
  const auto best_first = [](const RatioEntry& a, const RatioEntry& b) {
    return WorseRatio()(b, a);
  };
  std::vector<RatioEntry> keep;
  keep.reserve(2 * cap);
  double theta_ratio = kNegInf;  // nothing is cut until the first compact
  NodeId theta_node = 0;
  const auto compact = [&] {
    std::nth_element(keep.begin(),
                     keep.begin() + static_cast<ptrdiff_t>(cap - 1),
                     keep.end(), best_first);
    keep.resize(cap);
    theta_ratio = keep[cap - 1].ratio;
    theta_node = keep[cap - 1].node;
  };
  bool early_exit = false;
  size_t admissible_seen = 0;
  for (const NodeId v : order) {
    // Strict: a bound-ratio tying theta can still hide a ratio that ties
    // theta with a smaller id, which outranks it in pair order.
    if (bounds[v] / spec.CostOf(v) < theta_ratio) {
      early_exit = true;
      break;
    }
    if (!run->Admissible(v)) continue;
    ++admissible_seen;
    const double gain = run->state.GainOf(v);
    ++run->gain_evaluations;
    const double ratio = gain / spec.CostOf(v);
    if (ratio < theta_ratio || (ratio == theta_ratio && v > theta_node)) {
      continue;
    }
    keep.push_back({ratio, v, round});
    if (keep.size() == 2 * cap) compact();
  }
  if (keep.size() > cap) compact();
  SeededRatioHeap out;
  // Cut candidates — filtered, compacted away, or never visited — exist
  // exactly when the walk early-exited or kept fewer than it admitted.
  out.truncated = early_exit || admissible_seen > keep.size();
  if (out.truncated) out.theta = {theta_ratio, theta_node, round};
  out.heap = RatioHeap(WorseRatio(), std::move(keep));
  return out;
}

// Phase 2: cost-ratio CELF until the item budget k, the knapsack budget,
// or the admissible pool runs out. Zero-gain candidates are still
// selected (matching plain greedy, which fills k regardless) — only
// admissibility ends the phase early.
void RatioGreedy(ConstrainedRun* run, std::span<const NodeId> order,
                 std::span<const double> bounds, size_t k) {
  const ConstraintSpec& spec = *run->spec;
  const size_t cap = std::min(kSeedHeapCapacity, order.size());
  uint32_t round = static_cast<uint32_t>(run->items.size());
  SeededRatioHeap seeded = BuildRatioSeed(run, order, bounds, cap, round);
  while (run->items.size() < k) {
    if (seeded.heap.empty()) {
      if (!seeded.truncated) break;  // pool exhausted, not cut
      ++run->seed_refills;
      seeded = BuildRatioSeed(run, order, bounds, cap, round);
      continue;
    }
    RatioEntry top = seeded.heap.top();
    seeded.heap.pop();
    ++run->heap_pops;
    // Inadmissibility is permanent (budget and quota room only shrink),
    // so dead entries are dropped, never reinserted.
    if (!run->Admissible(top.node)) continue;
    if (top.round != round) {
      top.ratio = run->state.GainOf(top.node) / spec.CostOf(top.node);
      top.round = round;
      ++run->gain_evaluations;
      ++run->stale_refreshes;
      seeded.heap.push(top);
      continue;
    }
    if (seeded.truncated && WorseRatio()(top, seeded.theta)) {
      // The fresh front fell below the seed cut: a cut candidate may now
      // be the true argmax. Rebuild (top's node is re-covered).
      ++run->seed_refills;
      seeded = BuildRatioSeed(run, order, bounds, cap, round);
      continue;
    }
    run->Select(top.node);
    ++round;
  }
}

// Best affordable singleton at the empty state (quota maxima respected),
// via the static-bound order with exact early exit. kInvalidNode when
// nothing is affordable.
std::pair<NodeId, double> BestAffordableSingleton(ConstrainedRun* run) {
  const ConstraintSpec& spec = *run->spec;
  const PreferenceGraph& graph = run->state.graph();
  const std::span<const double> bounds = graph.StaticGainBounds();
  NodeId best = kInvalidNode;
  double best_gain = kNegInf;
  for (const NodeId v : graph.NodesByStaticGainBound()) {
    if (bounds[v] < best_gain) break;  // strict, for equal-gain ties
    if (spec.CostOf(v) > spec.budget) continue;
    if (spec.HasQuotas() &&
        spec.quotas[spec.categories[v]].max_items < 1) {
      continue;
    }
    const double gain = run->state.GainOf(v);
    ++run->gain_evaluations;
    if (gain > best_gain || (gain == best_gain && v < best)) {
      best_gain = gain;
      best = v;
    }
  }
  return {best, best_gain};
}

// Feasibility of the minima against the instance: enough members per
// category, enough item budget k in total, and (under a budget) an
// affordable cheapest completion. These depend on k, so they live here
// rather than in ValidateConstraintSpec.
Status CheckQuotaFeasibility(const PreferenceGraph& graph,
                             const ConstraintSpec& spec, size_t k,
                             const std::vector<std::vector<NodeId>>& members) {
  uint64_t sum_min = 0;
  double reservation = 0.0;
  for (size_t c = 0; c < spec.quotas.size(); ++c) {
    const uint32_t min_items = spec.quotas[c].min_items;
    if (min_items == 0) continue;
    if (min_items > members[c].size()) {
      return Status::FailedPrecondition(
          "quota minimum of category " + std::to_string(c) + " is " +
          std::to_string(min_items) + " but it has only " +
          std::to_string(members[c].size()) + " members");
    }
    sum_min += min_items;
    if (spec.HasBudget()) {
      for (uint32_t i = 0; i < min_items; ++i) {
        reservation += spec.CostOf(members[c][i]);
      }
    }
  }
  if (sum_min > k) {
    return Status::FailedPrecondition(
        "quota minimums require " + std::to_string(sum_min) +
        " items but the item budget is " + std::to_string(k));
  }
  if (spec.HasBudget() && reservation > spec.budget) {
    return Status::FailedPrecondition(
        "cheapest completion of the quota minimums costs " +
        std::to_string(reservation) + ", above the budget " +
        std::to_string(spec.budget));
  }
  (void)graph;
  return Status::OK();
}

}  // namespace

Status ValidateConstraintSpec(const PreferenceGraph& graph,
                              const ConstraintSpec& spec) {
  const size_t n = graph.NumNodes();
  if (!spec.costs.empty() && spec.costs.size() != n) {
    return Status::InvalidArgument(
        "cost vector size " + std::to_string(spec.costs.size()) +
        " does not match the graph's " + std::to_string(n) + " nodes");
  }
  for (size_t v = 0; v < spec.costs.size(); ++v) {
    if (!std::isfinite(spec.costs[v]) || spec.costs[v] <= 0.0) {
      return Status::InvalidArgument(
          "cost of item " + std::to_string(v) +
          " must be a finite positive number");
    }
  }
  if (std::isnan(spec.budget)) {
    return Status::InvalidArgument("budget must not be NaN");
  }
  if (spec.budget < 0.0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  if (spec.categories.empty() != spec.quotas.empty()) {
    return Status::InvalidArgument(
        "categories and quotas must be given together");
  }
  if (!spec.categories.empty() && spec.categories.size() != n) {
    return Status::InvalidArgument(
        "category vector size " + std::to_string(spec.categories.size()) +
        " does not match the graph's " + std::to_string(n) + " nodes");
  }
  for (size_t v = 0; v < spec.categories.size(); ++v) {
    if (spec.categories[v] >= spec.quotas.size()) {
      return Status::InvalidArgument(
          "item " + std::to_string(v) + " has category " +
          std::to_string(spec.categories[v]) + " but only " +
          std::to_string(spec.quotas.size()) + " quotas were given");
    }
  }
  for (size_t c = 0; c < spec.quotas.size(); ++c) {
    if (spec.quotas[c].min_items > spec.quotas[c].max_items) {
      return Status::InvalidArgument(
          "quota of category " + std::to_string(c) +
          " has min_items above max_items");
    }
  }
  return Status::OK();
}

Result<ConstrainedSolution> SolveConstrainedCover(
    const PreferenceGraph& graph, const ConstraintSpec& spec,
    const ConstrainedCoverOptions& options) {
  Stopwatch timer;
  PREFCOVER_RETURN_NOT_OK(ValidateConstraintSpec(graph, spec));
  const size_t n = graph.NumNodes();
  const size_t k = options.max_items == 0 ? n : options.max_items;
  PREFCOVER_RETURN_NOT_OK(ValidateInstance(graph, k, options.variant));

  // Category member lists, ascending (cost, id) — the order both the
  // reservation accounting and the feasibility check rely on.
  std::vector<std::vector<NodeId>> members;
  if (spec.HasQuotas()) {
    members.resize(spec.quotas.size());
    for (NodeId v = 0; v < n; ++v) {
      members[spec.categories[v]].push_back(v);
    }
    for (std::vector<NodeId>& list : members) {
      std::sort(list.begin(), list.end(), [&](NodeId a, NodeId b) {
        const double ca = spec.CostOf(a);
        const double cb = spec.CostOf(b);
        if (ca != cb) return ca < cb;
        return a < b;
      });
    }
    PREFCOVER_RETURN_NOT_OK(CheckQuotaFeasibility(graph, spec, k, members));
  }

  ConstrainedRun run(&graph, &spec, options.variant);

  // The (1 - 1/e)/2 guard: under a budget the ratio rule alone has no
  // constant factor (a cheap low-gain item can crowd out one expensive
  // high-gain item), so the best affordable singleton is computed up
  // front — the state is still empty here — and compared at the end.
  // Minimum quotas disable it: one item cannot satisfy several minima.
  NodeId best_single = kInvalidNode;
  double best_single_gain = kNegInf;
  if (spec.HasBudget() && !spec.HasMinQuotas() && k >= 1) {
    std::tie(best_single, best_single_gain) = BestAffordableSingleton(&run);
  }

  if (run.total_deficit > 0) FillMinimumQuotas(&run, members);

  // Candidate order for the seeded heap: descending bound(v)/cost(v).
  // With unit costs this is exactly the graph's precomputed static-bound
  // order, so the hot unconstrained path pays no per-solve sort.
  const std::span<const double> bounds = graph.StaticGainBounds();
  std::vector<NodeId> ratio_order;
  std::span<const NodeId> order = graph.NodesByStaticGainBound();
  if (!spec.UnitCosts()) {
    ratio_order.assign(order.begin(), order.end());
    std::sort(ratio_order.begin(), ratio_order.end(),
              [&](NodeId a, NodeId b) {
                const double ra = bounds[a] / spec.costs[a];
                const double rb = bounds[b] / spec.costs[b];
                if (ra != rb) return ra > rb;
                return a < b;
              });
    order = ratio_order;
  }
  RatioGreedy(&run, order, bounds, k);

  ConstrainedSolution out;
  out.solution.variant = options.variant;
  out.solution.algorithm = "constrained-greedy";
  if (best_single != kInvalidNode && best_single_gain > run.state.cover()) {
    CoverState single(&graph, options.variant);
    single.AddNode(best_single);
    out.solution.items = {best_single};
    out.solution.cover_after_prefix = {single.cover()};
    out.solution.cover = single.cover();
    out.solution.item_contributions = single.TakeItemContributions();
    out.total_cost = spec.CostOf(best_single);
    out.greedy_won = false;
    if (spec.HasQuotas()) {
      out.category_counts.assign(spec.quotas.size(), 0);
      ++out.category_counts[spec.categories[best_single]];
    }
  } else {
    out.solution.items = std::move(run.items);
    out.solution.cover_after_prefix = std::move(run.prefix_covers);
    out.solution.cover = run.state.cover();
    out.solution.item_contributions = run.state.TakeItemContributions();
    out.total_cost = run.total_cost;
    out.category_counts = std::move(run.count);
  }
  out.solution.stats.iterations = run.iterations;
  out.solution.stats.gain_evaluations = run.gain_evaluations;
  out.solution.stats.heap_pops = run.heap_pops;
  out.solution.stats.stale_refreshes = run.stale_refreshes;
  out.solution.stats.seed_refills = run.seed_refills;
  out.solution.solve_seconds = timer.ElapsedSeconds();

  obs::MetricsRegistry& global = obs::MetricsRegistry::Global();
  global.GetCounter(solver_metric::kIterations)->Increment(run.iterations);
  global.GetCounter(solver_metric::kGainEvaluations)
      ->Increment(run.gain_evaluations);
  global.GetCounter(solver_metric::kHeapPops)->Increment(run.heap_pops);
  global.GetCounter(solver_metric::kStaleRefreshes)
      ->Increment(run.stale_refreshes);
  global.GetCounter(solver_metric::kSeedRefills)
      ->Increment(run.seed_refills);
  return out;
}

Result<std::vector<ParetoPoint>> SolveParetoFrontier(
    const PreferenceGraph& graph, const ParetoSweepOptions& options) {
  ConstraintSpec base;
  base.costs = options.costs;
  PREFCOVER_RETURN_NOT_OK(ValidateConstraintSpec(graph, base));
  std::vector<double> budgets = options.budgets;
  for (double b : budgets) {
    if (!std::isfinite(b) || b < 0.0) {
      return Status::InvalidArgument(
          "pareto budgets must be finite and non-negative");
    }
  }
  const size_t n = graph.NumNodes();
  if (budgets.empty()) {
    if (options.num_points == 0) {
      return Status::InvalidArgument("num_points must be >= 1");
    }
    if (n == 0) return std::vector<ParetoPoint>{};
    // Linear schedule from the cheapest single item to the full catalog.
    double min_cost = base.CostOf(0);
    double total = 0.0;
    for (NodeId v = 0; v < n; ++v) {
      min_cost = std::min(min_cost, base.CostOf(v));
      total += base.CostOf(v);
    }
    const size_t p = options.num_points;
    budgets.reserve(p);
    for (size_t i = 0; i < p; ++i) {
      budgets.push_back(p == 1 ? total
                               : min_cost + (total - min_cost) *
                                                static_cast<double>(i) /
                                                static_cast<double>(p - 1));
    }
  }

  ConstrainedCoverOptions solve_options;
  solve_options.variant = options.variant;
  solve_options.max_items = options.max_items;
  std::vector<ParetoPoint> points;
  points.reserve(budgets.size());
  for (double budget : budgets) {
    ConstraintSpec spec = base;
    spec.budget = budget;
    PREFCOVER_ASSIGN_OR_RETURN(ConstrainedSolution solved,
                               SolveConstrainedCover(graph, spec,
                                                     solve_options));
    ParetoPoint point;
    point.budget = budget;
    point.total_cost = solved.total_cost;
    point.cover = solved.solution.cover;
    point.items = std::move(solved.solution.items);
    points.push_back(std::move(point));
  }

  // Non-dominated filter: ascending cost, strictly increasing cover.
  // Ties on cost keep the highest cover (then the smallest budget, so
  // the output is deterministic in the schedule order too).
  std::stable_sort(points.begin(), points.end(),
                   [](const ParetoPoint& a, const ParetoPoint& b) {
                     if (a.total_cost != b.total_cost) {
                       return a.total_cost < b.total_cost;
                     }
                     if (a.cover != b.cover) return a.cover > b.cover;
                     return a.budget < b.budget;
                   });
  std::vector<ParetoPoint> frontier;
  double best_cover = kNegInf;
  for (ParetoPoint& point : points) {
    if (point.cover > best_cover) {
      best_cover = point.cover;
      frontier.push_back(std::move(point));
    }
  }
  return frontier;
}

}  // namespace prefcover
