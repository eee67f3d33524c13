#include "eval/runner.h"

#include "core/baseline_solvers.h"
#include "core/brute_force_solver.h"
#include "core/greedy_solver.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace prefcover {

std::string AlgorithmDisplayName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kGreedy:
      return "Greedy";
    case Algorithm::kGreedyLazy:
      return "Greedy(lazy)";
    case Algorithm::kGreedyParallel:
      return "Greedy(parallel)";
    case Algorithm::kConstrainedGreedy:
      return "Constrained";
    case Algorithm::kBruteForce:
      return "BF";
    case Algorithm::kTopKWeight:
      return "TopK-W";
    case Algorithm::kTopKCoverage:
      return "TopK-C";
    case Algorithm::kRandom:
      return "Random";
  }
  return "?";
}

Result<Solution> RunAlgorithm(Algorithm algorithm,
                              const PreferenceGraph& graph, size_t k,
                              Variant variant, Rng* rng,
                              size_t num_threads) {
  GreedyOptions greedy_options;
  greedy_options.variant = variant;
  return RunAlgorithm(algorithm, graph, k, greedy_options, rng,
                      num_threads);
}

Result<Solution> RunAlgorithm(Algorithm algorithm,
                              const PreferenceGraph& graph, size_t k,
                              const GreedyOptions& options, Rng* rng,
                              size_t num_threads) {
  return RunAlgorithm(algorithm, graph, k, options, ConstraintSpec(), rng,
                      num_threads);
}

namespace {

// True when the spec constrains anything — a default spec routes
// kConstrainedGreedy through the same solver but any other algorithm can
// honor it too (by ignoring it), so only a non-default one is an error
// for them.
bool IsConstraining(const ConstraintSpec& spec) {
  return !spec.costs.empty() || spec.HasBudget() || spec.HasQuotas();
}

}  // namespace

Result<Solution> RunAlgorithm(Algorithm algorithm,
                              const PreferenceGraph& graph, size_t k,
                              const GreedyOptions& options,
                              const ConstraintSpec& spec, Rng* rng,
                              size_t num_threads) {
  const Variant variant = options.variant;
  obs::Span phase_span("eval.run_algorithm", "eval");
  phase_span.Arg("algorithm", AlgorithmDisplayName(algorithm).c_str());
  phase_span.Arg("k", static_cast<uint64_t>(k));
  phase_span.Arg("n", static_cast<uint64_t>(graph.NumNodes()));
  if (algorithm == Algorithm::kConstrainedGreedy) {
    if (!options.force_include.empty() || !options.force_exclude.empty() ||
        options.stop_at_cover <= 1.0 ||
        !options.checkpoint.resume_prefix.empty()) {
      return Status::InvalidArgument(
          "the constrained solver does not support force lists, "
          "stop_at_cover or resume");
    }
    // k == 0 means an empty solution here (matching the greedy family),
    // not the constrained solver's "no cardinality bound".
    if (k == 0) {
      PREFCOVER_RETURN_NOT_OK(ValidateConstraintSpec(graph, spec));
      Solution empty;
      empty.variant = variant;
      empty.algorithm = "constrained-greedy";
      empty.item_contributions.assign(graph.NumNodes(), 0.0);
      return empty;
    }
    ConstrainedCoverOptions constrained_options;
    constrained_options.variant = variant;
    constrained_options.max_items = k;
    PREFCOVER_ASSIGN_OR_RETURN(
        ConstrainedSolution solved,
        SolveConstrainedCover(graph, spec, constrained_options));
    return std::move(solved.solution);
  }
  if (IsConstraining(spec)) {
    return Status::InvalidArgument(
        "algorithm " + AlgorithmDisplayName(algorithm) +
        " cannot honor a constraint spec; use the constrained solver");
  }
  switch (algorithm) {
    case Algorithm::kGreedy:
      return SolveGreedy(graph, k, options);
    case Algorithm::kGreedyLazy:
      return SolveGreedyLazy(graph, k, options);
    case Algorithm::kGreedyParallel: {
      ThreadPool pool(num_threads);
      return SolveGreedyParallel(graph, k, &pool, options);
    }
    case Algorithm::kConstrainedGreedy:
      return Status::Internal("unreachable");  // dispatched above
    case Algorithm::kBruteForce: {
      BruteForceOptions bf_options;
      bf_options.variant = variant;
      return SolveBruteForce(graph, k, bf_options);
    }
    case Algorithm::kTopKWeight:
      return SolveTopKWeight(graph, k, variant);
    case Algorithm::kTopKCoverage:
      return SolveTopKCoverage(graph, k, variant);
    case Algorithm::kRandom:
      return SolveRandomBestOf(graph, k, variant, rng, /*trials=*/10);
  }
  return Status::Internal("unreachable");
}

Result<std::vector<SuiteEntry>> RunSuite(
    const std::vector<Algorithm>& algorithms, const PreferenceGraph& graph,
    size_t k, Variant variant, Rng* rng, size_t num_threads,
    const CancelToken* cancel) {
  obs::Span suite_span("eval.suite", "eval");
  suite_span.Arg("algorithms", static_cast<uint64_t>(algorithms.size()));
  suite_span.Arg("k", static_cast<uint64_t>(k));
  GreedyOptions greedy_options;
  greedy_options.variant = variant;
  greedy_options.cancel = cancel;
  std::vector<SuiteEntry> entries;
  entries.reserve(algorithms.size());
  for (Algorithm algorithm : algorithms) {
    // Between-algorithm boundary: a tripped token ends the suite with the
    // prefix of entries already finished (never mid-entry).
    if (cancel != nullptr && cancel->IsCancelled() && !entries.empty()) {
      break;
    }
    PREFCOVER_ASSIGN_OR_RETURN(
        Solution solution,
        RunAlgorithm(algorithm, graph, k, greedy_options, rng,
                     num_threads));
    entries.push_back({algorithm, std::move(solution)});
  }
  return entries;
}

}  // namespace prefcover
