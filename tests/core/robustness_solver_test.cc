// Robustness properties of the greedy family: cooperative cancellation
// (explicit and deadline) always yields a valid nonempty greedy prefix,
// and checkpoint/resume re-joins the deterministic selection order so a
// resumed solve is identical to an uninterrupted one — for every
// execution and both variants.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "obs/metrics.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

enum class Execution { kPlain, kParallel, kLazy };

const Execution kAllExecutions[] = {Execution::kPlain, Execution::kParallel,
                                    Execution::kLazy};
const Variant kBothVariants[] = {Variant::kIndependent,
                                 Variant::kNormalized};

const char* ExecutionName(Execution execution) {
  switch (execution) {
    case Execution::kPlain:
      return "plain";
    case Execution::kParallel:
      return "parallel";
    case Execution::kLazy:
      return "lazy";
  }
  return "?";
}

Result<Solution> RunExecution(Execution execution, const PreferenceGraph& graph,
                     size_t k, const GreedyOptions& options) {
  ThreadPool pool(4);
  switch (execution) {
    case Execution::kPlain:
      return SolveGreedy(graph, k, options);
    case Execution::kParallel:
      return SolveGreedyParallel(graph, k, &pool, options);
    case Execution::kLazy:
      return SolveGreedyLazy(graph, k, options);
  }
  return Status::Internal("unreachable");
}

PreferenceGraph MakeGraph(uint32_t n, bool normalized, uint64_t seed = 11) {
  Rng rng(seed);
  UniformGraphParams params;
  params.num_nodes = n;
  params.out_degree = 5;
  params.normalized_out_weights = normalized;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

uint64_t CancelledCount() {
  return obs::MetricsRegistry::Global()
      .GetCounter(solver_metric::kCancelled)
      ->Value();
}

TEST(CancellableSolveTest, UntruncatedRunHasCleanStats) {
  PreferenceGraph graph = MakeGraph(80, false);
  CancelToken token;
  token.SetTimeout(3600.0);  // armed, never fires
  GreedyOptions options;
  options.cancel = &token;
  const uint64_t cancelled_before = CancelledCount();
  auto solution = SolveGreedyLazy(graph, 10, options);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->items.size(), 10u);
  EXPECT_FALSE(solution->stats.truncated);
  EXPECT_EQ(CancelledCount(), cancelled_before);
}

TEST(CancellableSolveTest,
     PreCancelledSolveReturnsExactlyTheFirstSelection) {
  // Even a token that is already tripped when the solve starts yields one
  // valid selection — never an error, never an empty solution. The one
  // item must be the same one an uninterrupted run selects first.
  for (Variant variant : kBothVariants) {
    PreferenceGraph graph =
        MakeGraph(80, variant == Variant::kNormalized);
    GreedyOptions reference_options;
    reference_options.variant = variant;
    auto reference = SolveGreedy(graph, 10, reference_options);
    ASSERT_TRUE(reference.ok());

    for (Execution execution : kAllExecutions) {
      SCOPED_TRACE(std::string(ExecutionName(execution)) + "/" +
                   std::string(VariantName(variant)));
      CancelToken token;
      token.Cancel();
      GreedyOptions options;
      options.variant = variant;
      options.cancel = &token;
      const uint64_t cancelled_before = CancelledCount();
      auto solution = RunExecution(execution, graph, 10, options);
      ASSERT_TRUE(solution.ok()) << solution.status().ToString();
      ASSERT_EQ(solution->items.size(), 1u);
      EXPECT_EQ(solution->items[0], reference->items[0]);
      EXPECT_TRUE(solution->stats.truncated);
      EXPECT_EQ(CancelledCount(), cancelled_before + 1);
    }
  }
}

TEST(CancellableSolveTest, ExpiredDeadlineTruncatesToAGreedyPrefix) {
  // A deadline in the past behaves exactly like a pre-tripped token.
  PreferenceGraph graph = MakeGraph(80, false);
  auto reference = SolveGreedy(graph, 10);
  ASSERT_TRUE(reference.ok());
  CancelToken token;
  token.SetTimeout(-1.0);
  GreedyOptions options;
  options.cancel = &token;
  auto solution = SolveGreedy(graph, 10, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->items.size(), 1u);
  EXPECT_EQ(solution->items[0], reference->items[0]);
  EXPECT_TRUE(solution->stats.truncated);
}

TEST(CancellableSolveTest, TightDeadlineMidSolveYieldsValidPrefix) {
  // A 1ms budget on a problem that takes much longer: the solve must come
  // back promptly with some nonempty prefix of the deterministic
  // selection order, not an error and not a hang.
  PreferenceGraph graph = MakeGraph(20'000, false);
  const size_t k = 2'000;
  auto reference = SolveGreedyLazy(graph, k);
  ASSERT_TRUE(reference.ok());

  CancelToken token;
  token.SetTimeout(0.001);
  GreedyOptions options;
  options.cancel = &token;
  auto solution = SolveGreedy(graph, k, options);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(solution->stats.truncated);
  ASSERT_GE(solution->items.size(), 1u);
  ASSERT_LT(solution->items.size(), k);
  for (size_t i = 0; i < solution->items.size(); ++i) {
    EXPECT_EQ(solution->items[i], reference->items[i]) << "position " << i;
  }
}

TEST(CheckpointResumeTest, ResumePrefixRejoinsDeterministicOrder) {
  // Cutting the reference solve at any point and resuming from that
  // prefix must reproduce the identical final solution, in every
  // execution and both variants — the property that makes kill-resume
  // byte-identical.
  const size_t k = 12;
  for (Variant variant : kBothVariants) {
    PreferenceGraph graph =
        MakeGraph(60, variant == Variant::kNormalized);
    GreedyOptions reference_options;
    reference_options.variant = variant;
    auto reference = SolveGreedy(graph, k, reference_options);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(reference->items.size(), k);

    for (Execution execution : kAllExecutions) {
      for (size_t cut : {size_t{1}, size_t{5}, k - 1, k}) {
        SCOPED_TRACE(std::string(ExecutionName(execution)) + "/" +
                     std::string(VariantName(variant)) + "/cut=" +
                     std::to_string(cut));
        GreedyOptions options;
        options.variant = variant;
        options.checkpoint.resume_prefix = std::vector<NodeId>(
            reference->items.begin(),
            reference->items.begin() + static_cast<long>(cut));
        auto resumed = RunExecution(execution, graph, k, options);
        ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
        EXPECT_EQ(resumed->items, reference->items);
        EXPECT_DOUBLE_EQ(resumed->cover, reference->cover);
        EXPECT_FALSE(resumed->stats.truncated);
      }
    }
  }
}

TEST(CheckpointResumeTest, PeriodicCheckpointFeedsAFaithfulResume) {
  // End-to-end through the real file: solve with checkpointing on, read
  // the last checkpoint back, validate it, resume from it, and land on
  // the identical solution.
  PreferenceGraph graph = MakeGraph(60, false);
  const size_t k = 12;
  std::string path =
      ::testing::TempDir() + "/robustness_solver_test_periodic.ckpt";
  std::remove(path.c_str());

  GreedyOptions options;
  options.checkpoint.path = path;
  options.checkpoint.every_rounds = 5;
  auto first = SolveGreedyLazy(graph, k, options);
  ASSERT_TRUE(first.ok());

  auto ckpt = ReadCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  // every_rounds=5 with k=12: the last periodic write was at round 10.
  EXPECT_EQ(ckpt->prefix.size(), 10u);
  EXPECT_EQ(ckpt->k, k);

  GreedyOptions resume_options;
  auto prefix =
      ValidateCheckpointForResume(*ckpt, graph, k, resume_options);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  resume_options.checkpoint.resume_prefix = *prefix;
  auto resumed = SolveGreedy(graph, k, resume_options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->items, first->items);
}

TEST(CheckpointResumeTest, TruncatedSolveCheckpointsItsFinalPrefix) {
  // A cancelled solve force-writes its prefix so a later --resume loses
  // nothing, even between periodic writes.
  PreferenceGraph graph = MakeGraph(60, false);
  const size_t k = 12;
  std::string path =
      ::testing::TempDir() + "/robustness_solver_test_truncated.ckpt";
  std::remove(path.c_str());

  CancelToken token;
  token.Cancel();
  GreedyOptions options;
  options.cancel = &token;
  options.checkpoint.path = path;
  options.checkpoint.every_rounds = 100;  // periodic writes never fire
  auto solution = SolveGreedyLazy(graph, k, options);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->items.size(), 1u);

  auto ckpt = ReadCheckpoint(path);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  EXPECT_EQ(ckpt->prefix, solution->items);
}

TEST(CheckpointResumeTest, InvalidResumePrefixesRejected) {
  PreferenceGraph graph = MakeGraph(60, false);
  const size_t k = 5;

  GreedyOptions out_of_range;
  out_of_range.checkpoint.resume_prefix = {
      static_cast<NodeId>(graph.NumNodes())};
  EXPECT_TRUE(
      SolveGreedy(graph, k, out_of_range).status().IsInvalidArgument());

  GreedyOptions duplicated;
  duplicated.checkpoint.resume_prefix = {3, 3};
  EXPECT_TRUE(
      SolveGreedy(graph, k, duplicated).status().IsInvalidArgument());

  GreedyOptions over_budget;
  over_budget.checkpoint.resume_prefix = {0, 1, 2, 3, 4, 5};
  EXPECT_TRUE(
      SolveGreedy(graph, k, over_budget).status().IsInvalidArgument());

  GreedyOptions excluded;
  excluded.force_exclude = {3};
  excluded.checkpoint.resume_prefix = {3};
  EXPECT_TRUE(
      SolveGreedy(graph, k, excluded).status().IsInvalidArgument());
}

TEST(CheckpointResumeTest, ResumeAcrossExecutionsIsLegal) {
  // The options hash excludes execution knobs, so a checkpoint written by
  // one execution resumes under another (that is the operational point:
  // restart on a machine with a different core count).
  PreferenceGraph graph = MakeGraph(60, false);
  const size_t k = 12;
  std::string path =
      ::testing::TempDir() + "/robustness_solver_test_cross.ckpt";
  std::remove(path.c_str());

  GreedyOptions options;
  options.checkpoint.path = path;
  options.checkpoint.every_rounds = 4;
  ThreadPool pool(4);
  auto first = SolveGreedyParallel(graph, k, &pool, options);
  ASSERT_TRUE(first.ok());

  auto ckpt = ReadCheckpoint(path);
  ASSERT_TRUE(ckpt.ok());
  GreedyOptions resume_options;
  resume_options.seed_heap_capacity = 7;  // execution knobs may change
  auto prefix =
      ValidateCheckpointForResume(*ckpt, graph, k, resume_options);
  ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
  resume_options.checkpoint.resume_prefix = *prefix;
  auto resumed = SolveGreedyLazy(graph, k, resume_options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed->items, first->items);
}

}  // namespace
}  // namespace prefcover
