// Tests for force_include / force_exclude constraints on the greedy
// solver family.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

constexpr NodeId kA = 0, kB = 1, kD = 3, kE = 4;

TEST(ConstraintsTest, ForceIncludeSelectedFirst) {
  PreferenceGraph g = MakePaperExampleGraph();
  GreedyOptions options;
  options.force_include = {kE};
  auto sol = SolveGreedy(g, 2, options);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  ASSERT_EQ(sol->items.size(), 2u);
  EXPECT_EQ(sol->items[0], kE);
  // With E forced (covering E fully), the best second pick is B.
  EXPECT_EQ(sol->items[1], kB);
  EXPECT_TRUE(sol->Validate(g).ok());
}

TEST(ConstraintsTest, ForceExcludeNeverSelected) {
  PreferenceGraph g = MakePaperExampleGraph();
  GreedyOptions options;
  options.force_exclude = {kB};  // the unconstrained first pick
  auto sol = SolveGreedy(g, 2, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(std::count(sol->items.begin(), sol->items.end(), kB), 0);
  // Unconstrained greedy reaches 0.873; the constrained one cannot.
  EXPECT_LT(sol->cover, 0.873);
  EXPECT_TRUE(sol->Validate(g).ok());
}

TEST(ConstraintsTest, ExcludedItemStillCoverable) {
  // C is excluded from selection but B covers it completely.
  PreferenceGraph g = MakePaperExampleGraph();
  GreedyOptions options;
  options.force_exclude = {2};  // C
  auto sol = SolveGreedy(g, 2, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->items, (std::vector<NodeId>{kB, kD}));  // unchanged
  EXPECT_NEAR(sol->cover, 0.873, 1e-9);
  EXPECT_DOUBLE_EQ(sol->ItemCoverage(g, 2), 1.0);
}

// Runs one options instance through all three greedy entry points and
// asserts they reject (or accept) it identically — same status code, same
// message — so no solver can drift into private validation behavior.
void ExpectUniformValidation(const PreferenceGraph& g, size_t k,
                             const GreedyOptions& options,
                             bool expect_invalid) {
  ThreadPool pool(2);
  auto plain = SolveGreedy(g, k, options);
  auto lazy = SolveGreedyLazy(g, k, options);
  auto parallel = SolveGreedyParallel(g, k, &pool, options);
  EXPECT_EQ(plain.status().IsInvalidArgument(), expect_invalid);
  EXPECT_EQ(lazy.status().ToString(), plain.status().ToString());
  EXPECT_EQ(parallel.status().ToString(), plain.status().ToString());
  // The standalone validator agrees with what the solvers enforced.
  EXPECT_EQ(ValidateGreedyOptions(g, k, options).IsInvalidArgument(),
            expect_invalid);
}

TEST(ConstraintsTest, ValidationErrorsUniformAcrossAllExecutions) {
  PreferenceGraph g = MakePaperExampleGraph();
  {
    GreedyOptions options;
    options.force_include = {99};
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    GreedyOptions options;
    options.force_exclude = {99};
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    GreedyOptions options;
    options.force_include = {kA, kB, kD};  // more than k = 2
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    GreedyOptions options;
    options.force_include = {kA};
    options.force_exclude = {kA};
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    GreedyOptions options;
    options.force_include = {kA, kA};  // duplicate
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    GreedyOptions options;
    options.force_exclude = {kB, kB};  // duplicate
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    GreedyOptions options;
    options.stop_at_cover = std::nan("");
    ExpectUniformValidation(g, 2, options, true);
  }
  {
    // A fully-loaded valid instance is accepted by all three.
    GreedyOptions options;
    options.force_include = {kE};
    options.force_exclude = {kA};
    options.stop_at_cover = 0.9;
    ExpectUniformValidation(g, 2, options, false);
  }
}

TEST(ConstraintsTest, AllExecutionsAgreeUnderConstraints) {
  Rng rng(31);
  UniformGraphParams params;
  params.num_nodes = 120;
  params.out_degree = 5;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok());
  GreedyOptions options;
  options.force_include = {7, 33};
  options.force_exclude = {0, 1, 2, 50, 90};
  const size_t k = 20;
  auto plain = SolveGreedy(*g, k, options);
  auto lazy = SolveGreedyLazy(*g, k, options);
  ThreadPool pool(3);
  auto parallel = SolveGreedyParallel(*g, k, &pool, options);
  ASSERT_TRUE(plain.ok() && lazy.ok() && parallel.ok());
  EXPECT_EQ(plain->items, lazy->items);
  EXPECT_EQ(plain->items, parallel->items);
  EXPECT_EQ(plain->items[0], 7u);
  EXPECT_EQ(plain->items[1], 33u);
  for (NodeId banned : options.force_exclude) {
    EXPECT_EQ(std::count(plain->items.begin(), plain->items.end(), banned),
              0);
  }
}

TEST(ConstraintsTest, ForcedItemsCountTowardBudget) {
  PreferenceGraph g = MakePaperExampleGraph();
  GreedyOptions options;
  options.force_include = {kA, kD};
  auto sol = SolveGreedy(g, 2, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->items, (std::vector<NodeId>{kA, kD}));  // budget spent
}

TEST(ConstraintsTest, ConstrainedNeverBeatsUnconstrained) {
  Rng rng(32);
  UniformGraphParams params;
  params.num_nodes = 80;
  auto g = GenerateUniformGraph(params, &rng);
  ASSERT_TRUE(g.ok());
  auto free = SolveGreedy(*g, 15);
  ASSERT_TRUE(free.ok());
  for (int trial = 0; trial < 5; ++trial) {
    GreedyOptions options;
    // Exclude a few of the unconstrained picks.
    options.force_exclude = {free->items[0], free->items[3]};
    options.force_include = {
        static_cast<NodeId>(rng.NextBounded(80))};
    if (std::count(options.force_exclude.begin(),
                   options.force_exclude.end(),
                   options.force_include[0]) > 0) {
      continue;
    }
    auto constrained = SolveGreedy(*g, 15, options);
    ASSERT_TRUE(constrained.ok());
    // Greedy is not optimal, so tiny inversions are conceivable, but the
    // forced-away-from-optimum runs should not beat the free run by any
    // meaningful margin.
    EXPECT_LE(constrained->cover, free->cover + 0.01) << "trial " << trial;
  }
}

TEST(ConstraintsTest, StopAtCoverCountsForcedItems) {
  PreferenceGraph g = MakePaperExampleGraph();
  GreedyOptions options;
  options.variant = Variant::kNormalized;
  options.force_include = {kB};  // covers 0.66 on its own
  options.stop_at_cover = 0.5;
  auto sol = SolveGreedy(g, 3, options);
  ASSERT_TRUE(sol.ok());
  // The forced pick already clears the threshold; nothing else is added.
  EXPECT_EQ(sol->items, std::vector<NodeId>{kB});
}

}  // namespace
}  // namespace prefcover
