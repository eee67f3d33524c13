// Differential test harness for the three executions of Algorithm 1.
//
// The contract under test: SolveGreedy, SolveGreedyParallel and
// SolveGreedyLazy select byte-identical retained sequences and covers on
// every instance — for any thread count, with and without force_include /
// force_exclude / stop_at_cover. ~50 seeded random graphs (Zipf node
// weights, both variants, varying k/n) are swept against thread counts
// {1, 2, 8}.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy_solver.h"
#include "graph/graph_generators.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace prefcover {
namespace {

constexpr size_t kNumSeeds = 50;
constexpr size_t kThreadCounts[] = {1, 2, 8};

struct DiffInstance {
  PreferenceGraph graph;
  size_t k = 0;
  GreedyOptions options;
  std::string label;
};

// Derives a deterministic instance from the seed: graph shape, variant,
// budget and constraint mix all vary with it.
DiffInstance MakeInstance(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  UniformGraphParams params;
  params.num_nodes = static_cast<uint32_t>(40 + (seed * 13) % 160);
  params.out_degree = static_cast<uint32_t>(3 + seed % 6);
  params.popularity_skew = 0.4 + 0.4 * static_cast<double>(seed % 4);
  Variant variant = seed % 2 == 0 ? Variant::kIndependent
                                  : Variant::kNormalized;
  params.normalized_out_weights = variant == Variant::kNormalized;
  auto g = GenerateUniformGraph(params, &rng);
  EXPECT_TRUE(g.ok()) << g.status().ToString();

  DiffInstance instance{std::move(g).value(), 0, {}, {}};
  const size_t n = instance.graph.NumNodes();
  instance.k = std::max<size_t>(1, n * (5 + (seed * 7) % 40) / 100);
  instance.options.variant = variant;
  instance.label = "seed=" + std::to_string(seed) +
                   " n=" + std::to_string(n) +
                   " k=" + std::to_string(instance.k);

  // Every third instance carries constraints; every third of those also
  // stops early at a coverage threshold.
  if (seed % 3 != 0) {
    const size_t forced = std::min<size_t>(instance.k / 2, 1 + seed % 4);
    const size_t banned = 2 + seed % 5;
    std::vector<uint32_t> draw = rng.SampleWithoutReplacement(
        static_cast<uint32_t>(n), static_cast<uint32_t>(forced + banned));
    instance.options.force_include.assign(draw.begin(),
                                          draw.begin() +
                                              static_cast<ptrdiff_t>(forced));
    instance.options.force_exclude.assign(
        draw.begin() + static_cast<ptrdiff_t>(forced), draw.end());
    instance.label += " constrained";
  }
  if (seed % 3 == 2) {
    instance.options.stop_at_cover = 0.3 + 0.1 * static_cast<double>(seed % 5);
    instance.label += " stop_at_cover";
  }
  return instance;
}

void ExpectIdentical(const Solution& reference, const Solution& other,
                     const std::string& label) {
  // Byte-identical sequences: same items in the same order, and the same
  // incremental covers bit for bit (all executions apply the identical
  // AddNode sequence, so no float tolerance is needed or granted).
  EXPECT_EQ(reference.items, other.items)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.cover_after_prefix, other.cover_after_prefix)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.cover, other.cover)
      << label << " [" << other.algorithm << "]";
  EXPECT_EQ(reference.item_contributions, other.item_contributions)
      << label << " [" << other.algorithm << "]";
}

TEST(GreedyDifferentialTest, AllExecutionsAgreeOnSeededRandomGraphs) {
  ThreadPool pool1(1), pool2(2), pool8(8);
  ThreadPool* pools[] = {&pool1, &pool2, &pool8};

  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    DiffInstance instance = MakeInstance(seed);
    const std::string& label = instance.label;

    auto plain = SolveGreedy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(plain.ok()) << label << ": " << plain.status().ToString();
    ASSERT_TRUE(plain->Validate(instance.graph).ok()) << label;

    auto lazy = SolveGreedyLazy(instance.graph, instance.k,
                                instance.options);
    ASSERT_TRUE(lazy.ok()) << label;
    ExpectIdentical(*plain, *lazy, label);

    for (size_t t = 0; t < 3; ++t) {
      ThreadPool* pool = pools[t];
      auto parallel = SolveGreedyParallel(instance.graph, instance.k, pool,
                                          instance.options);
      ASSERT_TRUE(parallel.ok())
          << label << " threads=" << kThreadCounts[t];
      ExpectIdentical(*plain, *parallel,
                      label + " threads=" +
                          std::to_string(kThreadCounts[t]));
    }

    // Constraint semantics hold on every instance that carries them.
    for (size_t i = 0; i < instance.options.force_include.size(); ++i) {
      ASSERT_LT(i, plain->items.size()) << label;
      EXPECT_EQ(plain->items[i], instance.options.force_include[i]) << label;
    }
    for (NodeId banned : instance.options.force_exclude) {
      EXPECT_EQ(std::count(plain->items.begin(), plain->items.end(), banned),
                0)
          << label;
    }
  }
}

TEST(GreedyDifferentialTest, ThresholdSeedCapacitySweepMatchesPlain) {
  // The CELF heap seed keeps only the top-seed_heap_capacity candidates
  // and pulls the rest back in through exact threshold refills. Tiny
  // capacities force refills constantly (capacity 1 refills on every
  // heap drain); the selected sequence must stay byte-identical to plain
  // greedy for every value.
  const size_t kCapacities[] = {1, 2, 7, 64};
  for (uint64_t seed = 0; seed < kNumSeeds; seed += 5) {
    DiffInstance instance = MakeInstance(seed);
    auto plain = SolveGreedy(instance.graph, instance.k, instance.options);
    ASSERT_TRUE(plain.ok()) << instance.label;

    for (size_t cap : kCapacities) {
      GreedyOptions options = instance.options;
      options.seed_heap_capacity = cap;
      const std::string label =
          instance.label + " seed_cap=" + std::to_string(cap);

      auto lazy = SolveGreedyLazy(instance.graph, instance.k, options);
      ASSERT_TRUE(lazy.ok()) << label;
      ExpectIdentical(*plain, *lazy, label);

      // Capacity 1 drains the kept pool on every selection, so any run
      // with at least two searched rounds must have refilled — proving
      // the sweep actually exercises the refill path.
      if (cap == 1 && lazy->stats.iterations >= 2) {
        EXPECT_GT(lazy->stats.seed_refills, 0u) << label;
      }
      // Full-capacity seeds never truncate, so they never refill.
      if (cap >= instance.graph.NumNodes()) {
        EXPECT_EQ(lazy->stats.seed_refills, 0u) << label;
      }
    }
  }
}

TEST(GreedyDifferentialTest, DefaultSeedCapacityCoversSmallInstances) {
  // Small instances (n <= 1024) fit entirely inside the default seed, so
  // the threshold machinery must stay dormant: no refills at all.
  DiffInstance instance = MakeInstance(6);  // unconstrained
  auto lazy = SolveGreedyLazy(instance.graph, instance.k, instance.options);
  ASSERT_TRUE(lazy.ok());
  EXPECT_EQ(lazy->stats.seed_refills, 0u);
}

TEST(GreedyDifferentialTest, SolverStatsArePopulatedAndConsistent) {
  DiffInstance instance = MakeInstance(4);  // a constrained instance
  ThreadPool pool(2);
  const GreedyOptions& options = instance.options;

  auto plain = SolveGreedy(instance.graph, instance.k, options);
  auto parallel =
      SolveGreedyParallel(instance.graph, instance.k, &pool, options);
  auto lazy = SolveGreedyLazy(instance.graph, instance.k, options);
  ASSERT_TRUE(plain.ok() && parallel.ok() && lazy.ok());

  const uint64_t forced = options.force_include.size();
  for (const Solution* sol : {&*plain, &*parallel, &*lazy}) {
    EXPECT_EQ(sol->stats.iterations, sol->items.size() - forced)
        << sol->algorithm;
    EXPECT_GT(sol->stats.gain_evaluations, 0u) << sol->algorithm;
    EXPECT_GE(sol->stats.total_iteration_seconds, 0.0) << sol->algorithm;
    EXPECT_GE(sol->stats.total_iteration_seconds,
              sol->stats.max_iteration_seconds)
        << sol->algorithm;
  }

  // Plain and parallel evaluate the same candidate set each round.
  EXPECT_EQ(parallel->stats.gain_evaluations, plain->stats.gain_evaluations);

  // Only the pooled sweep dispatches: one n-item dispatch per round, with
  // busy time measured on the pool.
  const uint64_t n = instance.graph.NumNodes();
  EXPECT_EQ(plain->stats.threads, 1u);
  EXPECT_EQ(plain->stats.parallel_batches, 0u);
  EXPECT_DOUBLE_EQ(plain->stats.PoolUtilization(), 0.0);
  EXPECT_EQ(parallel->stats.threads, 2u);
  EXPECT_EQ(parallel->stats.parallel_batches, parallel->stats.iterations);
  EXPECT_EQ(parallel->stats.parallel_items,
            parallel->stats.parallel_batches * n);
  EXPECT_GT(parallel->stats.pool_busy_seconds, 0.0);
  EXPECT_GT(parallel->stats.pool_wall_seconds, 0.0);
  EXPECT_GT(parallel->stats.PoolUtilization(), 0.0);
  EXPECT_LE(parallel->stats.PoolUtilization(), 1.0);

  // The lazy execution prunes: never more evaluations than the full scan,
  // and its heap telemetry is filled in.
  EXPECT_LE(lazy->stats.gain_evaluations, plain->stats.gain_evaluations);
  EXPECT_GT(lazy->stats.heap_pops, 0u);
  EXPECT_GE(lazy->stats.StaleRatio(), 0.0);
  EXPECT_LE(lazy->stats.StaleRatio(), 1.0);

  EXPECT_EQ(plain->algorithm, "greedy");
  EXPECT_EQ(parallel->algorithm, "greedy-parallel");
  EXPECT_EQ(lazy->algorithm, "greedy-lazy");
}

}  // namespace
}  // namespace prefcover
