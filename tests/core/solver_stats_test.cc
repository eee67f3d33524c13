#include "core/solver_stats.h"

#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace prefcover {
namespace {

TEST(SolverStatsTest, EmptyRunReportsZerosEverywhere) {
  SolverStats stats;
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_DOUBLE_EQ(stats.StaleRatio(), 0.0);
  EXPECT_DOUBLE_EQ(stats.AvgIterationSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 0.0);
  // ToString must not divide by zero either.
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(SolverStatsTest, SerialRunHasNoPoolOrHeapActivity) {
  SolverStats stats;
  stats.iterations = 10;
  stats.gain_evaluations = 1000;
  stats.total_iteration_seconds = 0.5;
  stats.threads = 1;
  // Serial plain greedy: no heap, no parallel dispatch.
  EXPECT_DOUBLE_EQ(stats.StaleRatio(), 0.0);
  EXPECT_DOUBLE_EQ(stats.AvgIterationSeconds(), 0.05);
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 0.0);
}

TEST(SolverStatsTest, StaleRatioIsFractionOfPops) {
  SolverStats stats;
  stats.heap_pops = 200;
  stats.stale_refreshes = 50;
  EXPECT_DOUBLE_EQ(stats.StaleRatio(), 0.25);
}

TEST(SolverStatsTest, ZeroThreadsDoesNotDivideByZero) {
  SolverStats stats;
  stats.pool_busy_seconds = 1.0;
  stats.pool_wall_seconds = 1.0;
  stats.threads = 0;
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 0.0);
}

TEST(SolverStatsTest, SaturatedPoolClampsUtilizationToOne) {
  SolverStats stats;
  stats.threads = 4;
  // Per-chunk and per-sweep clocks are read separately, so busy time can
  // overshoot wall x threads by a hair on a fully busy pool.
  stats.pool_wall_seconds = 1.0;
  stats.pool_busy_seconds = 4.02;
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 1.0);
}

TEST(SolverStatsTest, PartialUtilizationIsBusyShareOfPoolTime) {
  SolverStats stats;
  stats.threads = 8;
  stats.pool_wall_seconds = 2.0;
  stats.pool_busy_seconds = 4.0;  // half of 8 workers x 2 s
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 0.25);
  // Dispatch and item counts no longer enter the ratio.
  stats.parallel_batches = 10;
  stats.parallel_items = 1000;
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 0.25);
}

TEST(SolverStatsTest, LoadCountersReadsRunScopedRegistry) {
  obs::MetricsRegistry run;
  run.GetCounter(solver_metric::kIterations)->Increment(7);
  run.GetCounter(solver_metric::kGainEvaluations)->Increment(420);
  run.GetCounter(solver_metric::kHeapPops)->Increment(55);
  run.GetCounter(solver_metric::kStaleRefreshes)->Increment(11);
  run.GetCounter(solver_metric::kParallelBatches)->Increment(3);
  run.GetCounter(solver_metric::kParallelItems)->Increment(12);

  SolverStats stats;
  stats.threads = 4;
  stats.total_iteration_seconds = 1.4;
  stats.LoadCounters(run.Snapshot());

  EXPECT_EQ(stats.iterations, 7u);
  EXPECT_EQ(stats.gain_evaluations, 420u);
  EXPECT_EQ(stats.heap_pops, 55u);
  EXPECT_EQ(stats.stale_refreshes, 11u);
  EXPECT_EQ(stats.parallel_batches, 3u);
  EXPECT_EQ(stats.parallel_items, 12u);
  // Timing/threads/pool fields are untouched by LoadCounters.
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_DOUBLE_EQ(stats.total_iteration_seconds, 1.4);
  EXPECT_DOUBLE_EQ(stats.AvgIterationSeconds(), 0.2);
  EXPECT_DOUBLE_EQ(stats.StaleRatio(), 0.2);
  EXPECT_DOUBLE_EQ(stats.PoolUtilization(), 0.0);
}

TEST(SolverStatsTest, LoadCountersTreatsMissingNamesAsZero) {
  obs::MetricsRegistry run;
  run.GetCounter(solver_metric::kIterations)->Increment(2);
  SolverStats stats;
  stats.LoadCounters(run.Snapshot());
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(stats.gain_evaluations, 0u);
  EXPECT_EQ(stats.heap_pops, 0u);
  EXPECT_EQ(stats.parallel_batches, 0u);
}

}  // namespace
}  // namespace prefcover
