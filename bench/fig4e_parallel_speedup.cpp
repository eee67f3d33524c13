// Figure 4e: parallelizability of Greedy — wall time of the per-iteration
// candidate scan on a fixed PE-shaped graph as the worker count sweeps
// {1, 4, 8, 16, 32}. The paper reports ~20x at 32 cores on its server.
//
// NOTE: speedup is bounded by the machine's physical cores, and by the
// serial argmax scan that follows each parallel gain sweep; widths past
// the core count measure pool overhead. "pool util %" is the workers'
// busy time over (sweep wall time x workers).
//
// Runs on the BenchRunner harness: every width is a BenchCase, so --json
// emits the machine-readable BENCH_core.json record that bench_compare
// diffs across commits.
//
// Usage: fig4e_parallel_speedup [--csv] [--n=20000] [--k=500]
//                               [--reps=R] [--warmup=W] [--json=PATH]

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench/bench_runner.h"
#include "core/greedy_solver.h"
#include "eval/experiment.h"
#include "synth/dataset_profiles.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace prefcover;

int main(int argc, char** argv) {
  ExperimentEnv env("Figure 4e: parallel speedup of Greedy");
  env.flags.AddInt("n", 20000, "graph size");
  env.flags.AddInt("k", 500, "budget");
  AddBenchFlags(&env.flags, /*default_reps=*/2, /*default_warmup=*/0);
  Status st = env.Parse(argc, argv);
  if (st.IsOutOfRange()) return 0;
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  uint32_t n = static_cast<uint32_t>(env.flags.GetInt("n"));
  size_t k = static_cast<size_t>(env.flags.GetInt("k"));
  if (env.scale == 1.0) {
    n = 100'000;  // --full: a heavier fixed instance
    k = 2'000;
  }
  PrintExperimentHeader(
      env, "Figure 4e",
      "parallel greedy wall time vs worker count (n=" + FormatCount(n) +
          ", k=" + FormatCount(k) + "); this host has " +
          std::to_string(std::thread::hardware_concurrency()) +
          " hardware thread(s)");

  auto graph = GenerateProfileGraphWithNodes(DatasetProfile::kPE, n,
                                             env.seed);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }

  auto config =
      BenchConfigFromFlags(env.flags, "fig4e_parallel_speedup", env.seed);
  if (!config.ok()) {
    std::fprintf(stderr, "%s\n", config.status().ToString().c_str());
    return 1;
  }
  BenchRunner runner(*config);

  // The parallel execution at every width: each round's gain sweep is cut
  // into one chunk per worker, then scanned serially for the argmax.
  for (size_t workers : {1u, 4u, 8u, 16u, 32u}) {
    ThreadPool pool(workers);
    BenchCase bench_case;
    bench_case.name = "solve/parallel/w" + std::to_string(workers);
    bench_case.profile = "PE";
    bench_case.variant = "independent";
    bench_case.solver = "parallel";
    bench_case.n = n;
    bench_case.k = k;
    bench_case.threads = workers;
    bench_case.run = [&graph, &pool, k](BenchRecorder* recorder) -> Status {
      auto sol = SolveGreedyParallel(*graph, k, &pool, GreedyOptions());
      if (!sol.ok()) return sol.status();
      recorder->Record("cover", sol->cover);
      recorder->Record("gain_evaluations",
                       static_cast<double>(sol->stats.gain_evaluations));
      recorder->Record("pool_utilization", sol->stats.PoolUtilization());
      return Status::OK();
    };
    st = runner.Run(bench_case);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Paper-style table, rendered from the harness percentiles so the text
  // output and the JSON record never disagree.
  auto counter = [](const BenchResult& r, const char* name) {
    for (const auto& [key, value] : r.counters) {
      if (key == name) return value;
    }
    return 0.0;
  };
  TablePrinter table({"algorithm", "workers", "p50 time", "speedup vs 1",
                      "cover", "gain evals", "pool util %"});
  double base_p50 = 0.0;
  for (const BenchResult& r : runner.results()) {
    if (r.threads == 1) base_p50 = r.wall.p50_ms;
    table.AddRow(
        {r.solver, std::to_string(r.threads),
         FormatDuration(r.wall.p50_ms * 1e-3),
         TablePrinter::Fixed(
             r.wall.p50_ms > 0 ? base_p50 / r.wall.p50_ms : 0.0, 2),
         TablePrinter::Percent(counter(r, "cover"), 2),
         FormatCount(static_cast<uint64_t>(counter(r, "gain_evaluations"))),
         TablePrinter::Percent(counter(r, "pool_utilization"), 0)});
  }
  env.Emit(table, "Parallel scan speedup");
  st = MaybeWriteBenchJson(runner, env.flags);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}
