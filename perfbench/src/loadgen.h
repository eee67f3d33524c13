// The benchmark's open-loop load generator for `prefcover serve --port`.
//
// One process with two threads and four TCP connections: three query
// connections, each with its own seeded Poisson arrival schedule, and one
// control connection that sends `stats` and `reload`. One thread drives
// all query connections without sleeping: it sends every request the
// moment it falls due, whether or not earlier answers have arrived, and
// reads answers as they arrive (the line protocol answers in order on a
// connection). The calling thread owns the control connection. Latency is
// timed on a nanosecond steady clock from each request's *due* time, so a
// stall of the server or of the generator delays every request due during
// it; how late the generator itself sent is reported separately.
//
// Why not `serve_loadgen --connect`: that mode stamps requests with a
// millisecond clock, runs closed-loop (a slow server receives less load),
// and draws ids from only the first 512 nodes by default.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/serving_index.h"
#include "util/random.h"

namespace perfbench {

/// One request's timeline on the steady clock (ns). recv_ns == 0 means no
/// answer arrived before the drain deadline.
struct Sample {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  bool ok = false;  // an "OK ..." answer arrived
};

/// An exact order statistic with the number of samples it was taken over.
struct Quantile {
  double q = 0.0;
  double value = 0.0;
  size_t count = 0;
};

/// Nearest-rank quantile of `values` (sorted ascending). Requires a
/// nonempty input.
double NearestRank(const std::vector<double>& sorted, double q);

/// The highest quantile of the ladder 0.5, 0.9, 0.99, 0.999, 0.9999 that
/// still has at least ten samples beyond it (q = 0 when even the median
/// has not).
Quantile TailQuantile(const std::vector<double>& sorted);

/// True when `q` has at least ten of `count` samples beyond it.
bool Reportable(double q, size_t count);

/// Latency and lateness of a finished step, timed from due times.
struct StepSummary {
  size_t sent = 0;
  size_t answered = 0;
  size_t failed = 0;        // ERR answers plus requests never answered
  double p50_us = 0.0;      // of answered requests, from due time
  double p99_us = 0.0;      // valid only when p99_reportable
  bool p99_reportable = false;
  Quantile tail;            // highest reportable quantile, in us
  double late_p99_us = 0.0; // send time minus due time
  size_t backlog_at_end = 0;  // sent by the window end but unanswered then
};

/// Folds the samples of one step (any number of connections) whose send
/// window closed at `window_end_ns`.
StepSummary Summarize(const std::vector<Sample>& samples,
                      int64_t window_end_ns);

/// Whether the server's queue grew during a step whose requests fell due
/// in [start_ns, end_ns): the 10th-percentile latency of the requests due
/// in the last tenth exceeds that of the requests due in the first tenth
/// by more than `slack_us` (unanswered requests count as infinitely late).
/// A growing backlog delays every request behind it, the fastest too; a
/// stall of the host delays only the requests that fall due before it
/// ends, so it must cover most of the last tenth to count.
bool BacklogGrew(const std::vector<Sample>& samples, int64_t start_ns,
                 int64_t end_ns, double slack_us);

/// The query stream of a workload: 80 % `subs <id> 4`, 15 % `covered
/// <id>`, 5 % `coverk <k>`, ids drawn Zipf(s) over a seeded permutation of
/// the catalog (s = 0 gives uniform ids).
class QueryMix {
 public:
  QueryMix(uint32_t num_nodes, uint64_t max_coverage_k, double zipf_s,
           uint64_t seed);
  /// The next request line (no newline).
  std::string Next();

 private:
  uint32_t NextId();

  prefcover::Rng rng_;
  prefcover::ZipfDistribution zipf_;
  std::vector<uint32_t> permutation_;
  uint64_t max_coverage_k_;
};

/// Poisson arrival offsets (ns from the window start) at `rate_qps` over
/// `duration_s`.
std::vector<int64_t> PoissonSchedule(double rate_qps, double duration_s,
                                     uint64_t seed);

struct LoadgenOptions {
  uint16_t port = 0;
  std::string index_path;      // the index the server starts on
  std::string alt_index_path;  // reload target; empty = no reloads
  double zipf_s = 1.0;
  uint64_t seed = 1;
  /// The nominal rate, shared by every workload.
  double nominal_qps = 8000.0;
  /// The nominal phase: this many windows of this length.
  size_t nominal_windows = 5;
  double nominal_window_s = 1.0;
  /// Unmeasured traffic at the nominal rate before the nominal phase.
  double warmup_s = 1.0;
  /// Length of one step of the max-rate search (at least 1500 requests).
  double step_s = 0.75;
  /// Reloads issued on an idle server after the traffic phases, when
  /// alt_index_path is set.
  size_t idle_reloads = 32;
  /// Check every n-th answer against AnswerOnIndex.
  size_t check_every = 8;
  /// Max rate steps (ladder plus bisection); 0 = no search.
  size_t max_steps = 12;
  /// The server's process id; when set, each reload also records the CPU
  /// time the server spent on it.
  int server_pid = 0;
};

/// CPU time (s) the threads of process `pid` have run, from each thread's
/// /proc/<pid>/task/<tid>/schedstat; 0 when the process is gone.
double ProcessCpuSeconds(int pid);

/// Runs the nominal phase, the max-rate search and the reloads against a
/// running server and returns the result document as JSON text.
std::string RunLoadgen(const LoadgenOptions& options, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
