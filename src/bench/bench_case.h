// One benchmark case: an identity (what was measured, on what input) plus
// a body the runner times. Cases are the unit of the BENCH_core.json
// schema and of bench_compare's regression matching, so names must be
// unique within a suite and stable across commits.

#ifndef PREFCOVER_BENCH_BENCH_CASE_H_
#define PREFCOVER_BENCH_BENCH_CASE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace prefcover {

/// \brief Sink for a case's deterministic outputs (solver telemetry,
/// covers, item counts). Everything recorded here lands in the case's
/// "counters" JSON object and participates in the determinism and golden
/// checks — record timings through the runner, never here.
class BenchRecorder {
 public:
  /// Sets counter `name`; re-recording overwrites (the runner keeps the
  /// last repetition's value, which equals every repetition's value for a
  /// deterministic case).
  void Record(const std::string& name, double value);

  /// Recorded counters sorted by name (deterministic serialization).
  std::vector<std::pair<std::string, double>> Sorted() const;

  void Clear() { counters_.clear(); }

 private:
  std::vector<std::pair<std::string, double>> counters_;
};

/// \brief A benchmark case the runner can measure.
struct BenchCase {
  /// Unique, stable case id within the suite, e.g.
  /// "solve/parallel/w4". bench_compare matches baseline and current
  /// records by this name.
  std::string name;

  /// \name Identity columns of the JSON record ("-" = not applicable).
  /// @{
  std::string profile = "-";
  std::string variant = "-";
  std::string solver = "-";
  uint64_t n = 0;
  uint64_t k = 0;
  uint64_t threads = 1;
  /// @}

  /// One measured repetition. Called `warmup + repetitions` times; the
  /// body must do the same deterministic work each time. A non-OK status
  /// aborts the suite.
  std::function<Status(BenchRecorder*)> run;
};

}  // namespace prefcover

#endif  // PREFCOVER_BENCH_BENCH_CASE_H_
