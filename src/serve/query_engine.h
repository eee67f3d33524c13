// Query engine: answers protocol queries on the calling thread against a
// hot-swappable ServingIndex snapshot.
//
// Answers are computed on the calling thread: a raw AnswerOnIndex costs
// about 170 ns, so handing a request to another thread would cost more
// than the answer itself. The TCP server answers each request on the
// session thread that read it (SERVING.md "Engine").
//
// Hot reload: SwapIndex publishes a new snapshot by swapping a
// mutex-guarded shared_ptr (the critical section is a pointer copy).
// Every request takes the snapshot once, so it is answered wholly by
// one index; a request that started before a swap finishes on the old
// one, which stays alive until its last reader lets go.
//
// Observability (MetricsRegistry::Global; catalog in OBSERVABILITY.md):
// serve.requests, serve.index_reloads, and the serve.latency_us histogram
// (parse -> answer -> format on the calling thread). Failpoint:
// `serve.reload_swap` fires inside SwapIndex before the swap.

#ifndef PREFCOVER_SERVE_QUERY_ENGINE_H_
#define PREFCOVER_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/serving_index.h"
#include "util/status.h"

namespace prefcover {
namespace serve {

/// \brief Point-in-time engine counters (for the `stats` control verb).
struct QueryEngineStats {
  /// Parsed requests answered (OK or ERR from the index).
  uint64_t requests = 0;
  uint64_t index_reloads = 0;
};

/// \brief Thread-safe serving engine over an atomically swappable index.
/// Every call answers on the calling thread.
class QueryEngine {
 public:
  explicit QueryEngine(std::shared_ptr<const ServingIndex> index);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Answers a parsed request against the current snapshot, on the
  /// calling thread (the name predates the inline design).
  Response SubmitAndWait(const Request& request);

  /// Parses one protocol query line and answers it; returns the reply
  /// line ("OK ..." or "ERR ..."). Unparseable lines are not counted.
  std::string AnswerLine(std::string_view line);

  /// Atomically replaces the served index. Requests already answering
  /// finish on the snapshot they took. Failpoint `serve.reload_swap`
  /// can inject an error before the swap.
  Status SwapIndex(std::shared_ptr<const ServingIndex> index);

  /// The currently served index snapshot.
  std::shared_ptr<const ServingIndex> index() const;

  /// Counters since construction (the engine's own tallies, not the
  /// global registry, so concurrent engines don't bleed together).
  QueryEngineStats Stats() const;

  /// Test seam: while paused, answering calls block until resumed, so a
  /// test can stall the server and watch requests pile up in clients.
  void SetPaused(bool paused);

 private:
  /// Blocks while SetPaused(true) is in effect.
  void WaitWhilePaused();
  /// Counts one answered request that started at `start_ns`.
  void Record(int64_t start_ns);

  // Global instruments, resolved once (names in OBSERVABILITY.md).
  obs::Counter* requests_total_;
  obs::Counter* index_reloads_;
  obs::Histogram* latency_us_hist_;

  std::atomic<uint64_t> n_requests_{0};
  std::atomic<uint64_t> n_index_reloads_{0};

  // Published snapshot. Guarded by a mutex rather than
  // std::atomic<shared_ptr>: libstdc++ 12's _Sp_atomic unlocks its
  // spinlock with relaxed ordering, which TSan (correctly, per the
  // memory model) reports as a race between store() and load().
  mutable std::mutex index_mu_;
  std::shared_ptr<const ServingIndex> index_;

  // SetPaused state. `paused_` is also read without the lock, so the
  // answer path pays one atomic load when not paused.
  std::mutex pause_mu_;
  std::condition_variable pause_cv_;
  std::atomic<bool> paused_{false};
};

/// \brief Absolute steady-clock "now" in nanoseconds (the clock behind
/// serve.latency_us).
int64_t SteadyNowNanos();

}  // namespace serve
}  // namespace prefcover

#endif  // PREFCOVER_SERVE_QUERY_ENGINE_H_
