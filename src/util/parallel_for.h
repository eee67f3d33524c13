// Blocking data-parallel loop over an index range.
//
// ParallelFor partitions [begin, end) into contiguous chunks, one batch per
// worker, and blocks until all complete. This is the exact parallelization
// the paper describes for the greedy solver: per-iteration candidate gains
// are independent and are evaluated concurrently (SweepCandidateEvaluator).

#ifndef PREFCOVER_UTIL_PARALLEL_FOR_H_
#define PREFCOVER_UTIL_PARALLEL_FOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "util/cancellation.h"
#include "util/thread_pool.h"

namespace prefcover {

/// \brief Runs `body(chunk_begin, chunk_end, worker_index)` over a partition
/// of [begin, end) using `pool`. Blocks until all chunks complete.
///
/// `worker_index` is in [0, num_chunks) and is distinct per chunk, so the
/// body may accumulate into per-worker slots without synchronization.
/// If `pool` is nullptr the loop runs inline as a single chunk.
///
/// Cancellation is cooperative and chunk-granular: when `cancel` is non-null
/// and trips, chunks that have not *started* are skipped entirely (a running
/// chunk always finishes — no mid-task aborts). The call still blocks until
/// every chunk has started-and-finished or been skipped. Skipped chunks
/// leave their outputs untouched, so after a cancelled call the results are
/// INCOMPLETE — the caller must re-check the token and discard them.
void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(size_t, size_t, size_t)>& body,
    const CancelToken* cancel = nullptr);

/// \brief Element-wise convenience wrapper: `body(i)` for i in [begin, end).
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body,
                 const CancelToken* cancel = nullptr);

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_PARALLEL_FOR_H_
