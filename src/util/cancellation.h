// Cooperative cancellation for long-running work.
//
// A CancelToken is a shared tripwire: the owner arms it (explicit
// Cancel(), a monotonic deadline, or the process signal hookup) and
// long-running loops poll IsCancelled() at natural safe points — solver
// round boundaries, ParallelFor chunk starts, clickstream session
// boundaries.
// Nothing is ever aborted mid-operation: a cancelled greedy solve returns
// the best prefix selected so far (marked `SolverStats::truncated`), a
// cancelled ParallelFor stops dispatching *new* chunks, and a cancelled
// clickstream scan returns Status::Cancelled.
//
// Cost model: IsCancelled() is one relaxed atomic load when no deadline
// is set, plus one steady_clock read when one is. Call sites that poll
// once per solver round pay well under 0.1% of round cost (asserted by
// the micro_core `solve/lazy_deadline` case against `solve/lazy`).
//
// Signal hookup: InstallSignalCancel(token) routes SIGINT/SIGTERM to
// token->Cancel(). The first signal trips the token (graceful: the solve
// finishes its round, outputs are still flushed); a second signal
// restores the default disposition and re-raises, so a repeat Ctrl-C
// force-kills a process stuck before its next check.

#ifndef PREFCOVER_UTIL_CANCELLATION_H_
#define PREFCOVER_UTIL_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace prefcover {

/// \brief Shared cancellation flag plus an optional monotonic deadline.
///
/// Thread-safe and async-signal-safe: Cancel() is a lock-free atomic
/// store, so it may be called from any thread or from a signal handler
/// while workers poll IsCancelled().
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Trips the token. Idempotent, lock-free, signal-safe.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called or the deadline (if set) has passed.
  /// Sticky: a deadline is monotonic, so the result never reverts.
  bool IsCancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const int64_t deadline = deadline_ns_.load(std::memory_order_relaxed);
    return deadline != kNoDeadline && NowNanos() >= deadline;
  }

  /// True only for an explicit Cancel() (signal / caller), not a deadline
  /// expiry; lets callers report *why* work was truncated.
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms (or moves) the deadline at an absolute steady_clock time.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  /// Arms the deadline `seconds` from now. Non-positive values expire
  /// immediately.
  void SetTimeout(double seconds) {
    deadline_ns_.store(
        NowNanos() + static_cast<int64_t>(seconds * 1e9),
        std::memory_order_relaxed);
  }

  /// Removes the deadline (an explicit Cancel() still holds).
  void ClearDeadline() {
    deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
  }

  bool has_deadline() const {
    return deadline_ns_.load(std::memory_order_relaxed) != kNoDeadline;
  }

 private:
  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();

  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> deadline_ns_{kNoDeadline};
};

/// \brief Routes SIGINT and SIGTERM to `token->Cancel()`.
///
/// Only one token is armed at a time; passing nullptr uninstalls the
/// handlers (restoring the default disposition). The second delivery of
/// either signal restores the default disposition and re-raises, so a
/// stuck process can still be killed interactively.
void InstallSignalCancel(CancelToken* token);

/// \brief Signal number that tripped the installed token (0 if none yet).
int LastCancelSignal();

}  // namespace prefcover

#endif  // PREFCOVER_UTIL_CANCELLATION_H_
