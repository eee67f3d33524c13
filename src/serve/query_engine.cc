#include "serve/query_engine.h"

#include <cassert>
#include <chrono>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/failpoint.h"

namespace prefcover {
namespace serve {

namespace {

/// serve.latency_us buckets: 1-2-5 decades from 1us to 1s; slower
/// requests land in the overflow bucket.
std::vector<double> LatencyBucketsMicros() {
  std::vector<double> bounds;
  for (double decade = 1.0; decade <= 100000.0; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2.0);
    bounds.push_back(decade * 5.0);
  }
  bounds.push_back(1000000.0);
  return bounds;
}

}  // namespace

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

QueryEngine::QueryEngine(std::shared_ptr<const ServingIndex> index)
    : index_(std::move(index)) {
  assert(index_ != nullptr && "QueryEngine needs an index");
  auto& registry = obs::MetricsRegistry::Global();
  requests_total_ = registry.GetCounter("serve.requests");
  index_reloads_ = registry.GetCounter("serve.index_reloads");
  latency_us_hist_ =
      registry.GetHistogram("serve.latency_us", LatencyBucketsMicros());
}

void QueryEngine::SetPaused(bool paused) {
  {
    std::lock_guard<std::mutex> lock(pause_mu_);
    paused_.store(paused);
  }
  pause_cv_.notify_all();
}

void QueryEngine::WaitWhilePaused() {
  if (!paused_.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(pause_mu_);
  pause_cv_.wait(lock, [this] { return !paused_.load(); });
}

void QueryEngine::Record(int64_t start_ns) {
  requests_total_->Increment();
  n_requests_.fetch_add(1, std::memory_order_relaxed);
  latency_us_hist_->Record(
      static_cast<double>(SteadyNowNanos() - start_ns) / 1000.0);
}

Response QueryEngine::SubmitAndWait(const Request& request) {
  WaitWhilePaused();
  const int64_t start_ns = SteadyNowNanos();
  Response response = AnswerOnIndex(*index(), request);
  Record(start_ns);
  return response;
}

std::string QueryEngine::AnswerLine(std::string_view line) {
  WaitWhilePaused();
  const int64_t start_ns = SteadyNowNanos();
  auto request = ParseRequest(line);
  if (!request.ok()) return FormatErrorLine(request.status());
  std::string reply = AnswerOnIndex(*index(), *request).line;
  Record(start_ns);
  return reply;
}

Status QueryEngine::SwapIndex(std::shared_ptr<const ServingIndex> index) {
  if (index == nullptr) {
    return Status::InvalidArgument("SwapIndex: index must not be null");
  }
  PREFCOVER_FAILPOINT_STATUS("serve.reload_swap");
  obs::Span span("serve.reload_swap", "serve");
  span.Arg("retained", static_cast<uint64_t>(index->NumRetained()));
  {
    std::lock_guard<std::mutex> lock(index_mu_);
    index_.swap(index);
  }
  // `index` now holds the old snapshot; it is released here, outside the
  // lock, unless a request still reads it.
  index_reloads_->Increment();
  n_index_reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

std::shared_ptr<const ServingIndex> QueryEngine::index() const {
  std::lock_guard<std::mutex> lock(index_mu_);
  return index_;
}

QueryEngineStats QueryEngine::Stats() const {
  QueryEngineStats stats;
  stats.requests = n_requests_.load(std::memory_order_relaxed);
  stats.index_reloads = n_index_reloads_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace serve
}  // namespace prefcover
