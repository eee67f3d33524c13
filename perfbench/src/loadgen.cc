#include "loadgen.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>

#include "bench/json.h"
#include "checks.h"
#include "serve/transport.h"

namespace perfbench {

using prefcover::JsonValue;
using prefcover::Status;
namespace serve = prefcover::serve;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU time the hypervisor gave to others while this VM wanted it, and all
// CPU time, in clock ticks summed over CPUs (zeros without /proc/stat).
std::pair<double, double> StealAndTotalTicks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double ticks[8] = {};  // user nice system idle iowait irq softirq steal
  double total = 0.0;
  for (double& t : ticks) {
    if (!(stat >> t)) return {0.0, 0.0};
    total += t;
  }
  return {ticks[7], total};
}

constexpr double kTailQuantiles[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
constexpr size_t kQueryConnections = 3;
// The max-rate search: these rates in order until one fails (halving
// below the first, down to kMinSearchQps, when even that one fails), then
// bisection to 5 %. A step passes with no failures, p99 within the limit
// and no growing backlog. The limit sits above the 10-30 ms stalls a
// shared virtual host shows at any rate; the backlog test (see
// BacklogGrew) fails a step whose queue grew by more than the slack's
// worth of latency, about 1 % above capacity at 0.6 s steps.
constexpr double kSearchLadderQps[] = {4000, 8000, 16000, 32000};
constexpr double kMinSearchQps = 500.0;
constexpr double kP99LimitUs = 50000.0;
constexpr double kBacklogSlackUs = 5000.0;
constexpr double kMinStepSamples = 1500.0;
// Host interference: the share of all CPU time the hypervisor may take
// during a nominal window or a failed search step before it is run again,
// and how many extra windows (and, separately, step retries) a run allows.
constexpr double kMaxStealShare = 0.01;
constexpr size_t kExtraWindows = 2;

// Reads one response line from `fd` into `*line` (blocking, bounded by
// `timeout_ms`), keeping bytes past the newline in `*pending`.
Status ReadLine(int fd, std::string* pending, std::string* line,
                int timeout_ms) {
  const int64_t deadline = NowNs() + int64_t{timeout_ms} * 1000000;
  for (;;) {
    const size_t eol = pending->find('\n');
    if (eol != std::string::npos) {
      line->assign(*pending, 0, eol);
      pending->erase(0, eol + 1);
      return Status::OK();
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) return Status::Cancelled("no answer within timeout");
    auto readable = serve::PollReadable(fd, static_cast<int>(left_ms));
    if (!readable.ok()) return readable.status();
    if (!*readable) continue;
    char chunk[4096];
    auto got = serve::ReadSome(fd, chunk, sizeof(chunk));
    if (!got.ok()) return got.status();
    if (*got == 0) return Status::IOError("server closed the connection");
    pending->append(chunk, *got);
  }
}

// One request/answer exchange on the control connection.
Status Exchange(int fd, std::string* pending, const std::string& request,
                std::string* answer) {
  const std::string line = request + "\n";
  PREFCOVER_RETURN_NOT_OK(serve::WriteFully(fd, line.data(), line.size()));
  return ReadLine(fd, pending, answer, 30000);
}

// A sampled answer kept for the after-the-fact correctness check.
struct Kept {
  std::string query;
  std::string answer;
};

// One query connection's share of a step.
struct ConnectionPlan {
  int fd = -1;
  std::vector<int64_t> due_ns;  // absolute
  std::vector<std::string> lines;
  std::vector<Sample> samples;
  std::vector<Kept> kept;
  std::string error;
  // Progress of the driving loop.
  size_t next_send = 0;
  size_t next_recv = 0;
  std::string out;  // bytes due but not yet accepted by the socket
  std::string in;   // bytes of a partial answer line
};

// Sends what is due on `plan`'s connection and reads what has arrived,
// without blocking. False once the connection failed.
bool Pump(ConnectionPlan* plan, size_t check_every) {
  const size_t n = plan->due_ns.size();
  const int64_t now = NowNs();
  while (plan->next_send < n && plan->due_ns[plan->next_send] <= now) {
    Sample& sample = plan->samples[plan->next_send];
    sample.due_ns = plan->due_ns[plan->next_send];
    sample.send_ns = now;
    plan->out += plan->lines[plan->next_send];
    plan->out += '\n';
    ++plan->next_send;
  }
  if (!plan->out.empty()) {
    const ssize_t sent = ::send(plan->fd, plan->out.data(), plan->out.size(),
                                MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent > 0) {
      plan->out.erase(0, static_cast<size_t>(sent));
    } else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
               errno != EINTR) {
      plan->error = std::string("send: ") + std::strerror(errno);
      return false;
    }
  }
  char chunk[65536];
  const ssize_t got = ::recv(plan->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (got == 0) {
    plan->error = "server closed the connection";
    return false;
  }
  if (got < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return true;
    plan->error = std::string("recv: ") + std::strerror(errno);
    return false;
  }
  const int64_t recv_ns = NowNs();
  plan->in.append(chunk, static_cast<size_t>(got));
  size_t start = 0;
  for (size_t eol = plan->in.find('\n'); eol != std::string::npos;
       eol = plan->in.find('\n', start)) {
    std::string_view answer(plan->in.data() + start, eol - start);
    start = eol + 1;
    if (plan->next_recv >= plan->next_send) {
      plan->error = "answer without a request";
      return false;
    }
    Sample& sample = plan->samples[plan->next_recv];
    sample.recv_ns = recv_ns;
    sample.ok = answer.substr(0, 3) == "OK ";
    if (sample.ok && plan->next_recv % check_every == 0) {
      plan->kept.push_back({plan->lines[plan->next_recv], std::string(answer)});
    }
    ++plan->next_recv;
  }
  plan->in.erase(0, start);
  return true;
}

// Drives every query connection from one thread that never sleeps: it
// sends each request the moment it falls due and reads answers as they
// arrive, until all are answered or `drain_deadline_ns` passes. Spinning
// keeps the generator's own timing exact; an idle virtual CPU can take
// milliseconds to wake from a timer.
void RunConnections(std::vector<ConnectionPlan>* plans,
                    int64_t drain_deadline_ns, size_t check_every) {
  for (ConnectionPlan& plan : *plans) {
    plan.samples.assign(plan.due_ns.size(), Sample{});
  }
  for (;;) {
    bool open = false;
    for (ConnectionPlan& plan : *plans) {
      if (!plan.error.empty() || plan.next_recv == plan.due_ns.size()) {
        continue;
      }
      if (Pump(&plan, check_every)) open = true;
    }
    if (!open || NowNs() >= drain_deadline_ns) return;
  }
}

// After a step's deadline: flushes unsent bytes and reads (and discards)
// the answers still owed, so the next step starts on a quiet connection.
// Those requests already count as failed.
Status Drain(ConnectionPlan* plan) {
  if (!plan->out.empty()) {
    PREFCOVER_RETURN_NOT_OK(
        serve::WriteFully(plan->fd, plan->out.data(), plan->out.size()));
    plan->out.clear();
  }
  std::string line;
  for (size_t owed = plan->next_send - plan->next_recv; owed > 0; --owed) {
    PREFCOVER_RETURN_NOT_OK(ReadLine(plan->fd, &plan->in, &line, 30000));
  }
  return Status::OK();
}

struct StepOutcome {
  std::vector<Sample> samples;
  StepSummary summary;
  double steal_share = 0.0;  // of all CPU time, taken by the hypervisor
  JsonValue stats;
  bool backlog_grew = false;
  bool pass = false;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return NearestRank(values, 0.5);
}

JsonValue SummaryJson(const StepSummary& s) {
  JsonValue o = JsonValue::Object();
  o.Set("sent", JsonValue::Uint(s.sent));
  o.Set("answered", JsonValue::Uint(s.answered));
  o.Set("failed", JsonValue::Uint(s.failed));
  o.Set("p50_us", JsonValue::Number(s.p50_us));
  o.Set("p99_us", s.p99_reportable ? JsonValue::Number(s.p99_us)
                                   : JsonValue::Null());
  JsonValue tail = JsonValue::Object();
  tail.Set("q", JsonValue::Number(s.tail.q));
  tail.Set("us", JsonValue::Number(s.tail.value));
  tail.Set("count", JsonValue::Uint(s.tail.count));
  o.Set("tail", std::move(tail));
  o.Set("late_p99_us", JsonValue::Number(s.late_p99_us));
  o.Set("backlog_at_end", JsonValue::Uint(s.backlog_at_end));
  return o;
}

// Parses "OK stats key=value ..." into a JSON object of numbers.
JsonValue ParseStats(const std::string& line) {
  JsonValue o = JsonValue::Object();
  size_t pos = line.find(' ', 3);
  while (pos != std::string::npos) {
    const size_t start = pos + 1;
    pos = line.find(' ', start);
    const std::string field = line.substr(start, pos - start);
    const size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    o.Set(field.substr(0, eq),
          JsonValue::Number(std::strtod(field.c_str() + eq + 1, nullptr)));
  }
  return o;
}

class Loadgen {
 public:
  explicit Loadgen(const LoadgenOptions& options) : options_(options) {}

  ~Loadgen() {
    for (int fd : fds_) ::close(fd);
    if (control_fd_ >= 0) ::close(control_fd_);
  }

  Loadgen(const Loadgen&) = delete;
  Loadgen& operator=(const Loadgen&) = delete;

  std::string Run(std::string* error);

 private:
  Status Open();
  Status RunStep(double rate_qps, double duration_s, uint64_t step_seed,
                 StepOutcome* outcome);
  Status Reload(double* seconds, double* cpu_seconds);

  const LoadgenOptions& options_;
  std::vector<int> fds_;
  int control_fd_ = -1;
  std::string control_pending_;
  JsonValue last_stats_ = JsonValue::Object();
  std::unique_ptr<serve::ServingIndex> index_;
  std::unique_ptr<QueryMix> mix_;
  bool next_reload_is_alt_ = true;
  size_t reloads_ = 0;
  std::vector<Kept> kept_;
  // Operations behind the failure share: warm-up and nominal requests,
  // `stats` and `reload` calls, and wrong answers in any phase. Search
  // steps past capacity are expected to time out or be shed; that decides
  // the step, not the run.
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

Status Loadgen::Open() {
  auto index = serve::ServingIndex::Load(options_.index_path);
  if (!index.ok()) return index.status();
  index_ = std::make_unique<serve::ServingIndex>(std::move(*index));
  mix_ = std::make_unique<QueryMix>(static_cast<uint32_t>(index_->NumNodes()),
                                    index_->NumRetained(), options_.zipf_s,
                                    options_.seed);
  serve::IgnoreSigpipe();
  for (size_t i = 0; i <= kQueryConnections; ++i) {
    auto fd = serve::ConnectTcp("127.0.0.1", options_.port, 5000);
    if (!fd.ok()) return fd.status();
    if (i == kQueryConnections) {
      control_fd_ = *fd;
    } else {
      fds_.push_back(*fd);
    }
  }
  return Status::OK();
}

Status Loadgen::Reload(double* seconds, double* cpu_seconds) {
  const std::string& path = next_reload_is_alt_ ? options_.alt_index_path
                                                : options_.index_path;
  next_reload_is_alt_ = !next_reload_is_alt_;
  std::string answer;
  const double cpu_start = ProcessCpuSeconds(options_.server_pid);
  const int64_t start = NowNs();
  Status st = Exchange(control_fd_, &control_pending_, "reload " + path,
                       &answer);
  *seconds = static_cast<double>(NowNs() - start) * 1e-9;
  *cpu_seconds = ProcessCpuSeconds(options_.server_pid) - cpu_start;
  ++attempted_;
  ++reloads_;
  if (st.ok() && answer.rfind("OK reload ", 0) != 0) {
    st = Status::FailedPrecondition("reload answered '" + answer + "'");
  }
  if (!st.ok()) ++failed_;
  return st;
}

Status Loadgen::RunStep(double rate_qps, double duration_s,
                        uint64_t step_seed, StepOutcome* outcome) {
  const size_t conns = fds_.size();
  std::vector<ConnectionPlan> plans(conns);
  for (size_t c = 0; c < conns; ++c) {
    plans[c].fd = fds_[c];
    plans[c].due_ns = PoissonSchedule(rate_qps / static_cast<double>(conns),
                                      duration_s, step_seed * 31 + c);
    plans[c].lines.reserve(plans[c].due_ns.size());
    for (size_t i = 0; i < plans[c].due_ns.size(); ++i) {
      plans[c].lines.push_back(mix_->Next());
    }
  }
  // Start a little ahead so the driving thread is running when the first
  // request falls due.
  const int64_t start = NowNs() + 5000000;
  const int64_t window_end =
      start + static_cast<int64_t>(duration_s * 1e9);
  const int64_t drain_deadline = window_end + 500000000;
  for (auto& plan : plans) {
    for (int64_t& due : plan.due_ns) due += start;
  }
  const auto [steal_before, total_before] = StealAndTotalTicks();
  std::thread driver(RunConnections, &plans, drain_deadline,
                     options_.check_every);
  driver.join();
  const auto [steal_after, total_after] = StealAndTotalTicks();
  if (total_after > total_before) {
    outcome->steal_share =
        (steal_after - steal_before) / (total_after - total_before);
  }

  std::vector<Sample> all;
  for (auto& plan : plans) {
    if (!plan.error.empty()) {
      return Status::IOError("query connection: " + plan.error);
    }
    PREFCOVER_RETURN_NOT_OK(Drain(&plan));
    all.insert(all.end(), plan.samples.begin(), plan.samples.end());
    for (auto& kept : plan.kept) kept_.push_back(std::move(kept));
  }
  outcome->summary = Summarize(all, window_end);
  outcome->samples = std::move(all);
  std::string stats;
  ++attempted_;
  Status st = Exchange(control_fd_, &control_pending_, "stats", &stats);
  if (!st.ok() || stats.rfind("OK stats ", 0) != 0) {
    ++failed_;
    return st.ok() ? Status::FailedPrecondition("stats answered " + stats)
                   : st;
  }
  // `stats` counts since the server started; keep this step's share.
  JsonValue total = ParseStats(stats);
  outcome->stats = JsonValue::Object();
  for (const auto& [key, value] : total.members()) {
    const JsonValue* before = last_stats_.Find(key);
    outcome->stats.Set(key, JsonValue::Number(
                                value.number_value() -
                                (before ? before->number_value() : 0.0)));
  }
  last_stats_ = std::move(total);
  const StepSummary& s = outcome->summary;
  outcome->backlog_grew =
      BacklogGrew(outcome->samples, start, window_end, kBacklogSlackUs);
  outcome->pass = s.failed == 0 && s.p99_reportable &&
                  s.p99_us <= kP99LimitUs && !outcome->backlog_grew;
  return Status::OK();
}

std::string Loadgen::Run(std::string* error) {
  Status st = Open();
  if (!st.ok()) {
    *error = st.ToString();
    return "";
  }
  JsonValue doc = JsonValue::Object();
  uint64_t step_seed = options_.seed * 1000;

  // Warm-up at the nominal rate, unmeasured: fills the response cache
  // and lets the fresh server's threads and pages settle.
  if (options_.warmup_s > 0.0) {
    StepOutcome warmup;
    st = RunStep(options_.nominal_qps, options_.warmup_s, ++step_seed,
                 &warmup);
    if (!st.ok()) {
      *error = "warm-up: " + st.ToString();
      return "";
    }
    attempted_ += warmup.summary.sent;
    failed_ += warmup.summary.failed;
    doc.Set("warmup", SummaryJson(warmup.summary));
  }

  // Phase 1: the nominal rate shared by every workload, in windows whose
  // samples are pooled for p50 and p99; each window's own figures and
  // `stats` go into the record.
  std::vector<double> p50s, p99s;
  std::vector<Sample> nominal_samples;
  JsonValue windows = JsonValue::Array();
  std::map<std::string, double> nominal_stats;
  // A window in which the hypervisor took more than kMaxStealShare of the
  // VM's CPU time measured the host, not the server. It stays in the
  // record and the failure count, and another window replaces it, while
  // the budget of kExtraWindows lasts.
  size_t used = 0;
  for (size_t tried = 0; used < options_.nominal_windows; ++tried) {
    StepOutcome window;
    st = RunStep(options_.nominal_qps, options_.nominal_window_s, ++step_seed,
                 &window);
    if (!st.ok()) {
      *error = "nominal phase: " + st.ToString();
      return "";
    }
    if (!window.summary.p99_reportable) {
      *error = "nominal window too short for a p99";
      return "";
    }
    attempted_ += window.summary.sent;
    failed_ += window.summary.failed;
    const size_t budget_left = options_.nominal_windows + kExtraWindows - tried;
    const bool use = window.steal_share <= kMaxStealShare ||
                     budget_left <= options_.nominal_windows - used;
    if (use) {
      ++used;
      p50s.push_back(window.summary.p50_us);
      p99s.push_back(window.summary.p99_us);
      nominal_samples.insert(nominal_samples.end(), window.samples.begin(),
                             window.samples.end());
      for (const auto& [key, value] : window.stats.members()) {
        nominal_stats[key] += value.number_value();
      }
    }
    JsonValue window_json = SummaryJson(window.summary);
    window_json.Set("steal_share", JsonValue::Number(window.steal_share));
    window_json.Set("used", JsonValue::Bool(use));
    window_json.Set("stats", window.stats);
    windows.Append(std::move(window_json));
  }
  JsonValue nominal_json = SummaryJson(
      Summarize(nominal_samples, std::numeric_limits<int64_t>::max()));
  nominal_json.Set("rate_qps", JsonValue::Number(options_.nominal_qps));
  nominal_json.Set("window_median_p50_us", JsonValue::Number(Median(p50s)));
  nominal_json.Set("window_median_p99_us", JsonValue::Number(Median(p99s)));
  JsonValue stats_json = JsonValue::Object();
  for (const auto& [key, value] : nominal_stats) {
    stats_json.Set(key, JsonValue::Number(value));
  }
  nominal_json.Set("stats", std::move(stats_json));
  nominal_json.Set("windows", std::move(windows));
  doc.Set("nominal", std::move(nominal_json));

  // Phase 2: the highest rate meeting the p99 limit with no failures and
  // no growing backlog — fixed ladder, then bisection to 5 %.
  JsonValue steps = JsonValue::Array();
  double best = 0.0;
  double lowest_fail = 0.0;
  size_t step_count = 0;
  size_t retries = 0;
  auto try_rate = [&](double rate) -> bool {
    // Long enough for p99 to have ten samples beyond it at any rate.
    const double duration =
        std::max(options_.step_s, kMinStepSamples / rate);
    for (;;) {
      StepOutcome outcome;
      Status step_st = RunStep(rate, duration, ++step_seed, &outcome);
      ++step_count;
      if (!step_st.ok() && st.ok()) st = step_st;
      JsonValue step = SummaryJson(outcome.summary);
      step.Set("rate_qps", JsonValue::Number(rate));
      step.Set("pass", JsonValue::Bool(outcome.pass));
      step.Set("backlog_grew", JsonValue::Bool(outcome.backlog_grew));
      step.Set("steal_share", JsonValue::Number(outcome.steal_share));
      step.Set("stats", outcome.stats);
      steps.Append(std::move(step));
      // A step that failed while the hypervisor stole CPU is run again,
      // as a nominal window is.
      if (outcome.pass || outcome.steal_share <= kMaxStealShare ||
          retries == kExtraWindows || !st.ok()) {
        return outcome.pass;
      }
      ++retries;
    }
  };
  for (double rate : kSearchLadderQps) {
    if (step_count >= options_.max_steps || !st.ok()) break;
    if (!try_rate(rate)) {
      lowest_fail = rate;
      break;
    }
    best = rate;
  }
  // A host that steals much of the VM's CPU time can fail the first rung;
  // the search then goes down, so the result still names a rate.
  for (double rate = kSearchLadderQps[0] / 2;
       best == 0.0 && st.ok() && rate >= kMinSearchQps &&
       step_count < options_.max_steps;
       rate /= 2) {
    if (try_rate(rate)) {
      best = rate;
    } else {
      lowest_fail = rate;
    }
  }
  while (st.ok() && best > 0.0 && lowest_fail > best * 1.05 &&
         step_count < options_.max_steps) {
    const double mid = std::sqrt(best * lowest_fail);
    if (try_rate(mid)) {
      best = mid;
    } else {
      lowest_fail = mid;
    }
  }
  if (!st.ok()) {
    *error = "rate search: " + st.ToString();
    return "";
  }
  doc.Set("steps", std::move(steps));
  doc.Set("max_qps", JsonValue::Number(best));

  // Phase 3: reloads on the idle server, alternating between the two
  // indexes and ending on the first.
  // The server is otherwise idle, so its CPU time across a reload is the
  // reload's own.
  std::vector<double> reload_s;
  std::vector<double> reload_cpu_s;
  if (!options_.alt_index_path.empty()) {
    for (size_t i = 0; i < options_.idle_reloads; ++i) {
      double seconds = 0.0;
      double cpu_seconds = 0.0;
      st = Reload(&seconds, &cpu_seconds);
      if (!st.ok()) {
        *error = "idle reload: " + st.ToString();
        return "";
      }
      reload_s.push_back(seconds);
      reload_cpu_s.push_back(cpu_seconds);
    }
  }
  JsonValue reloads = JsonValue::Array();
  for (double s : reload_s) reloads.Append(JsonValue::Number(s));
  doc.Set("reload_s", std::move(reloads));
  doc.Set("reload_median_s", JsonValue::Number(Median(reload_s)));
  JsonValue reload_cpus = JsonValue::Array();
  for (double s : reload_cpu_s) reload_cpus.Append(JsonValue::Number(s));
  doc.Set("reload_cpu_s", std::move(reload_cpus));
  doc.Set("reload_cpu_median_s", JsonValue::Number(Median(reload_cpu_s)));
  doc.Set("reloads", JsonValue::Uint(reloads_));

  // Correctness of the sampled answers, after all timing is done.
  size_t mismatches = 0;
  std::string first_mismatch;
  for (const Kept& kept : kept_) {
    Status check = CheckAnswer(*index_, kept.query, kept.answer);
    if (!check.ok()) {
      if (mismatches++ == 0) first_mismatch = check.ToString();
    }
  }
  failed_ += mismatches;
  JsonValue checks = JsonValue::Object();
  checks.Set("checked", JsonValue::Uint(kept_.size()));
  checks.Set("mismatches", JsonValue::Uint(mismatches));
  checks.Set("first_mismatch", JsonValue::Str(first_mismatch));
  doc.Set("answer_checks", std::move(checks));
  doc.Set("attempted", JsonValue::Uint(attempted_));
  doc.Set("failed", JsonValue::Uint(failed_));
  doc.Set("query_connections", JsonValue::Uint(fds_.size()));
  doc.Set("zipf_s", JsonValue::Number(options_.zipf_s));
  return doc.Dump();
}

}  // namespace

double NearestRank(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

bool Reportable(double q, size_t count) {
  // Samples strictly beyond the nearest-rank q-quantile.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(count)));
  return count >= rank + 10;
}

Quantile TailQuantile(const std::vector<double>& sorted) {
  Quantile best;
  best.count = sorted.size();
  for (double q : kTailQuantiles) {
    if (!Reportable(q, sorted.size())) break;
    best.q = q;
    best.value = NearestRank(sorted, q);
  }
  return best;
}

StepSummary Summarize(const std::vector<Sample>& samples,
                      int64_t window_end_ns) {
  StepSummary s;
  s.sent = samples.size();
  std::vector<double> latency_us;
  std::vector<double> late_us;
  latency_us.reserve(samples.size());
  late_us.reserve(samples.size());
  for (const Sample& sample : samples) {
    late_us.push_back(static_cast<double>(sample.send_ns - sample.due_ns) *
                      1e-3);
    if (sample.recv_ns == 0) {
      ++s.failed;
      if (sample.send_ns <= window_end_ns) ++s.backlog_at_end;
      continue;
    }
    ++s.answered;
    if (!sample.ok) ++s.failed;
    if (sample.send_ns <= window_end_ns && sample.recv_ns > window_end_ns) {
      ++s.backlog_at_end;
    }
    latency_us.push_back(static_cast<double>(sample.recv_ns - sample.due_ns) *
                         1e-3);
  }
  std::sort(latency_us.begin(), latency_us.end());
  std::sort(late_us.begin(), late_us.end());
  if (!latency_us.empty()) {
    s.p50_us = NearestRank(latency_us, 0.5);
    s.p99_reportable = Reportable(0.99, latency_us.size());
    s.p99_us = NearestRank(latency_us, 0.99);
    s.tail = TailQuantile(latency_us);
  }
  if (!late_us.empty()) s.late_p99_us = NearestRank(late_us, 0.99);
  return s;
}

bool BacklogGrew(const std::vector<Sample>& samples, int64_t start_ns,
                 int64_t end_ns, double slack_us) {
  const int64_t tenth = (end_ns - start_ns) / 10;
  std::vector<double> first_us, last_us;
  for (const Sample& sample : samples) {
    const double latency_us =
        sample.recv_ns == 0
            ? std::numeric_limits<double>::infinity()
            : static_cast<double>(sample.recv_ns - sample.due_ns) * 1e-3;
    if (sample.due_ns < start_ns + tenth) first_us.push_back(latency_us);
    if (sample.due_ns >= end_ns - tenth) last_us.push_back(latency_us);
  }
  if (first_us.empty() || last_us.empty()) return false;
  std::sort(first_us.begin(), first_us.end());
  std::sort(last_us.begin(), last_us.end());
  return NearestRank(last_us, 0.1) > NearestRank(first_us, 0.1) + slack_us;
}

QueryMix::QueryMix(uint32_t num_nodes, uint64_t max_coverage_k,
                   double zipf_s, uint64_t seed)
    : rng_(seed), zipf_(num_nodes, zipf_s), max_coverage_k_(max_coverage_k) {
  // Hot ranks land on seeded, scattered ids rather than the lowest ids.
  permutation_.resize(num_nodes);
  for (uint32_t i = 0; i < num_nodes; ++i) permutation_[i] = i;
  for (uint32_t i = num_nodes; i > 1; --i) {
    std::swap(permutation_[i - 1], permutation_[rng_.NextBounded(i)]);
  }
}

uint32_t QueryMix::NextId() { return permutation_[zipf_.Sample(&rng_)]; }

std::string QueryMix::Next() {
  const uint64_t kind = rng_.NextBounded(100);
  if (kind < 80) return "subs " + std::to_string(NextId()) + " 4";
  if (kind < 95) return "covered " + std::to_string(NextId());
  return "coverk " + std::to_string(1 + rng_.NextBounded(max_coverage_k_));
}

std::vector<int64_t> PoissonSchedule(double rate_qps, double duration_s,
                                     uint64_t seed) {
  prefcover::Rng rng(seed);
  std::vector<int64_t> due;
  double t = 0.0;
  for (;;) {
    t += rng.NextExponential(rate_qps);
    if (t >= duration_s) break;
    due.push_back(static_cast<int64_t>(t * 1e9));
  }
  return due;
}

double ProcessCpuSeconds(int pid) {
  if (pid <= 0) return 0.0;
  double seconds = 0.0;
  std::error_code ec;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream schedstat(task.path() / "schedstat");
    double run_ns = 0.0;
    if (schedstat >> run_ns) seconds += run_ns * 1e-9;
  }
  return seconds;
}

std::string RunLoadgen(const LoadgenOptions& options, std::string* error) {
  Loadgen loadgen(options);
  return loadgen.Run(error);
}

}  // namespace perfbench
