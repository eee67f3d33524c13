// Tests of the benchmark's own machinery: the percentile rule, due-time
// accounting of the open-loop generator, and each output check failing on
// a corrupted input.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/json.h"
#include "calibrate.h"
#include "checks.h"
#include "clickstream/clickstream_io.h"
#include "clickstream/streaming_construction.h"
#include "core/greedy_solver.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "serve/transport.h"
#include "synth/dataset_profiles.h"
#include "util/csv.h"

namespace perfbench {
namespace {

using prefcover::JsonValue;
using prefcover::PreferenceGraph;
namespace serve = prefcover::serve;

std::vector<double> Ascending(size_t n) {
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i + 1);
  return values;
}

// ---- percentile rule ------------------------------------------------------

TEST(PercentileRule, NearestRankIsAnExactOrderStatistic) {
  const std::vector<double> v = Ascending(200);
  EXPECT_EQ(NearestRank(v, 0.5), 100.0);
  EXPECT_EQ(NearestRank(v, 0.99), 198.0);
  EXPECT_EQ(NearestRank(v, 1.0), 200.0);
  EXPECT_EQ(NearestRank(v, 0.0), 1.0);
}

TEST(PercentileRule, P99NeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(Reportable(0.99, 999));  // rank 990, 9 beyond
  EXPECT_TRUE(Reportable(0.99, 1000));  // rank 990, 10 beyond
  EXPECT_FALSE(Reportable(0.5, 18));
  EXPECT_TRUE(Reportable(0.5, 20));
}

TEST(PercentileRule, TailIsTheHighestReportableQuantile) {
  Quantile tail = TailQuantile(Ascending(100));
  EXPECT_EQ(tail.q, 0.9);
  EXPECT_EQ(tail.value, 90.0);
  EXPECT_EQ(tail.count, 100u);
  EXPECT_EQ(TailQuantile(Ascending(1000)).q, 0.99);
  EXPECT_EQ(TailQuantile(Ascending(10000)).q, 0.999);
  EXPECT_EQ(TailQuantile(Ascending(5)).q, 0.0);
}

// ---- due-time accounting --------------------------------------------------

TEST(DueTimeAccounting, LatencyCountsFromDueNotFromSend) {
  // The generator stalled: the request due at 0 went out 5 ms late and was
  // answered 100 us after it was sent.
  std::vector<Sample> samples = {{0, 5000000, 5100000, true}};
  StepSummary s = Summarize(samples, 10000000);
  EXPECT_DOUBLE_EQ(s.p50_us, 5100.0);
  EXPECT_DOUBLE_EQ(s.late_p99_us, 5000.0);
  EXPECT_EQ(s.failed, 0u);
}

TEST(DueTimeAccounting, UnansweredAndErrorAnswersFail) {
  std::vector<Sample> samples = {
      {0, 0, 1000, true},          // answered OK
      {1000, 1000, 3000, false},   // answered ERR
      {2000, 2000, 0, false},      // never answered
      {3000, 3000, 20000, true},   // answered after the window closed
  };
  StepSummary s = Summarize(samples, 10000);
  EXPECT_EQ(s.sent, 4u);
  EXPECT_EQ(s.answered, 3u);
  EXPECT_EQ(s.failed, 2u);
  EXPECT_EQ(s.backlog_at_end, 2u);
  EXPECT_FALSE(s.p99_reportable);
}

// One request due every 100 us over 1 s, answered `latency_ns(due)` later.
template <typename F>
std::vector<Sample> SteadyStep(F latency_ns) {
  std::vector<Sample> samples;
  for (int64_t due = 0; due < 1000000000; due += 100000) {
    samples.push_back({due, due, due + latency_ns(due), true});
  }
  return samples;
}

TEST(BacklogRule, AQueueGrowingThroughTheStepFails) {
  // 1 % over capacity: every request waits 1 % of its due time longer.
  auto growing = SteadyStep([](int64_t due) { return 200000 + due / 100; });
  EXPECT_TRUE(BacklogGrew(growing, 0, 1000000000, 5000.0));
  auto flat = SteadyStep([](int64_t) { return 200000; });
  EXPECT_FALSE(BacklogGrew(flat, 0, 1000000000, 5000.0));
}

TEST(BacklogRule, AStallLateInTheStepPasses) {
  // A 30 ms stall starting 20 ms into the last tenth: the requests due
  // during it wait for its end, the ones before it do not.
  auto stalled = SteadyStep([](int64_t due) -> int64_t {
    const int64_t stall_end = 950000000;
    return due >= 920000000 && due < stall_end ? stall_end - due : 200000;
  });
  EXPECT_FALSE(BacklogGrew(stalled, 0, 1000000000, 5000.0));
}

TEST(BacklogRule, UnansweredRequestsInTheLastTenthFail) {
  auto lost = SteadyStep([](int64_t) { return 200000; });
  for (Sample& s : lost) {
    if (s.due_ns >= 850000000) s.recv_ns = 0;
  }
  EXPECT_TRUE(BacklogGrew(lost, 0, 1000000000, 5000.0));
}

TEST(CpuTime, ProcessCpuSecondsCountsEveryThread) {
  const int pid = static_cast<int>(::getpid());
  const double before = ProcessCpuSeconds(pid);
  // Another thread spins 50 ms, then sleeps; a thread's run time is
  // brought up to date when it stops running, as the server's threads do
  // between requests.
  std::thread other([] {
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
    while (std::chrono::steady_clock::now() < end) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double after = ProcessCpuSeconds(pid);
  other.join();
  EXPECT_GT(after - before, 0.04);
  EXPECT_EQ(ProcessCpuSeconds(0), 0.0);
}

TEST(CpuTime, CalibrationKernelTakesCpuTime) {
  EXPECT_GT(CalibrationCpuSeconds(), 0.0);
}

TEST(Schedule, PoissonIsSeededAndHoldsItsRate) {
  const std::vector<int64_t> a = PoissonSchedule(10000.0, 2.0, 7);
  EXPECT_EQ(a, PoissonSchedule(10000.0, 2.0, 7));
  EXPECT_NE(a, PoissonSchedule(10000.0, 2.0, 8));
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 600.0);
  for (size_t i = 1; i < a.size(); ++i) ASSERT_GE(a[i], a[i - 1]);
}

TEST(Schedule, QueryMixIsSeededWithTheStatedShares) {
  QueryMix a(1000, 50, 1.0, 3);
  QueryMix b(1000, 50, 1.0, 3);
  size_t subs = 0, covered = 0, coverk = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string line = a.Next();
    ASSERT_EQ(line, b.Next());
    ASSERT_TRUE(serve::ParseRequest(line).ok()) << line;
    if (line.rfind("subs ", 0) == 0) ++subs;
    if (line.rfind("covered ", 0) == 0) ++covered;
    if (line.rfind("coverk ", 0) == 0) ++coverk;
  }
  EXPECT_NEAR(static_cast<double>(subs) / 20000.0, 0.80, 0.02);
  EXPECT_NEAR(static_cast<double>(covered) / 20000.0, 0.15, 0.02);
  EXPECT_NEAR(static_cast<double>(coverk) / 20000.0, 0.05, 0.01);
}

// ---- fixtures shared by the check and generator tests ---------------------

class Instance : public ::testing::Test {
 protected:
  void SetUp() override {
    auto graph = prefcover::GenerateScaleTierGraph(prefcover::ScaleTier::kS, 5);
    ASSERT_TRUE(graph.ok());
    graph_ = std::make_unique<PreferenceGraph>(std::move(*graph));
  }

  prefcover::Solution Solve(size_t k) {
    prefcover::GreedyOptions options;
    options.variant = ResolveAutoVariant(*graph_);
    auto solution = prefcover::SolveGreedyLazy(*graph_, k, options);
    EXPECT_TRUE(solution.ok());
    return *solution;
  }

  std::shared_ptr<const serve::ServingIndex> Index(size_t k) {
    auto index = serve::ServingIndex::Build(*graph_, Solve(k));
    EXPECT_TRUE(index.ok());
    return std::make_shared<const serve::ServingIndex>(std::move(*index));
  }

  // The retained list as `prefcover solve --out` writes it.
  std::string RetainedCsv(const prefcover::Solution& solution) {
    std::ostringstream out;
    prefcover::CsvWriter writer(&out);
    writer.WriteRecord(
        {"rank", "item_id", "label", "weight", "cover_after_prefix"});
    for (size_t i = 0; i < solution.items.size(); ++i) {
      char weight[32], cover[32];
      std::snprintf(weight, sizeof(weight), "%.10g",
                    graph_->NodeWeight(solution.items[i]));
      std::snprintf(cover, sizeof(cover), "%.10g",
                    solution.cover_after_prefix[i]);
      writer.WriteRecord({std::to_string(i + 1),
                          std::to_string(solution.items[i]),
                          graph_->DisplayName(solution.items[i]), weight,
                          cover});
    }
    return out.str();
  }

  std::unique_ptr<PreferenceGraph> graph_;
};

// ---- output checks fail on corrupted input --------------------------------

TEST(ConstructCheck, AcceptsTheSameGraphAndRejectsAFlippedByte) {
  auto clicks = prefcover::GenerateProfileClickstream(
      prefcover::DatasetProfile::kYC, 0.0005, 11);
  ASSERT_TRUE(clicks.ok());
  const std::string csv = ::testing::TempDir() + "/perfbench_" +
                          std::to_string(::getpid()) + "_clicks.csv";
  ASSERT_TRUE(prefcover::WriteClickstreamCsvFile(*clicks, csv).ok());
  prefcover::GraphConstructionOptions options;
  auto graph = prefcover::BuildPreferenceGraphStreamingFile(csv, options);
  ASSERT_TRUE(graph.ok());
  std::ostringstream bytes;
  ASSERT_TRUE(prefcover::WriteGraphBinary(*graph, &bytes).ok());
  std::string pcg = bytes.str();

  EXPECT_TRUE(
      CheckConstructOutput(csv, prefcover::Variant::kIndependent, pcg).ok());
  pcg[pcg.size() / 2] ^= 0x20;
  EXPECT_FALSE(
      CheckConstructOutput(csv, prefcover::Variant::kIndependent, pcg).ok());
  pcg[pcg.size() / 2] ^= 0x20;
  pcg.pop_back();
  EXPECT_FALSE(
      CheckConstructOutput(csv, prefcover::Variant::kIndependent, pcg).ok());
  // The other variant builds other bytes.
  EXPECT_FALSE(CheckConstructOutput(csv, prefcover::Variant::kNormalized,
                                    bytes.str())
                   .ok());
  std::remove(csv.c_str());
}

TEST_F(Instance, SolveCheckRejectsEveryCorruption) {
  const prefcover::Solution solution = Solve(40);
  const std::string csv = RetainedCsv(solution);
  auto index = serve::ServingIndex::Build(*graph_, solution);
  ASSERT_TRUE(index.ok());
  const std::string bytes = index->Serialize();
  ASSERT_TRUE(CheckSolveOutput(*graph_, 40, csv, bytes).ok());

  // A different retained item in row 3.
  std::string swapped = RetainedCsv(solution);
  const std::string item = "\n3," + std::to_string(solution.items[2]) + ",";
  const size_t at = swapped.find(item);
  ASSERT_NE(at, std::string::npos);
  swapped.replace(at, item.size(),
                  "\n3," + std::to_string(solution.items[3]) + ",");
  EXPECT_FALSE(CheckSolveOutput(*graph_, 40, swapped, bytes).ok());

  // A cover value off in its last printed digit.
  prefcover::Solution off = solution;
  off.cover_after_prefix[5] *= 1.0 + 1e-9;
  EXPECT_FALSE(CheckSolveOutput(*graph_, 40, RetainedCsv(off), bytes).ok());

  // A row missing.
  prefcover::Solution shorter = solution;
  shorter.items.pop_back();
  shorter.cover_after_prefix.pop_back();
  EXPECT_FALSE(
      CheckSolveOutput(*graph_, 40, RetainedCsv(shorter), bytes).ok());

  // A flipped index byte, and an index for another budget.
  std::string flipped = bytes;
  flipped[flipped.size() / 3] ^= 0x01;
  EXPECT_FALSE(CheckSolveOutput(*graph_, 40, csv, flipped).ok());
  EXPECT_FALSE(CheckSolveOutput(*graph_, 40, csv,
                                Index(39)->Serialize()).ok());
}

TEST_F(Instance, AnswerCheckRejectsAWrongAnswer) {
  auto served = Index(40);
  for (const std::string query :
       {"subs 17 4", "covered 17", "coverk 30", "covered 19999"}) {
    auto request = serve::ParseRequest(query);
    ASSERT_TRUE(request.ok());
    std::string answer = serve::AnswerOnIndex(*served, *request).line;
    EXPECT_TRUE(CheckAnswer(*served, query, answer).ok()) << query;
    answer.back() = answer.back() == '1' ? '2' : '1';
    EXPECT_FALSE(CheckAnswer(*served, query, answer).ok()) << query;
  }
  // An answer from another index: item 30 of the k=40 selection is
  // retained there and not in the k=20 index.
  auto other = Index(20);
  const std::string query = "covered " + std::to_string(served->items()[30]);
  auto request = serve::ParseRequest(query);
  ASSERT_TRUE(request.ok());
  const std::string from_other = serve::AnswerOnIndex(*other, *request).line;
  EXPECT_FALSE(CheckAnswer(*served, query, from_other).ok());
}

// ---- the generator against a real in-process server -----------------------

// A `prefcover serve --port` equivalent: engine plus one session thread per
// connection, on an ephemeral loopback port.
class TestServer {
 public:
  explicit TestServer(std::shared_ptr<const serve::ServingIndex> index)
      : engine_(std::move(index)) {
    serve::IgnoreSigpipe();
    auto listener = serve::ListenTcp(0);
    EXPECT_TRUE(listener.ok());
    listener_ = *listener;
    port_ = *serve::LocalPort(listener_);
    accept_ = std::thread([this] {
      for (;;) {
        auto fd = serve::AcceptClient(listener_);
        if (!fd.ok()) return;
        sessions_.emplace_back(
            [this, conn = *fd] { serve::ServeConnectionLoop(&engine_, conn); });
      }
    });
  }

  ~TestServer() {
    ::shutdown(listener_, SHUT_RDWR);
    accept_.join();
    for (std::thread& t : sessions_) t.join();
    ::close(listener_);
  }

  TestServer(const TestServer&) = delete;
  TestServer& operator=(const TestServer&) = delete;

  uint16_t port() const { return port_; }
  serve::QueryEngine* engine() { return &engine_; }

 private:
  serve::QueryEngine engine_;
  int listener_ = -1;
  uint16_t port_ = 0;
  std::vector<std::thread> sessions_;
  std::thread accept_;
};

TEST_F(Instance, GeneratorChecksAnswersAndReloads) {
  const std::string dir = ::testing::TempDir() + "/perfbench_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  auto served = Index(40);
  ASSERT_TRUE(served->Save(dir + "/a.pcsidx").ok());
  ASSERT_TRUE(Index(20)->Save(dir + "/b.pcsidx").ok());
  TestServer server(served);

  LoadgenOptions options;
  options.port = server.port();
  options.index_path = dir + "/a.pcsidx";
  options.alt_index_path = dir + "/b.pcsidx";
  options.nominal_qps = 2000.0;
  options.nominal_windows = 2;
  options.nominal_window_s = 0.6;
  options.warmup_s = 0.0;
  options.max_steps = 2;
  options.idle_reloads = 2;
  options.check_every = 1;
  // The server runs in this process.
  options.server_pid = static_cast<int>(::getpid());
  std::string error;
  auto doc = JsonValue::Parse(RunLoadgen(options, &error));
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("failed")->number_value(), 0.0);
  EXPECT_EQ(doc->Find("reloads")->number_value(), 2.0);
  // Each reload took the server's CPU time.
  ASSERT_EQ(doc->Find("reload_cpu_s")->size(), 2u);
  EXPECT_GT(doc->Find("reload_cpu_s")->at(0).number_value(), 0.0);
  EXPECT_GE(doc->Find("steps")->size(), 2u);
  const JsonValue* checks = doc->Find("answer_checks");
  EXPECT_GT(checks->Find("checked")->number_value(), 2000.0);
  EXPECT_EQ(checks->Find("mismatches")->number_value(), 0.0);
  // After two reloads the server is back on the first index.
  EXPECT_EQ(server.engine()->index()->NumRetained(), 40u);
}

TEST_F(Instance, GeneratorChargesAServerStallToEveryRequestDueDuringIt) {
  const std::string dir = ::testing::TempDir() + "/perfbench_" +
                          std::to_string(::getpid());
  ASSERT_EQ(::system(("mkdir -p " + dir).c_str()), 0);
  auto served = Index(40);
  ASSERT_TRUE(served->Save(dir + "/a.pcsidx").ok());
  TestServer server(served);

  // The engine answers nothing for about the first 150 ms of a 1.2 s
  // phase; the margin covers a slow start of the generator.
  server.engine()->SetPaused(true);
  std::thread resume([&server] {
    std::this_thread::sleep_for(std::chrono::milliseconds(160));
    server.engine()->SetPaused(false);
  });
  LoadgenOptions options;
  options.port = server.port();
  options.index_path = dir + "/a.pcsidx";
  options.nominal_qps = 1000.0;
  options.nominal_windows = 1;
  options.nominal_window_s = 1.2;
  options.warmup_s = 0.0;
  options.max_steps = 0;
  std::string error;
  auto doc = JsonValue::Parse(RunLoadgen(options, &error));
  resume.join();
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(doc.ok());
  // About a tenth of the requests fell due inside the stall. Timed from their
  // due time, more than 1 % of all requests waited over 10 ms, so p99 does;
  // timed from the send time (or the generator's lateness) it would not.
  // The stall is in the first window, which the pooled figures drop when
  // the host's steal time disturbed it, so the test reads that window.
  const JsonValue& stalled = doc->Find("nominal")->Find("windows")->at(0);
  EXPECT_GT(stalled.Find("p99_us")->number_value(), 10000.0);
  EXPECT_LT(stalled.Find("late_p99_us")->number_value(), 10000.0);
  EXPECT_EQ(doc->Find("failed")->number_value(), 0.0);
}

}  // namespace
}  // namespace perfbench
