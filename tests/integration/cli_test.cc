// End-to-end tests of the `prefcover` CLI binary: each subcommand is run
// as a real subprocess against temp files, exactly as a user would.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/variant_selection.h"
#include "graph/graph_io.h"
#include "serve/transport.h"
#include "support/temp_dir.h"
#include "synth/catalog.h"
#include "synth/preference_model.h"
#include "synth/session_generator.h"
#include "util/random.h"

#ifndef PREFCOVER_CLI_PATH
#error "PREFCOVER_CLI_PATH must be defined by the build"
#endif

namespace prefcover {
namespace {

std::string CliPath() { return PREFCOVER_CLI_PATH; }

std::string TempPath(const std::string& name) {
  return testing_support::UniqueTempPath(name);
}

// Runs a command line, returns its exit code.
int RunCli(const std::string& command_line) {
  int rc = std::system((command_line + " > /dev/null 2>&1").c_str());
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

bool FileNonEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::ate);
  return in.good() && in.tellg() > 0;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// Runs a command line, captures its stdout and stderr into `*output` and
// returns its exit code.
int RunCliCapture(const std::string& command_line, std::string* output) {
  const std::string captured = TempPath("captured.txt");
  int rc = std::system((command_line + " > " + captured + " 2>&1").c_str());
  *output = Slurp(captured);
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

class CliPipelineTest : public ::testing::Test {
 protected:
  // The full generate -> construct chain shared by several tests.
  void SetUpPipeline() {
    clicks_ = TempPath("clicks.csv");
    graph_ = TempPath("graph.pcg");
    ASSERT_EQ(RunCli(CliPath() + " generate --profile=YC --scale=0.004 --out=" +
                  clicks_),
              0);
    ASSERT_TRUE(FileNonEmpty(clicks_));
    ASSERT_EQ(RunCli(CliPath() + " construct --input=" + clicks_ +
                  " --out=" + graph_),
              0);
    ASSERT_TRUE(FileNonEmpty(graph_));
  }

  std::string clicks_, graph_;
};

TEST_F(CliPipelineTest, GenerateConstructStatsSolveThresholdExport) {
  SetUpPipeline();
  EXPECT_EQ(RunCli(CliPath() + " stats --graph=" + graph_), 0);

  std::string retained = TempPath("retained.csv");
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                " --k=20 --out=" + retained),
            0);
  ASSERT_TRUE(FileNonEmpty(retained));
  // The solution CSV has a header plus 20 rows.
  std::ifstream in(retained);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 21);

  EXPECT_EQ(RunCli(CliPath() + " threshold --graph=" + graph_ +
                " --coverage=0.5"),
            0);

  std::string nodes = TempPath("nodes.csv"), edges = TempPath("edges.csv");
  EXPECT_EQ(RunCli(CliPath() + " export --graph=" + graph_ + " --nodes=" +
                nodes + " --edges=" + edges),
            0);
  EXPECT_TRUE(FileNonEmpty(nodes));
  EXPECT_TRUE(FileNonEmpty(edges));
}

TEST_F(CliPipelineTest, SolveWithEachAlgorithm) {
  SetUpPipeline();
  for (const char* algorithm :
       {"greedy", "lazy", "parallel", "topk-w", "topk-c", "random"}) {
    EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ + " --k=10" +
                  " --algorithm=" + algorithm),
              0)
        << algorithm;
  }
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ +
                " --k=10 --algorithm=bogus"),
            0);
  // The batched-CELF execution is gone; its name is an unknown algorithm.
  std::string output;
  EXPECT_NE(RunCliCapture(CliPath() + " solve --graph=" + graph_ +
                              " --k=10 --algorithm=lazy-parallel",
                          &output),
            0);
  EXPECT_NE(output.find("unknown algorithm lazy-parallel"), std::string::npos)
      << output;
}

TEST_F(CliPipelineTest, SolveRejectsThreadsOutsideRange) {
  SetUpPipeline();
  // Each worker is an OS thread: a negative count must not wrap to
  // SIZE_MAX, and a huge one must not start that many threads.
  for (const char* threads : {"-1", "0", "257"}) {
    std::string output;
    EXPECT_NE(RunCliCapture(CliPath() + " solve --graph=" + graph_ +
                                " --k=10 --algorithm=parallel --threads=" +
                                threads,
                            &output),
              0)
        << threads;
    EXPECT_NE(output.find("error: InvalidArgument: --threads must be in "
                          "[1, 256], got " +
                          std::string(threads)),
              std::string::npos)
        << output;
  }
  // The bounds themselves are accepted (lazy builds no pool, so the upper
  // one starts no threads).
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --algorithm=parallel --threads=1"),
            0);
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --algorithm=lazy --threads=256"),
            0);
}

TEST(CliTest, NoArgumentsShowsUsageAndFails) {
  EXPECT_NE(RunCli(CliPath()), 0);
}

TEST(CliTest, HelpSucceeds) {
  EXPECT_EQ(RunCli(CliPath() + " --help"), 0);
  EXPECT_EQ(RunCli(CliPath() + " solve --help"), 0);
}

TEST(CliTest, UnknownCommandFails) {
  EXPECT_NE(RunCli(CliPath() + " frobnicate"), 0);
}

TEST(CliTest, MissingInputFileFails) {
  EXPECT_NE(RunCli(CliPath() + " stats --graph=/no/such/file.pcg"), 0);
  EXPECT_NE(RunCli(CliPath() + " construct --input=/no/such/clicks.csv"), 0);
}

TEST(CliTest, BadFlagFails) {
  EXPECT_NE(RunCli(CliPath() + " generate --bogus-flag=1"), 0);
}

// `construct` is byte-for-byte the reference path: the .pcg equals
// BuildPreferenceGraph(ReadClickstreamCsvFile(..)), and under auto the
// `variant selection:` line prints RecommendVariant of the same sessions.
TEST_F(CliPipelineTest, ConstructMatchesReferenceBytes) {
  SetUpPipeline();
  // A dwell-bearing stream next to the generated YC one (no dwell column).
  const std::string dwell_clicks = TempPath("dwell_clicks.csv");
  {
    Rng rng(3);
    CatalogParams catalog_params;
    catalog_params.num_items = 120;
    catalog_params.num_categories = 8;
    auto catalog = Catalog::Generate(catalog_params, &rng);
    ASSERT_TRUE(catalog.ok());
    auto model =
        PreferenceModel::Build(&*catalog, PreferenceModelParams(), &rng);
    ASSERT_TRUE(model.ok());
    SessionGeneratorParams session_params;
    session_params.num_sessions = 3000;
    session_params.browse_only_share = 0.5;
    session_params.noise_clicks_mean = 1.0;
    session_params.emit_dwell_times = true;
    auto sessions = GenerateSessions(*model, session_params, &rng);
    ASSERT_TRUE(sessions.ok());
    ASSERT_TRUE(WriteClickstreamCsvFile(*sessions, dwell_clicks).ok());
  }
  ASSERT_NE(Slurp(dwell_clicks).find("dwell_seconds"), std::string::npos);

  for (const std::string& clicks : {clicks_, dwell_clicks}) {
    auto reference = ReadClickstreamCsvFile(clicks);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const VariantRecommendation recommendation =
        RecommendVariant(*reference);
    for (const std::string variant : {"auto", "independent", "normalized"}) {
      SCOPED_TRACE(clicks + " --variant=" + variant);
      const std::string pcg = TempPath("reference_check.pcg");
      std::string output;
      ASSERT_EQ(RunCliCapture(CliPath() + " construct --input=" + clicks +
                                  " --variant=" + variant + " --out=" + pcg,
                              &output),
                0)
          << output;

      GraphConstructionOptions options;
      if (variant == "auto") {
        options.variant = recommendation.variant;
        EXPECT_NE(output.find("variant selection: " +
                              recommendation.ToString() + "\n"),
                  std::string::npos)
            << output;
      } else {
        options.variant = *ParseVariant(variant);
        EXPECT_EQ(output.find("variant selection:"), std::string::npos);
      }
      EXPECT_NE(output.find("(variant hint: " +
                            std::string(VariantName(options.variant)) + ")"),
                std::string::npos)
          << output;
      auto graph = BuildPreferenceGraph(*reference, options);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      std::ostringstream expected;
      ASSERT_TRUE(WriteGraphBinary(*graph, &expected).ok());
      EXPECT_TRUE(Slurp(pcg) == expected.str());
    }
  }
}

// `solve --clicks` with the default --variant=auto solves with the variant
// the sessions selected. Here half of item a's purchase sessions click two
// alternatives and half click none: the sessions select Independent (50%
// of them have at most one alternative), yet the Independent graph's
// out-sums are at most 1, so a choice from the graph alone would read
// Normalized.
TEST(CliTest, SolveFromClicksUsesSelectedVariant) {
  const std::string clicks = TempPath("split_sessions.csv");
  {
    std::ofstream out(clicks, std::ios::binary);
    out << "session_id,event_type,item_id\n";
    for (int s = 1; s <= 10; ++s) {
      if (s <= 5) out << s << ",click,b\n" << s << ",click,c\n";
      out << s << ",purchase,a\n";
    }
  }
  std::string output;
  ASSERT_EQ(RunCliCapture(CliPath() + " solve --clicks=" + clicks + " --k=1",
                          &output),
            0)
      << output;
  EXPECT_NE(output.find("variant selection: variant=independent "),
            std::string::npos)
      << output;
  EXPECT_NE(output.find("(independent variant)"), std::string::npos)
      << output;
}

// Every rejection of the reference reader surfaces through `construct` as
// InvalidArgument, ungrouped input included.
TEST(CliTest, ConstructRejectsMalformedClickstreams) {
  const std::vector<std::string> malformed = {
      "not,a,clickstream\n1,click,a\n",
      "session_id,event_type,item_id\n1,click\n",
      "session_id,event_type,item_id\n1,view,itemA\n",
      "session_id,event_type,item_id\n1,click,a\n1,purchase,a\n"
      "1,purchase,b\n",
      "session_id,event_type,item_id,dwell_seconds\n"
      "1,click,a,not_a_number\n1,purchase,a,\n",
      "session_id,event_type,item_id\n1,click,a\n1,purchase,b\n"
      "2,purchase,a\n1,click,c\n",
  };
  for (const std::string& text : malformed) {
    SCOPED_TRACE(text);
    const std::string clicks = TempPath("malformed.csv");
    {
      std::ofstream out(clicks, std::ios::binary);
      out << text;
    }
    std::string output;
    EXPECT_EQ(RunCliCapture(CliPath() + " construct --input=" + clicks +
                                " --out=" + TempPath("malformed.pcg"),
                            &output),
              1);
    EXPECT_NE(output.find("error: InvalidArgument"), std::string::npos)
        << output;
  }
}

// `construct` traces one span per stage and counts what it scanned.
TEST_F(CliPipelineTest, ConstructWritesTraceAndMetrics) {
  SetUpPipeline();
  const std::string trace = TempPath("construct_trace.json");
  const std::string metrics = TempPath("construct_metrics.json");
  ASSERT_EQ(RunCli(CliPath() + " construct --input=" + clicks_ +
                   " --out=" + TempPath("traced.pcg") +
                   " --trace_out=" + trace + " --metrics_out=" + metrics),
            0);
  const std::string trace_text = Slurp(trace);
  for (const char* span : {"clickstream.scan", "clickstream.variant_select",
                           "clickstream.build", "graph.write"}) {
    EXPECT_NE(trace_text.find(std::string("\"") + span + "\""),
              std::string::npos)
        << span;
  }
  EXPECT_EQ(trace_text.find("clickstream.flush"), std::string::npos);
  const std::string metrics_text = Slurp(metrics);
  for (const char* counter : {"clickstream.rows", "clickstream.sessions",
                              "clickstream.purchases", "clickstream.bytes"}) {
    EXPECT_NE(metrics_text.find(std::string("\"") + counter + "\""),
              std::string::npos)
        << counter;
  }
}

TEST_F(CliPipelineTest, GenerateThresholdExportWriteTraceAndMetrics) {
  SetUpPipeline();
  // Without the flags, generate's stdout is the output path, then the
  // clickstream stats that scripts parse from the second line on; no
  // export lines.
  std::string plain;
  const std::string plain_csv = TempPath("plain.csv");
  ASSERT_EQ(RunCliCapture(CliPath() + " generate --profile=YC --scale=0.002" +
                              " --out=" + plain_csv + " 2>/dev/null",
                          &plain),
            0);
  EXPECT_EQ(plain.rfind("wrote " + plain_csv + "\n", 0), 0u) << plain;
  EXPECT_EQ(plain.find("wrote ", 1), std::string::npos) << plain;
  EXPECT_EQ(plain.find("\nsessions="), plain.find('\n')) << plain;

  struct Verb {
    std::string args;
    std::vector<const char*> spans;
  };
  const std::vector<Verb> verbs = {
      {"generate --profile=YC --scale=0.002 --out=" + TempPath("traced.csv"),
       {"synth.generate", "clickstream.write"}},
      {"threshold --graph=" + graph_ + " --coverage=0.5",
       {"graph.read", "solver.solve"}},
      {"export --graph=" + graph_ + " --nodes=" + TempPath("n.csv") +
           " --edges=" + TempPath("e.csv"),
       {"graph.read", "graph.write_csv"}},
  };
  for (size_t i = 0; i < verbs.size(); ++i) {
    const std::string trace = TempPath("verb_trace" + std::to_string(i));
    const std::string metrics = TempPath("verb_metrics" + std::to_string(i));
    std::string out;
    ASSERT_EQ(RunCliCapture(CliPath() + " " + verbs[i].args +
                                " --trace_out=" + trace +
                                " --metrics_out=" + metrics,
                            &out),
              0)
        << verbs[i].args << "\n" << out;
    const std::string trace_text = Slurp(trace);
    for (const char* span : verbs[i].spans) {
      EXPECT_NE(trace_text.find(std::string("\"") + span + "\""),
                std::string::npos)
          << verbs[i].args << ": " << span;
    }
    EXPECT_TRUE(FileNonEmpty(metrics)) << verbs[i].args;
  }
}

TEST_F(CliPipelineTest, SolveWithReportAndConstraints) {
  SetUpPipeline();
  std::string coverage = TempPath("coverage.csv");
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --report --force-include=5"
                   " --force-exclude=6,7 --coverage-out=" + coverage),
            0);
  EXPECT_TRUE(FileNonEmpty(coverage));
  // Constraints reject non-greedy algorithms.
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --algorithm=topk-w --force-include=5"),
            0);
  // Conflicting constraints fail.
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=10 --force-include=5 --force-exclude=5"),
            0);
}

TEST_F(CliPipelineTest, SolveWritesTraceAndMetrics) {
  SetUpPipeline();
  std::string trace = TempPath("trace.json");
  std::string metrics = TempPath("metrics.json");
  ASSERT_EQ(RunCli(CliPath() + " solve --clicks=" + clicks_ +
                   " --variant=independent --k=10 --algorithm=parallel"
                   " --threads=2 --trace_out=" + trace +
                   " --metrics_out=" + metrics),
            0);
  ASSERT_TRUE(FileNonEmpty(trace));
  ASSERT_TRUE(FileNonEmpty(metrics));

  std::ostringstream trace_text;
  {
    std::ifstream in(trace);
    trace_text << in.rdbuf();
  }
  // Chrome trace-event envelope plus spans from several subsystems.
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("solver.solve"), std::string::npos);
  EXPECT_NE(trace_text.str().find("clickstream.build"), std::string::npos);
  EXPECT_NE(trace_text.str().find("eval.run_algorithm"), std::string::npos);

  std::ostringstream metrics_text;
  {
    std::ifstream in(metrics);
    metrics_text << in.rdbuf();
  }
  EXPECT_NE(metrics_text.str().find("\"schema_version\""),
            std::string::npos);
  EXPECT_NE(metrics_text.str().find("solver.gain_evaluations"),
            std::string::npos);
}

// Runs a command line feeding `input` on stdin; captures stdout into
// `stdout_out` and returns the exit code.
int RunCliWithStdin(const std::string& command_line, const std::string& input,
                    std::string* stdout_out) {
  std::string in_path = TempPath("stdin.txt");
  std::string out_path = TempPath("stdout.txt");
  {
    std::ofstream out(in_path);
    out << input;
  }
  int rc = std::system((command_line + " < " + in_path + " > " + out_path +
                        " 2> /dev/null")
                           .c_str());
  std::ostringstream captured;
  std::ifstream in(out_path);
  captured << in.rdbuf();
  *stdout_out = captured.str();
  return rc == -1 ? -1 : WEXITSTATUS(rc);
}

TEST(CliTest, VersionPrintsProvenance) {
  std::string out;
  ASSERT_EQ(RunCliWithStdin(CliPath() + " version", "", &out), 0);
  EXPECT_EQ(out.substr(0, 10), "prefcover ");
  EXPECT_NE(out.find("git: "), std::string::npos);
  EXPECT_NE(out.find("build: "), std::string::npos);
  // --version is an alias.
  EXPECT_EQ(RunCli(CliPath() + " --version"), 0);
}

TEST_F(CliPipelineTest, SolveClampsOversizedBudget) {
  SetUpPipeline();
  // k beyond the catalog clamps with a warning instead of failing ...
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ + " --k=1000000"),
            0);
  // ... but a non-positive k is a usage error.
  EXPECT_NE(RunCli(CliPath() + " solve --graph=" + graph_ + " --k=0"), 0);
}

TEST_F(CliPipelineTest, SolveEmitsLoadableServingIndex) {
  SetUpPipeline();
  std::string index = TempPath("index.pcsidx");
  ASSERT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=15 --index_out=" + index),
            0);
  ASSERT_TRUE(FileNonEmpty(index));

  // The emitted artifact serves a full stdin session end to end.
  std::string out;
  ASSERT_EQ(RunCliWithStdin(CliPath() + " serve --index=" + index,
                            "covered 0\n"
                            "subs 0 4\n"
                            "coverk 15\n"
                            "batch 0 1 2\n"
                            "stats\n"
                            "bogus request\n"
                            "quit\n",
                            &out),
            0);
  EXPECT_NE(out.find("OK covered "), std::string::npos);
  EXPECT_NE(out.find("OK subs "), std::string::npos);
  EXPECT_NE(out.find("OK coverk "), std::string::npos);
  EXPECT_NE(out.find("OK batch 3 "), std::string::npos);
  EXPECT_NE(out.find("OK stats requests="), std::string::npos);
  EXPECT_NE(out.find("ERR InvalidArgument"), std::string::npos);
  EXPECT_NE(out.find("OK bye"), std::string::npos);

  // Serving a corrupt artifact fails at startup.
  std::string corrupt = TempPath("corrupt.pcsidx");
  {
    std::ifstream src(index, std::ios::binary);
    std::ostringstream bytes;
    bytes << src.rdbuf();
    std::string mutated = bytes.str();
    mutated[mutated.size() / 2] =
        static_cast<char>(mutated[mutated.size() / 2] ^ 0x20);
    std::ofstream dst(corrupt, std::ios::binary);
    dst << mutated;
  }
  EXPECT_NE(RunCli(CliPath() + " serve --index=" + corrupt), 0);
}

TEST_F(CliPipelineTest, ServeExposesLiveMetricsAndSnapshotDump) {
  SetUpPipeline();
  std::string index = TempPath("metrics_index.pcsidx");
  ASSERT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=15 --index_out=" + index),
            0);

  // The `metrics` verb renders a Prometheus text exposition in-band,
  // framed by the `# EOF` marker; --metrics_out dumps the registry
  // snapshot as JSON on clean shutdown.
  std::string snapshot = TempPath("serve_metrics.json");
  std::string out;
  ASSERT_EQ(RunCliWithStdin(CliPath() + " serve --index=" + index +
                                " --metrics_out=" + snapshot,
                            "covered 0\n"
                            "covered 1\n"
                            "metrics\n"
                            "quit\n",
                            &out),
            0);
  EXPECT_NE(out.find("# TYPE serve_requests counter"), std::string::npos);
  EXPECT_NE(out.find("serve_requests 2"), std::string::npos);
  EXPECT_NE(out.find("# TYPE serve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(out.find("# EOF"), std::string::npos);
  EXPECT_NE(out.find("OK bye"), std::string::npos);

  ASSERT_TRUE(FileNonEmpty(snapshot));
  std::ostringstream snapshot_text;
  {
    std::ifstream in(snapshot);
    snapshot_text << in.rdbuf();
  }
  EXPECT_NE(snapshot_text.str().find("\"serve.requests\""),
            std::string::npos);
  EXPECT_NE(snapshot_text.str().find("\"serve.latency_us\""),
            std::string::npos);
}

// Forks `prefcover serve --port=<port>` on a port the kernel just handed
// out (serve's --port=0 means stdin), with stderr on a pipe, and waits
// for its "listening on" line. Returns the pid (or -1), sets *port and
// hands over the pipe's read end in *stderr_fd.
pid_t SpawnTcpServer(const std::string& index, uint16_t* port,
                     int* stderr_fd) {
  auto probe = serve::ListenTcp(0);
  if (!probe.ok()) return -1;
  auto free_port = serve::LocalPort(*probe);
  ::close(*probe);
  if (!free_port.ok()) return -1;
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) return -1;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return -1;
  }
  if (pid == 0) {
    ::close(pipe_fds[0]);
    ::dup2(::open("/dev/null", O_RDONLY), STDIN_FILENO);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    ::close(pipe_fds[1]);
    const std::string index_flag = "--index=" + index;
    const std::string port_flag = "--port=" + std::to_string(*free_port);
    const std::string cli = CliPath();
    ::execl(cli.c_str(), cli.c_str(), "serve", index_flag.c_str(),
            port_flag.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  std::string text;
  const std::string prefix = "listening on 127.0.0.1:";
  char ch;
  while (::read(pipe_fds[0], &ch, 1) == 1) {
    text.push_back(ch);
    const size_t at = text.find(prefix);
    if (ch == '\n' && at != std::string::npos) {
      *port = static_cast<uint16_t>(
          std::atoi(text.c_str() + at + prefix.size()));
      break;
    }
  }
  *stderr_fd = pipe_fds[0];
  return pid;
}

TEST_F(CliPipelineTest, ShutdownEndsServerWithAnIdleClientConnected) {
  SetUpPipeline();
  const std::string index = TempPath("shutdown_index.pcsidx");
  ASSERT_EQ(RunCli(CliPath() + " solve --graph=" + graph_ +
                   " --k=15 --index_out=" + index),
            0);
  serve::IgnoreSigpipe();
  uint16_t port = 0;
  int stderr_fd = -1;
  const pid_t pid = SpawnTcpServer(index, &port, &stderr_fd);
  ASSERT_GT(pid, 0);
  ASSERT_GT(port, 0);

  auto exchange = [](int fd, const std::string& line) {
    std::string reply;
    if (!serve::WriteFully(fd, line.data(), line.size()).ok()) return reply;
    char chunk[256];
    while (reply.find('\n') == std::string::npos) {
      auto got = serve::ReadSome(fd, chunk, sizeof(chunk));
      if (!got.ok() || *got == 0) break;
      reply.append(chunk, *got);
    }
    return reply;
  };
  // One answered request, so the idle client's session is surely blocked
  // reading its next line when the shutdown arrives.
  auto idle = serve::ConnectTcp("127.0.0.1", port, 2000);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(exchange(*idle, "covered 0\n").rfind("OK covered ", 0), 0u);
  auto control = serve::ConnectTcp("127.0.0.1", port, 2000);
  ASSERT_TRUE(control.ok());
  EXPECT_EQ(exchange(*control, "shutdown\n"), "OK bye\n");

  int status = 0;
  bool exited = false;
  for (int i = 0; i < 500 && !exited; ++i) {
    exited = ::waitpid(pid, &status, WNOHANG) == pid;
    if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!exited) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  EXPECT_TRUE(exited) << "server still running 5 s after `shutdown` while "
                         "an idle client stayed connected";
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  // The idle client sees the server close its connection.
  char byte;
  auto got = serve::ReadSome(*idle, &byte, 1);
  EXPECT_TRUE(!got.ok() || *got == 0);
  ::close(*idle);
  ::close(*control);
  ::close(stderr_fd);
}

TEST(CliTest, ConstructWithExplicitVariant) {
  std::string clicks = TempPath("pm_clicks.csv");
  std::string graph = TempPath("pm_graph.pcg");
  ASSERT_EQ(RunCli(CliPath() + " generate --profile=PM --scale=0.002 --out=" +
                clicks),
            0);
  EXPECT_EQ(RunCli(CliPath() + " construct --input=" + clicks +
                " --variant=normalized --out=" + graph),
            0);
  EXPECT_EQ(RunCli(CliPath() + " solve --graph=" + graph +
                " --k=20 --variant=normalized"),
            0);
}

}  // namespace
}  // namespace prefcover
