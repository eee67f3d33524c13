// perfbench_tool — the compiled half of the pipeline benchmark
// (perfbench/run.py drives it). Subcommands:
//
//   env              build and host facts, as JSON
//   spawn            run a command; record its time, exit code, peak RSS
//   calibrate        time a fixed reference kernel: the host's current speed
//   gen-graph        write the L scale-tier graph (set-up)
//   check-construct  CLI .pcg == in-process streaming construction
//   check-solve      CLI retained list and index == in-process lazy solve;
//                    also writes the index `reload` alternates to
//   check-answer     one served answer == AnswerOnIndex
//   loadgen          open-loop traffic against `prefcover serve --port`
//   replay           traced in-process replay of the verbs' calls
//
// Every subcommand but `spawn` prints one JSON document on stdout (or an
// error on stderr and exits 1).

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "bench/env_capture.h"
#include "bench/json.h"
#include "calibrate.h"
#include "checks.h"
#include "core/greedy_solver.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "replay.h"
#include "serve/serving_index.h"
#include "synth/dataset_profiles.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/fs.h"
#include "util/simd_dispatch.h"

using namespace prefcover;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Parse(FlagParser* flags, int argc, char** argv) {
  Status st = flags->Parse(argc, argv);
  if (st.IsOutOfRange()) return 2;
  return st.ok() ? 0 : Fail(st);
}

void Print(const JsonValue& doc) { std::printf("%s\n", doc.Dump().c_str()); }

JsonValue ToJson(const perfbench::Measurements& m) {
  JsonValue o = JsonValue::Object();
  for (const auto& [name, value] : m) {
    o.Set(name, JsonValue::Number(value));
  }
  return o;
}

int CmdEnv() {
  JsonValue env = EnvCapture::Capture().ToJson();
  env.Set("failpoints", JsonValue::Bool(failpoint::Enabled()));
  env.Set("simd_level",
          JsonValue::Str(std::string(SimdLevelName(ActiveSimdLevel()))));
  env.Set("nproc", JsonValue::Uint(std::thread::hardware_concurrency()));
  env.Set("version", JsonValue::Str(BuildVersionString()));
  Print(env);
  return 0;
}

// spawn RESULT CMD [ARGS...]: runs CMD as a child of this small process
// and writes {"exit_code", "seconds", "cpu_s", "rss_mb"} to RESULT once it
// exits (cpu_s: user + system time of CMD and its threads);
// exits with CMD's code. Linux keeps a process's peak RSS across fork and
// exec, so a child forked straight from the benchmark's Python driver
// reports at least the driver's own peak RSS; forked from here, the floor
// is this process's few megabytes. The child dies with this process.
int CmdSpawn(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench_tool spawn RESULT CMD [ARGS...]\n");
    return 2;
  }
  const pid_t parent = getpid();
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid < 0) return Fail(Status::IOError(std::strerror(errno)));
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == parent) execv(argv[2], argv + 2);
    _exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) return Fail(Status::IOError(std::strerror(errno)));
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  JsonValue doc = JsonValue::Object();
  doc.Set("exit_code", JsonValue::Number(static_cast<double>(code)));
  doc.Set("seconds", JsonValue::Number(seconds));
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  doc.Set("cpu_s", JsonValue::Number(tv(usage.ru_utime) + tv(usage.ru_stime)));
  doc.Set("rss_mb",
          JsonValue::Number(static_cast<double>(usage.ru_maxrss) / 1024.0));
  Status st = WriteFileAtomic(argv[1], doc.Dump());
  if (!st.ok()) return Fail(st);
  return code;
}

// calibrate: prints {"cpu_s"}, the CPU time of the reference kernel.
int CmdCalibrate() {
  JsonValue doc = JsonValue::Object();
  doc.Set("cpu_s", JsonValue::Number(perfbench::CalibrationCpuSeconds()));
  Print(doc);
  return 0;
}

int CmdGenGraph(int argc, char** argv) {
  FlagParser flags("perfbench_tool gen-graph: write the L scale-tier graph");
  flags.AddInt("seed", 1, "generator seed");
  flags.AddString("out", "", "output .pcg");
  if (int rc = Parse(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : rc;
  auto graph = GenerateScaleTierGraph(
      ScaleTier::kL, static_cast<uint64_t>(flags.GetInt("seed")));
  if (!graph.ok()) return Fail(graph.status());
  Status st = WriteGraphBinaryFile(*graph, flags.GetString("out"));
  if (!st.ok()) return Fail(st);
  JsonValue doc = JsonValue::Object();
  doc.Set("nodes", JsonValue::Uint(graph->NumNodes()));
  doc.Set("edges", JsonValue::Uint(graph->NumEdges()));
  Print(doc);
  return 0;
}

int CmdCheckConstruct(int argc, char** argv) {
  FlagParser flags("perfbench_tool check-construct");
  flags.AddString("csv", "", "clickstream CSV given to construct");
  flags.AddString("pcg", "", ".pcg construct wrote");
  flags.AddString("variant", "", "variant construct chose");
  if (int rc = Parse(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : rc;
  auto variant = ParseVariant(flags.GetString("variant"));
  if (!variant.ok()) return Fail(variant.status());
  auto pcg = ReadFileToString(flags.GetString("pcg"));
  if (!pcg.ok()) return Fail(pcg.status());
  Status st =
      perfbench::CheckConstructOutput(flags.GetString("csv"), *variant, *pcg);
  if (!st.ok()) return Fail(st);
  Print(JsonValue::Object().Set("ok", JsonValue::Bool(true)));
  return 0;
}

int CmdCheckSolve(int argc, char** argv) {
  FlagParser flags("perfbench_tool check-solve");
  flags.AddString("pcg", "", "graph given to solve");
  flags.AddInt("k", 1, "budget given to solve");
  flags.AddString("retained", "", "CSV solve wrote with --out");
  flags.AddString("index", "", "index solve wrote with --index_out");
  flags.AddInt("alt_k", 0, "budget of the second index (0 = none)");
  flags.AddString("alt_index_out", "", "where to write the second index");
  if (int rc = Parse(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : rc;
  auto graph = ReadGraphBinaryFile(flags.GetString("pcg"));
  if (!graph.ok()) return Fail(graph.status());
  auto retained = ReadFileToString(flags.GetString("retained"));
  if (!retained.ok()) return Fail(retained.status());
  auto index = ReadFileToString(flags.GetString("index"));
  if (!index.ok()) return Fail(index.status());
  // The second index is built the way the check below compares with the
  // CLI's output, from the graph already loaded: one load fewer than a
  // second `prefcover solve`. It is written first, so that a failed check
  // still leaves the run its reload target.
  if (const int64_t alt_k = flags.GetInt("alt_k"); alt_k > 0) {
    GreedyOptions options;
    options.variant = perfbench::ResolveAutoVariant(*graph);
    auto solution = SolveGreedyLazy(
        *graph, std::min(static_cast<size_t>(alt_k), graph->NumNodes()),
        options);
    if (!solution.ok()) return Fail(solution.status());
    auto alt = serve::ServingIndex::Build(*graph, *solution);
    if (!alt.ok()) return Fail(alt.status());
    Status st = alt->Save(flags.GetString("alt_index_out"));
    if (!st.ok()) return Fail(st);
  }
  Status st = perfbench::CheckSolveOutput(
      *graph, static_cast<size_t>(flags.GetInt("k")), *retained, *index);
  if (!st.ok()) return Fail(st);
  Print(JsonValue::Object().Set("ok", JsonValue::Bool(true)));
  return 0;
}

int CmdCheckAnswer(int argc, char** argv) {
  FlagParser flags("perfbench_tool check-answer");
  flags.AddString("index", "", "index the server was started on");
  flags.AddString("query", "", "request line");
  flags.AddString("answer", "", "answer line the server gave");
  if (int rc = Parse(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : rc;
  auto index = serve::ServingIndex::Load(flags.GetString("index"));
  if (!index.ok()) return Fail(index.status());
  Status st = perfbench::CheckAnswer(*index, flags.GetString("query"),
                                     flags.GetString("answer"));
  if (!st.ok()) return Fail(st);
  Print(JsonValue::Object().Set("ok", JsonValue::Bool(true)));
  return 0;
}

int CmdLoadgen(int argc, char** argv) {
  FlagParser flags("perfbench_tool loadgen: open-loop TCP traffic");
  flags.AddInt("port", 0, "server port on 127.0.0.1");
  flags.AddString("index", "", "index the server starts on");
  flags.AddString("alt_index", "", "reload target (empty = no reloads)");
  flags.AddDouble("zipf_s", 1.0, "id skew; 0 = uniform");
  flags.AddInt("seed", 1, "schedule and query seed");
  const perfbench::LoadgenOptions defaults;
  flags.AddInt("nominal_windows",
               static_cast<int64_t>(defaults.nominal_windows),
               "windows of the nominal phase");
  flags.AddDouble("nominal_window_s", 1.0, "length of one nominal window");
  flags.AddDouble("step_s", 0.75, "length of one search step");
  flags.AddInt("max_steps", 12, "search steps (0 = no search)");
  flags.AddInt("server_pid", 0, "server process whose CPU time a reload takes");
  if (int rc = Parse(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : rc;
  perfbench::LoadgenOptions options;
  options.port = static_cast<uint16_t>(flags.GetInt("port"));
  options.index_path = flags.GetString("index");
  options.alt_index_path = flags.GetString("alt_index");
  options.zipf_s = flags.GetDouble("zipf_s");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.nominal_windows =
      static_cast<size_t>(flags.GetInt("nominal_windows"));
  options.nominal_window_s = flags.GetDouble("nominal_window_s");
  options.step_s = flags.GetDouble("step_s");
  options.max_steps = static_cast<size_t>(flags.GetInt("max_steps"));
  options.server_pid = static_cast<int>(flags.GetInt("server_pid"));
  std::string error;
  const std::string doc = perfbench::RunLoadgen(options, &error);
  if (!error.empty()) return Fail(Status::Internal(error));
  std::printf("%s\n", doc.c_str());
  return 0;
}

int CmdReplay(int argc, char** argv) {
  FlagParser flags(
      "perfbench_tool replay: the verbs' library calls, timed and traced");
  flags.AddString("csv", "", "clickstream CSV (replays construct first)");
  flags.AddString("pcg", "", "graph to solve when --csv is empty");
  flags.AddString("variant", "", "variant construct chose (streaming probe)");
  flags.AddInt("k", 1, "solve budget");
  flags.AddString("work", "", "directory for the replay's own outputs");
  flags.AddString("first_query", "covered 0", "the serve verb's first query");
  flags.AddDouble("zipf_s", 1.0, "query skew of the serving probes");
  flags.AddInt("seed", 1, "query seed of the serving probes");
  flags.AddString("trace_out", "", "Chrome trace of the traced pass");
  if (int rc = Parse(&flags, argc, argv); rc != 0) return rc == 2 ? 0 : rc;
  const std::string& csv = flags.GetString("csv");
  const std::string work = flags.GetString("work") + "/";
  const size_t k = static_cast<size_t>(flags.GetInt("k"));

  // The verbs' call sequence, end to end: construct (when the workload
  // starts from a CSV), solve, serve's first answer.
  auto pipeline = [&](perfbench::Measurements* m) -> Status {
    const auto start = std::chrono::steady_clock::now();
    std::string pcg = flags.GetString("pcg");
    if (!csv.empty()) {
      pcg = work + "replay.pcg";
      PREFCOVER_RETURN_NOT_OK(perfbench::ReplayConstruct(csv, pcg, m));
    }
    const std::string index = work + "replay.pcsidx";
    PREFCOVER_RETURN_NOT_OK(perfbench::ReplaySolve(pcg, k, index, m));
    PREFCOVER_RETURN_NOT_OK(
        perfbench::ReplayServe(index, flags.GetString("first_query"), m));
    (*m)["pipeline_s"] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    return Status::OK();
  };

  // Untraced first, then the same sequence with tracing on: the ratio of
  // the two is the tracing overhead.
  perfbench::Measurements untraced;
  Status st = pipeline(&untraced);
  if (!st.ok()) return Fail(st);
  // The streaming probe runs first: its per-session spans overflow the
  // trace ring, and later spans overwrite the oldest ones, so what runs
  // after it keeps every span.
  obs::Tracing::Start();
  perfbench::Measurements traced;
  if (!csv.empty()) {
    st = perfbench::ProbeStreamingBuild(csv, flags.GetString("variant"),
                                        &traced);
  }
  if (st.ok()) st = pipeline(&traced);
  if (st.ok()) {
    st = perfbench::ProbeServing(work + "replay.pcsidx",
                                 flags.GetDouble("zipf_s"),
                                 static_cast<uint64_t>(flags.GetInt("seed")),
                                 &traced);
  }
  obs::Tracing::Stop();
  if (!st.ok()) return Fail(st);
  std::ostringstream trace;
  obs::ChromeTraceSink sink(&trace);
  obs::Tracing::Flush(&sink);
  st = WriteFileAtomic(flags.GetString("trace_out"), trace.str());
  if (!st.ok()) return Fail(st);

  JsonValue doc = JsonValue::Object();
  doc.Set("untraced", ToJson(untraced));
  doc.Set("traced", ToJson(traced));
  doc.Set("dropped_events", JsonValue::Uint(obs::Tracing::DroppedEvents()));
  Print(doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool <subcommand> [flags]\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "env") return CmdEnv();
  if (command == "spawn") return CmdSpawn(argc - 1, argv + 1);
  if (command == "calibrate") return CmdCalibrate();
  if (command == "gen-graph") return CmdGenGraph(argc - 1, argv + 1);
  if (command == "check-construct") return CmdCheckConstruct(argc - 1, argv + 1);
  if (command == "check-solve") return CmdCheckSolve(argc - 1, argv + 1);
  if (command == "check-answer") return CmdCheckAnswer(argc - 1, argv + 1);
  if (command == "loadgen") return CmdLoadgen(argc - 1, argv + 1);
  if (command == "replay") return CmdReplay(argc - 1, argv + 1);
  std::fprintf(stderr, "unknown subcommand '%s'\n", command.c_str());
  return 2;
}
