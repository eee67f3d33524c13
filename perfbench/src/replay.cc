#include "replay.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <system_error>
#include <thread>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "clickstream/variant_selection.h"
#include "core/greedy_solver.h"
#include "eval/runner.h"
#include "checks.h"
#include "graph/graph_io.h"
#include "loadgen.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/serving_index.h"
#include "serve/transport.h"

namespace perfbench {

using prefcover::Status;
namespace serve = prefcover::serve;

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs `call` inside a span named `span` and records its wall time as
// `metric` (seconds).
template <typename Call>
auto Timed(Measurements* m, const char* span, const std::string& metric,
           Call&& call) {
  prefcover::obs::Span trace_span(span, "perfbench");
  const double start = Now();
  auto result = call();
  (*m)[metric] = Now() - start;
  return result;
}

double FileMegabytes(const std::string& path) {
  std::error_code error;
  const auto bytes = std::filesystem::file_size(path, error);
  return error ? 0.0 : static_cast<double>(bytes) / 1e6;
}

}  // namespace

Status ReplayConstruct(const std::string& csv, const std::string& pcg_out,
                       Measurements* m) {
  auto cs = Timed(m, "clickstream.ReadClickstreamCsvFile",
                  "clickstream.parse_s",
                  [&] { return prefcover::ReadClickstreamCsvFile(csv); });
  if (!cs.ok()) return cs.status();
  const prefcover::ClickstreamStats stats = cs->ComputeStats();
  (*m)["clickstream.rows"] =
      static_cast<double>(stats.num_clicks + stats.num_purchases);
  (*m)["clickstream.sessions"] = static_cast<double>(stats.num_sessions);
  (*m)["clickstream.items"] = static_cast<double>(stats.num_items);
  const double csv_mb = FileMegabytes(csv);
  (*m)["clickstream.csv_mb"] = csv_mb;
  (*m)["clickstream.parse_mb_s"] = csv_mb / m->at("clickstream.parse_s");

  auto rec = Timed(m, "clickstream.RecommendVariant",
                   "clickstream.variant_select_s",
                   [&] { return prefcover::RecommendVariant(*cs); });
  prefcover::GraphConstructionOptions options;
  options.variant = rec.variant;
  auto graph = Timed(m, "clickstream.BuildPreferenceGraph",
                     "clickstream.build_graph_s", [&] {
                       return prefcover::BuildPreferenceGraph(*cs, options);
                     });
  if (!graph.ok()) return graph.status();
  Status st = Timed(m, "graph.WriteGraphBinaryFile", "graph.write_s", [&] {
    return prefcover::WriteGraphBinaryFile(*graph, pcg_out);
  });
  // `construct` frees the sessions when it returns. Free them here, inside
  // a span of their own, and hand the freed heap back so the cost does
  // not surface in the next call the replay times.
  Timed(m, "clickstream.release", "clickstream.release_s", [&] {
    *cs = prefcover::Clickstream();
    return malloc_trim(0);
  });
  return st;
}

Status ReplaySolve(const std::string& pcg, size_t k,
                   const std::string& index_out, Measurements* m) {
  auto graph = Timed(m, "graph.ReadGraphBinaryFile", "graph.load_s",
                     [&] { return prefcover::ReadGraphBinaryFile(pcg); });
  if (!graph.ok()) return graph.status();
  const double pcg_mb = FileMegabytes(pcg);
  (*m)["graph.nodes"] = static_cast<double>(graph->NumNodes());
  (*m)["graph.edges"] = static_cast<double>(graph->NumEdges());
  (*m)["graph.pcg_mb"] = pcg_mb;
  (*m)["graph.load_mb_s"] = pcg_mb / m->at("graph.load_s");

  prefcover::GreedyOptions options;
  options.variant = Timed(m, "graph.IsNormalizedAdmissible",
                          "graph.variant_resolve_s",
                          [&] { return ResolveAutoVariant(*graph); });
  const size_t budget = std::min(k, graph->NumNodes());
  prefcover::Rng rng(42);
  auto solution = Timed(m, "core.RunAlgorithm", "core.solve_s", [&] {
    return prefcover::RunAlgorithm(prefcover::Algorithm::kGreedyLazy, *graph,
                                   budget, options, &rng, 4);
  });
  if (!solution.ok()) return solution.status();
  const prefcover::SolverStats& stats = solution->stats;
  (*m)["core.gain_evaluations"] = static_cast<double>(stats.gain_evaluations);
  (*m)["core.heap_pops"] = static_cast<double>(stats.heap_pops);
  (*m)["core.stale_refreshes"] = static_cast<double>(stats.stale_refreshes);
  (*m)["core.seed_refills"] = static_cast<double>(stats.seed_refills);
  (*m)["core.evals_per_pick"] = static_cast<double>(stats.gain_evaluations) /
                                static_cast<double>(budget);

  auto index = Timed(m, "serve.ServingIndex::Build", "serve.index_build_s",
                     [&] { return serve::ServingIndex::Build(*graph, *solution); });
  if (!index.ok()) return index.status();
  (*m)["serve.index_mb"] = static_cast<double>(index->MemoryBytes()) / 1e6;
  return Timed(m, "serve.ServingIndex::Save", "serve.index_save_s",
               [&] { return index->Save(index_out); });
}

Status ReplayServe(const std::string& index, const std::string& first_query,
                   Measurements* m) {
  auto loaded = Timed(m, "serve.ServingIndex::Load", "serve.index_load_s",
                      [&] { return serve::ServingIndex::Load(index); });
  if (!loaded.ok()) return loaded.status();
  auto shared = std::make_shared<const serve::ServingIndex>(std::move(*loaded));
  auto request = serve::ParseRequest(first_query);
  if (!request.ok()) return request.status();
  serve::Response response =
      Timed(m, "serve.first_answer", "serve.first_answer_s", [&] {
        serve::QueryEngine engine(shared);
        return engine.SubmitAndWait(*request);
      });
  return response.status;
}

Status ProbeStreamingBuild(const std::string& csv, const std::string& variant,
                           Measurements* m) {
  auto parsed = prefcover::ParseVariant(variant);
  if (!parsed.ok()) return parsed.status();
  prefcover::GraphConstructionOptions options;
  options.variant = *parsed;
  auto graph = Timed(m, "clickstream.BuildPreferenceGraphStreamingFile",
                     "clickstream.streaming_build_s", [&] {
                       return prefcover::BuildPreferenceGraphStreamingFile(
                           csv, options);
                     });
  return graph.status();
}

Status ProbeServing(const std::string& index_path, double zipf_s,
                    uint64_t seed, Measurements* m) {
  auto loaded = serve::ServingIndex::Load(index_path);
  if (!loaded.ok()) return loaded.status();
  auto index = std::make_shared<const serve::ServingIndex>(std::move(*loaded));
  QueryMix mix(static_cast<uint32_t>(index->NumNodes()), index->NumRetained(),
               zipf_s, seed);
  std::vector<std::string> lines(200000);
  std::vector<serve::Request> requests;
  requests.reserve(lines.size());
  for (std::string& line : lines) {
    line = mix.Next();
    auto request = serve::ParseRequest(line);
    if (!request.ok()) return request.status();
    requests.push_back(std::move(*request));
  }

  {
    prefcover::obs::Span span("serve.AnswerOnIndex", "perfbench");
    size_t bytes = 0;
    const double start = Now();
    for (const serve::Request& request : requests) {
      bytes += serve::AnswerOnIndex(*index, request).line.size();
    }
    const double elapsed = Now() - start;
    if (bytes == 0) return Status::Internal("empty answers");
    (*m)["serve.answer_ns"] =
        elapsed * 1e9 / static_cast<double>(requests.size());
  }

  constexpr size_t kSerial = 2000;
  auto median_us = [](std::vector<double> rtt) {
    std::sort(rtt.begin(), rtt.end());
    return NearestRank(rtt, 0.5) * 1e6;
  };
  {
    prefcover::obs::Span span("serve.QueryEngine::SubmitAndWait", "perfbench");
    serve::QueryEngine engine(index);
    std::vector<double> rtt;
    rtt.reserve(kSerial);
    for (size_t i = 0; i < kSerial; ++i) {
      const double start = Now();
      serve::Response response = engine.SubmitAndWait(requests[i]);
      rtt.push_back(Now() - start);
      if (!response.status.ok()) return response.status;
    }
    (*m)["serve.engine_rtt_us"] = median_us(rtt);
  }
  {
    prefcover::obs::Span span("serve.tcp_closed_loop", "perfbench");
    serve::QueryEngine engine(index);
    serve::IgnoreSigpipe();
    auto listener = serve::ListenTcp(0);
    if (!listener.ok()) return listener.status();
    auto port = serve::LocalPort(*listener);
    if (!port.ok()) {
      ::close(*listener);
      return port.status();
    }
    std::thread session([&engine, fd = *listener] {
      auto conn = serve::AcceptClient(fd);
      if (conn.ok()) serve::ServeConnectionLoop(&engine, *conn);
    });
    Status st;
    auto client = serve::ConnectTcp("127.0.0.1", *port, 5000);
    std::vector<double> rtt;
    if (client.ok()) {
      std::string pending;
      char chunk[4096];
      for (size_t i = 0; i < kSerial && st.ok(); ++i) {
        const std::string line = lines[i] + "\n";
        const double start = Now();
        st = serve::WriteFully(*client, line.data(), line.size());
        while (st.ok() && pending.find('\n') == std::string::npos) {
          auto got = serve::ReadSome(*client, chunk, sizeof(chunk));
          if (!got.ok()) {
            st = got.status();
          } else if (*got == 0) {
            st = Status::IOError("server closed the connection");
          } else {
            pending.append(chunk, *got);
          }
        }
        rtt.push_back(Now() - start);
        if (st.ok()) {
          const size_t eol = pending.find('\n');
          if (pending.rfind("OK ", 0) != 0) {
            st = Status::FailedPrecondition("answer " + pending.substr(0, eol));
          }
          pending.erase(0, eol + 1);
        }
      }
      ::close(*client);
    } else {
      st = client.status();
      // Unblock the accept so the session thread can end.
      auto wake = serve::ConnectTcp("127.0.0.1", *port, 1000);
      if (wake.ok()) ::close(*wake);
    }
    session.join();
    ::close(*listener);
    if (!st.ok()) return st;
    (*m)["serve.tcp_rtt_us"] = median_us(rtt);
  }
  return Status::OK();
}

}  // namespace perfbench
