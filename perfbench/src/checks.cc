#include "checks.h"

#include <cstdio>
#include <sstream>

#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "core/greedy_solver.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "serve/protocol.h"
#include "util/csv.h"

namespace perfbench {

using prefcover::PreferenceGraph;
using prefcover::Status;

prefcover::Variant ResolveAutoVariant(const PreferenceGraph& graph) {
  return prefcover::IsNormalizedAdmissible(graph)
             ? prefcover::Variant::kNormalized
             : prefcover::Variant::kIndependent;
}

namespace {

// Offset of the first differing byte, or the shorter length.
size_t FirstDifference(std::string_view a, std::string_view b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

Status BytesEqual(const char* what, std::string_view expected,
                  std::string_view actual) {
  if (expected == actual) return Status::OK();
  return Status::FailedPrecondition(
      std::string(what) + " differs at byte " +
      std::to_string(FirstDifference(expected, actual)) + " (expected " +
      std::to_string(expected.size()) + " bytes, got " +
      std::to_string(actual.size()) + ")");
}

}  // namespace

Status CheckConstructOutput(const std::string& csv_path,
                            prefcover::Variant variant,
                            std::string_view cli_pcg) {
  prefcover::GraphConstructionOptions options;
  options.variant = variant;
  auto graph = prefcover::BuildPreferenceGraphStreamingFile(csv_path, options);
  if (!graph.ok()) return graph.status();
  std::ostringstream expected;
  PREFCOVER_RETURN_NOT_OK(prefcover::WriteGraphBinary(*graph, &expected));
  return BytesEqual("construct .pcg", expected.str(), cli_pcg);
}

Status CheckSolveOutput(const PreferenceGraph& graph, size_t k,
                        std::string_view retained_csv,
                        std::string_view cli_index) {
  prefcover::GreedyOptions options;
  options.variant = ResolveAutoVariant(graph);
  auto solution = prefcover::SolveGreedyLazy(
      graph, std::min(k, graph.NumNodes()), options);
  if (!solution.ok()) return solution.status();

  std::istringstream csv{std::string(retained_csv)};
  prefcover::CsvReader reader(&csv);
  std::vector<std::string> fields;
  if (!reader.Next(&fields) || fields.size() < 5 || fields[1] != "item_id") {
    return Status::FailedPrecondition("retained CSV has no header");
  }
  size_t rows = 0;
  while (reader.Next(&fields)) {
    if (rows >= solution->items.size() || fields.size() < 5) {
      return Status::FailedPrecondition("retained CSV has extra or short row " +
                                        std::to_string(rows + 1));
    }
    char cover[32];
    std::snprintf(cover, sizeof(cover), "%.10g",
                  solution->cover_after_prefix[rows]);
    if (fields[1] != std::to_string(solution->items[rows]) ||
        fields[4] != cover) {
      return Status::FailedPrecondition(
          "retained CSV row " + std::to_string(rows + 1) + " is " + fields[1] +
          "," + fields[4] + ", expected " +
          std::to_string(solution->items[rows]) + "," + cover);
    }
    ++rows;
  }
  PREFCOVER_RETURN_NOT_OK(reader.status());
  if (rows != solution->items.size()) {
    return Status::FailedPrecondition(
        "retained CSV has " + std::to_string(rows) + " rows, expected " +
        std::to_string(solution->items.size()));
  }

  auto index = prefcover::serve::ServingIndex::Build(graph, *solution);
  if (!index.ok()) return index.status();
  return BytesEqual("serving index", index->Serialize(), cli_index);
}

Status CheckAnswer(const prefcover::serve::ServingIndex& index,
                   std::string_view query, std::string_view answer) {
  auto request = prefcover::serve::ParseRequest(query);
  if (!request.ok()) return request.status();
  const std::string expected =
      prefcover::serve::AnswerOnIndex(index, *request).line;
  if (expected == answer) return Status::OK();
  return Status::FailedPrecondition("answer to '" + std::string(query) +
                                    "' is '" + std::string(answer) +
                                    "', expected '" + expected + "'");
}

}  // namespace perfbench
