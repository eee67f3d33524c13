// Output checks of the pipeline benchmark. Every check compares what the
// `prefcover` CLI wrote (or a served answer) against the same result
// computed in-process through the library's public calls, and returns OK
// or a Status naming the first mismatch. None of them runs inside a timed
// region.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "core/variant.h"
#include "graph/preference_graph.h"
#include "serve/serving_index.h"
#include "util/status.h"

namespace perfbench {

/// The variant `solve`/`serve` pick for `--variant=auto` on a graph file
/// (no session data): Normalized only when the graph admits it.
prefcover::Variant ResolveAutoVariant(const prefcover::PreferenceGraph& graph);

/// `construct` check: `cli_pcg` must be byte-equal to the graph that
/// BuildPreferenceGraphStreamingFile builds from `csv_path` with `variant`.
prefcover::Status CheckConstructOutput(const std::string& csv_path,
                                       prefcover::Variant variant,
                                       std::string_view cli_pcg);

/// `solve --out --index_out` check: the retained list (item ids and
/// cover-after-prefix, as the CLI prints them) must equal an in-process
/// SolveGreedyLazy of `graph` at budget `k` (clamped to the catalog, as the
/// CLI does), and `cli_index` must be byte-equal to the ServingIndex built
/// from that solution with default options.
prefcover::Status CheckSolveOutput(const prefcover::PreferenceGraph& graph,
                                   size_t k, std::string_view retained_csv,
                                   std::string_view cli_index);

/// Served-answer check: `answer` must equal AnswerOnIndex(`query`) on the
/// index being served.
prefcover::Status CheckAnswer(const prefcover::serve::ServingIndex& index,
                              std::string_view query,
                              std::string_view answer);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
