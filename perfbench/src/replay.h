// In-process replay of the public library calls that the `prefcover`
// verbs make on their default paths, each timed and wrapped in an obs
// trace span (category "perfbench"). One function per verb keeps each
// verb's call sequence in one place; when a verb's sequence changes in
// tools/prefcover_cli.cpp, the matching function here changes with it.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "util/status.h"

namespace perfbench {

/// Named measurements of one replay: seconds, counts and rates.
using Measurements = std::map<std::string, double>;

/// `prefcover construct --input=<csv> --out=<pcg>`: ReadClickstreamCsvFile,
/// RecommendVariant, BuildPreferenceGraph, WriteGraphBinaryFile.
prefcover::Status ReplayConstruct(const std::string& csv,
                                  const std::string& pcg_out,
                                  Measurements* m);

/// `prefcover solve --graph=<pcg> --k=<k> --index_out=<index>`:
/// ReadGraphBinaryFile, the auto variant, RunAlgorithm(lazy),
/// ServingIndex::Build, ServingIndex::Save.
prefcover::Status ReplaySolve(const std::string& pcg, size_t k,
                              const std::string& index_out, Measurements* m);

/// `prefcover serve --index=<index>` up to its first answer:
/// ServingIndex::Load, QueryEngine with default options, SubmitAndWait.
prefcover::Status ReplayServe(const std::string& index,
                              const std::string& first_query,
                              Measurements* m);

/// Layer probes that are not part of a verb's sequence: the streaming
/// construction of the same CSV (`variant` as `construct` chose it).
prefcover::Status ProbeStreamingBuild(const std::string& csv,
                                      const std::string& variant,
                                      Measurements* m);

/// Serving-layer probes on the workload's own query stream: AnswerOnIndex
/// per query (ns), serial QueryEngine::SubmitAndWait with default options
/// (us), and one closed-loop TCP connection to an in-process server (us).
prefcover::Status ProbeServing(const std::string& index, double zipf_s,
                               uint64_t seed, Measurements* m);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
