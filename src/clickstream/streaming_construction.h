// Preference-graph construction straight from clickstream CSV, with no
// Clickstream of all sessions in between.
//
// There is one ingestion path for files: BuildPreferenceGraphStreamingFile
// (and the `construct` and `solve --clicks` verbs) scan the file once with
// ScanClickstreamFile (clickstream_scan.h), which keeps only the purchase
// sessions, then run the in-memory BuildPreferenceGraph on them. Memory
// scales with the clicks of purchase sessions, not with the file.
//
// Grouped-input contract, per entry point:
//   - files (BuildPreferenceGraphStreamingFile, ScanClickstreamFile,
//     ReadClickstreamCsvFile): a session id that reappears after another
//     session's rows is InvalidArgument;
//   - the live feed (an istream through BuildPreferenceGraphStreaming, or
//     sessions pushed into StreamingGraphBuilder): a reappearing id opens
//     a NEW session, because a feed cannot remember every past id.
//
// All entry points share the row checks of clickstream_rows.h and give a
// graph bit-identical to BuildPreferenceGraph(ReadClickstreamCsv(..)) on
// grouped input (asserted in tests).

#ifndef PREFCOVER_CLICKSTREAM_STREAMING_CONSTRUCTION_H_
#define PREFCOVER_CLICKSTREAM_STREAMING_CONSTRUCTION_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "clickstream/graph_construction.h"
#include "clickstream/session.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace prefcover {

/// \brief Incremental construction state: feed sessions, then Finish().
///
/// Also usable directly by live systems that receive sessions one at a
/// time (e.g. from a message queue) rather than from a file.
class StreamingGraphBuilder {
 public:
  explicit StreamingGraphBuilder(
      const GraphConstructionOptions& options = GraphConstructionOptions());

  /// Item names are interned here; ids are dense in first-seen order.
  ItemId InternItem(std::string_view name);

  /// Consumes one session (moves from it). Sessions without a purchase
  /// only contribute their interned items.
  void AddSession(Session session);

  /// Observed totals so far.
  uint64_t sessions_seen() const { return sessions_seen_; }
  uint64_t purchases_seen() const { return purchases_seen_; }
  size_t items_seen() const { return dictionary_.size(); }

  /// Builds the preference graph from the accumulated statistics. The
  /// builder remains usable (more sessions may be added and Finish called
  /// again).
  Result<PreferenceGraph> Finish() const;

  const ItemDictionary& dictionary() const { return dictionary_; }

 private:
  GraphConstructionOptions options_;
  ItemDictionary dictionary_;
  std::vector<uint64_t> purchase_count_;
  std::unordered_map<uint64_t, double> pair_mass_;
  uint64_t sessions_seen_ = 0;
  uint64_t purchases_seen_ = 0;
  // Global-registry counters (clickstream.sessions / .purchases / .edges);
  // see OBSERVABILITY.md for the full metric list.
  obs::Counter* sessions_counter_;
  obs::Counter* purchases_counter_;
  obs::Counter* edges_counter_;
};

/// \brief One-pass construction from a live event-CSV feed (same format
/// as clickstream_io.h: `session_id,event_type,item_id`, grouped by
/// session).
///
/// Unlike the file entry points, a session id reappearing after other
/// sessions is treated as a NEW session rather than rejected.
Result<PreferenceGraph> BuildPreferenceGraphStreaming(
    std::istream* events,
    const GraphConstructionOptions& options = GraphConstructionOptions());

/// \brief Construction from an event-CSV file: ScanClickstreamFile, then
/// BuildPreferenceGraph on the purchase sessions. Ungrouped input is
/// InvalidArgument; `options.cancel` is polled at session boundaries.
Result<PreferenceGraph> BuildPreferenceGraphStreamingFile(
    const std::string& path,
    const GraphConstructionOptions& options = GraphConstructionOptions());

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_STREAMING_CONSTRUCTION_H_
