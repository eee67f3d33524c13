// The one ingestion path from a clickstream CSV file: a single in-place
// scan that keeps only the purchase sessions.
//
// Graph construction (graph_construction.h) and variant selection
// (variant_selection.h) read purchase sessions alone, so the scan drops
// browse-only sessions as it goes and keeps their items in the dictionary
// and their rows in the totals. Memory therefore scales with the clicks
// of purchase sessions, plus about 32 bytes per session for the grouping
// check, plus the file mapping itself.
//
// The scan maps the file, splits unquoted records in place into views,
// and sends only records that contain a `"` (including quoted fields that
// span lines) through ParseCsvLine, so it accepts exactly what CsvReader
// accepts. Row checks are the shared ones of clickstream_rows.h. Input
// must be grouped by session: an id that reappears after another
// session's rows is InvalidArgument, as in ReadClickstreamCsv.

#ifndef PREFCOVER_CLICKSTREAM_CLICKSTREAM_SCAN_H_
#define PREFCOVER_CLICKSTREAM_CLICKSTREAM_SCAN_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "clickstream/clickstream.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace prefcover {

/// \brief What a scan keeps of a clickstream.
struct ClickstreamScan {
  /// Purchase sessions in file order. The dictionary holds every item of
  /// the file (browse-only ones included) in first-seen order, so ids
  /// match those ReadClickstreamCsv assigns.
  Clickstream purchase_sessions;
  uint64_t bytes = 0;     // input size
  uint64_t rows = 0;      // data records (header excluded)
  uint64_t sessions = 0;  // all sessions, browse-only ones included
  uint64_t clicks = 0;    // click events over all sessions
};

/// \brief Scans an in-memory event CSV. `cancel` is polled at session
/// boundaries; a tripped token returns Status::Cancelled.
Result<ClickstreamScan> ScanClickstream(std::string_view csv,
                                        const CancelToken* cancel = nullptr);

/// \brief Scans an event-CSV file (mapped, or read whole when it cannot be
/// mapped). A missing file is IOError.
Result<ClickstreamScan> ScanClickstreamFile(
    const std::string& path, const CancelToken* cancel = nullptr);

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_CLICKSTREAM_SCAN_H_
