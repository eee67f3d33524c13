// Clickstream CSV interchange.
//
// Event format, one event per record, compatible in spirit with the
// YooChoose RecSys-2015 layout the paper evaluates on:
//
//   session_id,event_type,item_id
//
// where event_type is "click" or "purchase". Events of one session must be
// contiguous (files sorted by session), which matches how such logs are
// exported in practice and permits streaming a file of any size.

#ifndef PREFCOVER_CLICKSTREAM_CLICKSTREAM_IO_H_
#define PREFCOVER_CLICKSTREAM_CLICKSTREAM_IO_H_

#include <iosfwd>
#include <string>

#include "clickstream/clickstream.h"
#include "util/status.h"

namespace prefcover {

/// \brief Writes the clickstream as event CSV (with header).
Status WriteClickstreamCsv(const Clickstream& clickstream, std::ostream* out);

/// \brief Reads an event CSV into memory, every session included.
///
/// Built on the RFC-4180 CsvReader, this is the reference reader that
/// tests, benches and examples compare the file scanner
/// (clickstream_scan.h, the ingestion path of `construct`) against. Rules
/// enforced, besides the row checks of clickstream_rows.h (header, field
/// count, event type, dwell value, one purchase per session): sessions
/// interleaving (a session id seen again after another id) is an error,
/// so silent data corruption is caught.
Result<Clickstream> ReadClickstreamCsv(std::istream* in);

/// File-path conveniences.
Status WriteClickstreamCsvFile(const Clickstream& clickstream,
                               const std::string& path);
Result<Clickstream> ReadClickstreamCsvFile(const std::string& path);

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_CLICKSTREAM_IO_H_
