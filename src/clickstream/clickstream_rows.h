// The record checks of the clickstream event CSV, written once and shared
// by every reader of the format: the file scanner (clickstream_scan.h),
// the istream streaming builder and the ReadClickstreamCsv oracle.
//
// A reader splits each record into fields however it likes (in place, or
// through CsvReader), then hands the leading fields here:
//
//   - the header must be `session_id,event_type,item_id[,dwell_seconds]`;
//   - every data record must carry the header's field count;
//   - the event type must be `click` or `purchase`;
//   - a click's dwell value, when present, must parse under ParseDouble's
//     grammar (a purchase's dwell field is never read);
//   - a session takes at most one purchase (AddEventToSession).
//
// Session grouping is the one rule left to the readers, because it
// differs by entry point (see streaming_construction.h).

#ifndef PREFCOVER_CLICKSTREAM_CLICKSTREAM_ROWS_H_
#define PREFCOVER_CLICKSTREAM_CLICKSTREAM_ROWS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "clickstream/session.h"
#include "util/status.h"

namespace prefcover {

/// \brief The leading fields of one CSV record, as views.
///
/// Holds at most kMaxFields views; `count` is the record's real field
/// count capped at kMaxFields, which is one more than any valid record
/// has — enough to reject an overlong record by its count alone.
struct RecordFields {
  static constexpr size_t kMaxFields = 5;
  std::array<std::string_view, kMaxFields> field;
  size_t count = 0;
};

/// Views of the leading fields of a record parsed into strings.
RecordFields ViewRecordFields(const std::vector<std::string>& fields);

enum class ClickstreamEvent : uint8_t { kClick, kPurchase };

/// \brief One checked data record; the views alias the reader's fields.
struct ClickstreamRecord {
  std::string_view session_id;
  ClickstreamEvent event = ClickstreamEvent::kClick;
  std::string_view item;
  /// Seconds the click's item was viewed; -1 when the record has no dwell
  /// column, an empty dwell field, or is a purchase.
  double dwell_seconds = -1.0;
};

/// \brief Checks the header and the data records of one clickstream CSV.
class ClickstreamRecordParser {
 public:
  /// Checks the header record and fixes the data records' field count.
  Status ParseHeader(const RecordFields& fields);

  /// Checks one data record. `record_number` (1-based, header included)
  /// names the record in error messages.
  Status ParseRecord(const RecordFields& fields, size_t record_number,
                     ClickstreamRecord* record) const;

  bool has_dwell_column() const { return has_dwell_column_; }

 private:
  bool has_dwell_column_ = false;
};

/// \brief Adds a checked record's event to `session`: a click (with its
/// dwell value when the file has a dwell column) or the purchase. A second
/// purchase in one session is InvalidArgument.
Status AddEventToSession(const ClickstreamRecord& record, ItemId item,
                         bool has_dwell_column, Session* session);

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_CLICKSTREAM_ROWS_H_
