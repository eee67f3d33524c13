#include "clickstream/clickstream_rows.h"

#include <algorithm>

#include "util/string_util.h"

namespace prefcover {

RecordFields ViewRecordFields(const std::vector<std::string>& fields) {
  RecordFields views;
  views.count = std::min(fields.size(), RecordFields::kMaxFields);
  for (size_t i = 0; i < views.count; ++i) views.field[i] = fields[i];
  return views;
}

Status ClickstreamRecordParser::ParseHeader(const RecordFields& fields) {
  if ((fields.count != 3 && fields.count != 4) ||
      fields.field[0] != "session_id") {
    return Status::InvalidArgument(
        "clickstream CSV must start with session_id,event_type,item_id"
        "[,dwell_seconds]");
  }
  has_dwell_column_ = fields.count == 4;
  return Status::OK();
}

Status ClickstreamRecordParser::ParseRecord(const RecordFields& fields,
                                            size_t record_number,
                                            ClickstreamRecord* record) const {
  if (fields.count != (has_dwell_column_ ? 4u : 3u)) {
    return Status::InvalidArgument("clickstream record " +
                                   std::to_string(record_number) +
                                   " has the wrong field count");
  }
  record->session_id = fields.field[0];
  record->item = fields.field[2];
  record->dwell_seconds = -1.0;
  const std::string_view type = fields.field[1];
  if (type == "click") {
    record->event = ClickstreamEvent::kClick;
    if (has_dwell_column_ && !fields.field[3].empty()) {
      auto parsed = ParseDouble(fields.field[3]);
      if (!parsed.ok()) {
        return Status::InvalidArgument("bad dwell value in record " +
                                       std::to_string(record_number));
      }
      record->dwell_seconds = *parsed;
    }
  } else if (type == "purchase") {
    record->event = ClickstreamEvent::kPurchase;
  } else {
    return Status::InvalidArgument("unknown event type '" +
                                   std::string(type) + "' in record " +
                                   std::to_string(record_number));
  }
  return Status::OK();
}

Status AddEventToSession(const ClickstreamRecord& record, ItemId item,
                         bool has_dwell_column, Session* session) {
  if (record.event == ClickstreamEvent::kClick) {
    session->clicks.push_back(item);
    if (has_dwell_column) session->dwell_seconds.push_back(record.dwell_seconds);
    return Status::OK();
  }
  if (session->HasPurchase()) {
    return Status::InvalidArgument("session '" +
                                   std::string(record.session_id) +
                                   "' has multiple purchases");
  }
  session->purchase = item;
  return Status::OK();
}

}  // namespace prefcover
