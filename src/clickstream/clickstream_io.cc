#include "clickstream/clickstream_io.h"

#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "clickstream/clickstream_rows.h"
#include "util/csv.h"

namespace prefcover {

Status WriteClickstreamCsv(const Clickstream& clickstream,
                           std::ostream* out) {
  // Emit the optional dwell column only when some session carries dwell
  // data, so dwell-free streams stay byte-compatible with older readers.
  bool any_dwell = false;
  for (const Session& session : clickstream.sessions()) {
    if (session.HasDwell()) {
      any_dwell = true;
      break;
    }
  }
  CsvWriter writer(out);
  if (any_dwell) {
    writer.WriteRecord({"session_id", "event_type", "item_id",
                        "dwell_seconds"});
  } else {
    writer.WriteRecord({"session_id", "event_type", "item_id"});
  }
  const ItemDictionary& dict = clickstream.dictionary();
  size_t session_id = 0;
  char dwell_buf[32];
  for (const Session& session : clickstream.sessions()) {
    std::string sid = std::to_string(session_id++);
    for (size_t i = 0; i < session.clicks.size(); ++i) {
      if (any_dwell) {
        std::string dwell;
        if (session.HasDwell() && session.dwell_seconds[i] >= 0.0) {
          std::snprintf(dwell_buf, sizeof(dwell_buf), "%.10g",
                        session.dwell_seconds[i]);
          dwell = dwell_buf;
        }
        writer.WriteRecord(
            {sid, "click", dict.Name(session.clicks[i]), dwell});
      } else {
        writer.WriteRecord({sid, "click", dict.Name(session.clicks[i])});
      }
    }
    if (session.HasPurchase()) {
      if (any_dwell) {
        writer.WriteRecord({sid, "purchase", dict.Name(session.purchase),
                            ""});
      } else {
        writer.WriteRecord({sid, "purchase", dict.Name(session.purchase)});
      }
    }
  }
  if (!out->good()) return Status::IOError("failed writing clickstream CSV");
  return Status::OK();
}

Result<Clickstream> ReadClickstreamCsv(std::istream* in) {
  Clickstream clickstream;
  ItemDictionary* dict = clickstream.mutable_dictionary();
  CsvReader reader(in);
  ClickstreamRecordParser parser;
  std::vector<std::string> fields;
  ClickstreamRecord record;
  bool header = true;
  std::string current_sid;
  bool have_session = false;
  Session current;
  std::unordered_set<std::string> finished_sids;

  auto flush = [&clickstream, &current]() {
    clickstream.AddSession(std::move(current));
    current = Session();
  };

  while (reader.Next(&fields)) {
    if (header) {
      header = false;
      PREFCOVER_RETURN_NOT_OK(parser.ParseHeader(ViewRecordFields(fields)));
      continue;
    }
    PREFCOVER_RETURN_NOT_OK(parser.ParseRecord(
        ViewRecordFields(fields), reader.record_number(), &record));
    if (!have_session || record.session_id != current_sid) {
      if (have_session) {
        flush();
        finished_sids.insert(current_sid);
      }
      current_sid = record.session_id;
      if (finished_sids.count(current_sid) > 0) {
        return Status::InvalidArgument("session '" + current_sid +
                                       "' reappears after other sessions; "
                                       "input must be grouped by session");
      }
      have_session = true;
    }
    PREFCOVER_RETURN_NOT_OK(AddEventToSession(
        record, dict->Intern(record.item),
        parser.has_dwell_column(), &current));
  }
  PREFCOVER_RETURN_NOT_OK(reader.status());
  if (have_session) flush();
  return clickstream;
}

Status WriteClickstreamCsvFile(const Clickstream& clickstream,
                               const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return WriteClickstreamCsv(clickstream, &out);
}

Result<Clickstream> ReadClickstreamCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ReadClickstreamCsv(&in);
}

}  // namespace prefcover
