#include "clickstream/clickstream_scan.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "clickstream/clickstream_rows.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/fs.h"

namespace prefcover {
namespace {

class Scanner {
 public:
  Scanner(std::string_view csv, const CancelToken* cancel)
      : csv_(csv), cancel_(cancel) {}

  Result<ClickstreamScan> Run() {
    ClickstreamScan scan;
    scan.bytes = csv_.size();
    bool header = true;
    bool have_session = false;
    std::string_view current_id;
    Session current;
    ClickstreamRecord record;
    while (NextRecord()) {
      if (header) {
        header = false;
        PREFCOVER_RETURN_NOT_OK(parser_.ParseHeader(fields_));
        continue;
      }
      ++scan.rows;
      PREFCOVER_RETURN_NOT_OK(
          parser_.ParseRecord(fields_, record_number_, &record));
      if (!have_session || record.session_id != current_id) {
        if (have_session) {
          FinishSession(&current, &scan);
          if (cancel_ != nullptr && cancel_->IsCancelled()) {
            return Status::Cancelled("clickstream scan cancelled after " +
                                     std::to_string(scan.sessions) +
                                     " sessions");
          }
        }
        current_id = Keep(record.session_id);
        session_ids_.emplace_back(std::hash<std::string_view>()(current_id),
                                  current_id);
        have_session = true;
      }
      ItemId item =
          scan.purchase_sessions.mutable_dictionary()->Intern(record.item);
      PREFCOVER_RETURN_NOT_OK(AddEventToSession(
          record, item, parser_.has_dwell_column(), &current));
    }
    PREFCOVER_RETURN_NOT_OK(status_);
    if (have_session) FinishSession(&current, &scan);
    PREFCOVER_RETURN_NOT_OK(CheckGrouped());
    return scan;
  }

 private:
  // Splits the next record into fields_. False at the end of the input,
  // or on a malformed quoted record (status_ says which).
  bool NextRecord() {
    if (pos_ >= csv_.size()) return false;
    std::string_view line = NextLine();
    ++record_number_;
    quoted_ = line.find('"') != std::string_view::npos;
    if (quoted_) return ParseQuoted(line);
    size_t start = 0;
    fields_.count = 0;
    for (;;) {
      size_t comma = line.find(',', start);
      if (comma == std::string_view::npos) {
        fields_.field[fields_.count++] = line.substr(start);
        break;
      }
      fields_.field[fields_.count++] = line.substr(start, comma - start);
      start = comma + 1;
      // More fields than any valid record has: the count alone rejects it.
      if (fields_.count == RecordFields::kMaxFields) break;
    }
    return true;
  }

  // The next physical line, without its `\n` and one trailing `\r` (the
  // line splitting of CsvReader).
  std::string_view NextLine() {
    const char* begin = csv_.data() + pos_;
    const size_t left = csv_.size() - pos_;
    const void* newline = std::memchr(begin, '\n', left);
    size_t length =
        newline == nullptr
            ? left
            : static_cast<size_t>(static_cast<const char*>(newline) - begin);
    pos_ += newline == nullptr ? length : length + 1;
    if (length > 0 && begin[length - 1] == '\r') --length;
    return {begin, length};
  }

  // A record with a quote: joins physical lines until its quotes balance
  // (or the input ends), then parses it exactly as CsvReader does.
  bool ParseQuoted(std::string_view first_line) {
    std::string text(first_line);
    size_t quotes = static_cast<size_t>(
        std::count(first_line.begin(), first_line.end(), '"'));
    while (quotes % 2 != 0 && pos_ < csv_.size()) {
      std::string_view line = NextLine();
      text += '\n';
      text.append(line);
      quotes += static_cast<size_t>(std::count(line.begin(), line.end(), '"'));
    }
    auto parsed = ParseCsvLine(text);
    if (!parsed.ok()) {
      status_ = Status::InvalidArgument("record " +
                                        std::to_string(record_number_) +
                                        ": " + parsed.status().message());
      return false;
    }
    quoted_fields_ = std::move(parsed).value();
    fields_ = ViewRecordFields(quoted_fields_);
    return true;
  }

  // A view of `field` that outlives the current record: fields of
  // unquoted records already alias the input; quoted ones are copied.
  // Session ids need this for the grouping check.
  std::string_view Keep(std::string_view field) {
    if (!quoted_) return field;
    return kept_.emplace_back(field);
  }

  // Consecutive sessions differ in id by construction, so an id opened
  // twice reappeared after another session. Sorting the bare hashes is
  // the cheap test (sorting the (hash, id) pairs made construct ~25%
  // slower); only a repeated hash, a reappearance or a collision, sorts
  // the pairs to compare ids.
  Status CheckGrouped() {
    std::vector<size_t> hashes(session_ids_.size());
    for (size_t i = 0; i < hashes.size(); ++i) {
      hashes[i] = session_ids_[i].first;
    }
    std::sort(hashes.begin(), hashes.end());
    if (std::adjacent_find(hashes.begin(), hashes.end()) == hashes.end()) {
      return Status::OK();
    }
    std::sort(session_ids_.begin(), session_ids_.end());
    auto repeat = std::adjacent_find(session_ids_.begin(), session_ids_.end());
    if (repeat == session_ids_.end()) return Status::OK();
    return Status::InvalidArgument(
        "session '" + std::string(repeat->second) +
        "' reappears after other sessions; input must be grouped by "
        "session");
  }

  // Browse-only sessions only count; purchase sessions are kept. The
  // buffer is cleared in place so its capacity carries to the next one.
  void FinishSession(Session* session, ClickstreamScan* scan) {
    ++scan->sessions;
    scan->clicks += session->clicks.size();
    if (session->HasPurchase()) scan->purchase_sessions.AddSession(*session);
    session->clicks.clear();
    session->dwell_seconds.clear();
    session->purchase = kInvalidItem;
  }

  const std::string_view csv_;
  const CancelToken* const cancel_;
  size_t pos_ = 0;
  size_t record_number_ = 0;
  Status status_;
  ClickstreamRecordParser parser_;
  RecordFields fields_;
  bool quoted_ = false;                     // fields_ alias quoted_fields_
  std::vector<std::string> quoted_fields_;  // the last quoted record
  std::deque<std::string> kept_;            // stable copies of quoted ids
  // (hash, id) of every session, hashed so the sort rarely compares ids.
  std::vector<std::pair<size_t, std::string_view>> session_ids_;
};

#if defined(__unix__) || defined(__APPLE__)
// A read-only private mapping of a whole regular, non-empty file; not
// mapped() for anything else (the caller then reads the file instead).
class ReadOnlyMapping {
 public:
  explicit ReadOnlyMapping(int fd) {
    struct stat info;
    if (::fstat(fd, &info) != 0 || !S_ISREG(info.st_mode) ||
        info.st_size <= 0) {
      return;
    }
    size_ = static_cast<size_t>(info.st_size);
    addr_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr_ != MAP_FAILED) ::madvise(addr_, size_, MADV_SEQUENTIAL);
  }
  ~ReadOnlyMapping() {
    if (mapped()) ::munmap(addr_, size_);
  }
  ReadOnlyMapping(const ReadOnlyMapping&) = delete;
  ReadOnlyMapping& operator=(const ReadOnlyMapping&) = delete;

  bool mapped() const { return addr_ != MAP_FAILED; }
  std::string_view bytes() const {
    return {static_cast<const char*>(addr_), size_};
  }

 private:
  void* addr_ = MAP_FAILED;
  size_t size_ = 0;
};
#endif

}  // namespace

Result<ClickstreamScan> ScanClickstream(std::string_view csv,
                                        const CancelToken* cancel) {
  obs::Span span("clickstream.scan", "clickstream");
  Result<ClickstreamScan> scan = Scanner(csv, cancel).Run();
  if (!scan.ok()) return scan;
  const uint64_t purchases = scan->purchase_sessions.NumSessions();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("clickstream.bytes")->Increment(scan->bytes);
  registry.GetCounter("clickstream.rows")->Increment(scan->rows);
  registry.GetCounter("clickstream.sessions")->Increment(scan->sessions);
  registry.GetCounter("clickstream.purchases")->Increment(purchases);
  span.Arg("bytes", scan->bytes);
  span.Arg("rows", scan->rows);
  span.Arg("sessions", scan->sessions);
  span.Arg("purchases", purchases);
  return scan;
}

Result<ClickstreamScan> ScanClickstreamFile(const std::string& path,
                                            const CancelToken* cancel) {
  PREFCOVER_FAILPOINT_STATUS("clickstream.read");
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for reading: " + path);
  const ReadOnlyMapping mapping(fd);
  ::close(fd);
  if (mapping.mapped()) return ScanClickstream(mapping.bytes(), cancel);
#endif
  // Empty files, pipes and platforms without mmap: read the bytes whole.
  PREFCOVER_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  return ScanClickstream(bytes, cancel);
}

}  // namespace prefcover
