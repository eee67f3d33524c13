#include "clickstream/streaming_construction.h"

#include <algorithm>
#include <istream>

#include "clickstream/clickstream_rows.h"
#include "clickstream/clickstream_scan.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/csv.h"

namespace prefcover {

StreamingGraphBuilder::StreamingGraphBuilder(
    const GraphConstructionOptions& options)
    : options_(options),
      sessions_counter_(obs::MetricsRegistry::Global().GetCounter(
          "clickstream.sessions")),
      purchases_counter_(obs::MetricsRegistry::Global().GetCounter(
          "clickstream.purchases")),
      edges_counter_(obs::MetricsRegistry::Global().GetCounter(
          "clickstream.edges")) {}

ItemId StreamingGraphBuilder::InternItem(std::string_view name) {
  ItemId id = dictionary_.Intern(name);
  if (id >= purchase_count_.size()) purchase_count_.resize(id + 1, 0);
  return id;
}

void StreamingGraphBuilder::AddSession(Session session) {
  ++sessions_seen_;
  sessions_counter_->Increment();
  if (!session.HasPurchase()) return;
  purchases_counter_->Increment();
  ItemId p = session.purchase;
  PREFCOVER_CHECK_MSG(p < purchase_count_.size(),
                      "purchase id not interned through this builder");
  ++purchase_count_[p];
  ++purchases_seen_;
  std::vector<std::pair<ItemId, double>> alts =
      session.AlternativesWithDwell();
  if (alts.empty()) return;
  double mass = 1.0;
  if (options_.variant == Variant::kNormalized && alts.size() > 1) {
    mass = 1.0 / static_cast<double>(alts.size());
  }
  for (const auto& [b, dwell] : alts) {
    PREFCOVER_CHECK(b < purchase_count_.size());
    double corrected = mass;
    if (options_.dwell_saturation_seconds > 0.0 && dwell >= 0.0) {
      corrected *=
          std::min(1.0, dwell / options_.dwell_saturation_seconds);
    }
    if (corrected <= 0.0) continue;
    pair_mass_[(static_cast<uint64_t>(p) << 32) | b] += corrected;
  }
}

Result<PreferenceGraph> StreamingGraphBuilder::Finish() const {
  obs::Span finish_span("clickstream.finish", "clickstream");
  finish_span.Arg("items", static_cast<uint64_t>(dictionary_.size()));
  finish_span.Arg("sessions", sessions_seen_);
  const size_t num_items = dictionary_.size();
  if (num_items == 0) {
    return Status::FailedPrecondition("no items observed");
  }
  if (purchases_seen_ == 0) {
    return Status::FailedPrecondition(
        "no purchase sessions observed; cannot infer preferences");
  }
  GraphBuilder builder;
  builder.Reserve(num_items, pair_mass_.size());
  for (ItemId item = 0; item < num_items; ++item) {
    builder.AddNode(static_cast<double>(purchase_count_[item]) /
                        static_cast<double>(purchases_seen_),
                    dictionary_.Name(item));
  }
  uint64_t edges_emitted = 0;
  for (const auto& [key, mass] : pair_mass_) {
    ItemId from = static_cast<ItemId>(key >> 32);
    ItemId to = static_cast<ItemId>(key & 0xFFFFFFFFu);
    if (options_.min_purchases_for_edges > 0 &&
        purchase_count_[from] < options_.min_purchases_for_edges) {
      continue;
    }
    double weight =
        mass / static_cast<double>(purchase_count_[from]);
    if (weight > 1.0) weight = 1.0;
    if (weight < options_.min_edge_weight) continue;
    PREFCOVER_RETURN_NOT_OK(builder.AddEdge(from, to, weight));
    ++edges_emitted;
  }
  edges_counter_->Increment(edges_emitted);
  finish_span.Arg("edges", edges_emitted);
  GraphValidationOptions validation;
  validation.require_normalized_out_weights =
      options_.variant == Variant::kNormalized;
  return builder.Finalize(validation);
}

Result<PreferenceGraph> BuildPreferenceGraphStreaming(
    std::istream* events, const GraphConstructionOptions& options) {
  obs::Span build_span("clickstream.build", "clickstream");
  StreamingGraphBuilder builder(options);
  CsvReader reader(events);
  ClickstreamRecordParser parser;
  std::vector<std::string> fields;
  ClickstreamRecord record;
  bool header = true;
  std::string current_sid;
  bool have_session = false;
  uint64_t rows = 0;
  Session current;

  while (reader.Next(&fields)) {
    if (header) {
      header = false;
      PREFCOVER_RETURN_NOT_OK(parser.ParseHeader(ViewRecordFields(fields)));
      continue;
    }
    ++rows;
    PREFCOVER_RETURN_NOT_OK(parser.ParseRecord(
        ViewRecordFields(fields), reader.record_number(), &record));
    if (!have_session || record.session_id != current_sid) {
      if (have_session) {
        builder.AddSession(std::move(current));
        current = Session();
        // Session boundaries are the construction's round boundaries:
        // cheap (one flag read per session, not per row) and always at a
        // consistent point — no half-consumed session ever reaches the
        // builder.
        if (options.cancel != nullptr && options.cancel->IsCancelled()) {
          return Status::Cancelled(
              "graph construction cancelled after " +
              std::to_string(builder.sessions_seen()) + " sessions");
        }
      }
      current_sid = record.session_id;
      have_session = true;
    }
    PREFCOVER_RETURN_NOT_OK(
        AddEventToSession(record, builder.InternItem(record.item),
                          parser.has_dwell_column(), &current));
  }
  PREFCOVER_RETURN_NOT_OK(reader.status());
  if (have_session) builder.AddSession(std::move(current));
  obs::MetricsRegistry::Global().GetCounter("clickstream.rows")
      ->Increment(rows);
  build_span.Arg("rows", rows);
  build_span.Arg("sessions", builder.sessions_seen());
  return builder.Finish();
}

Result<PreferenceGraph> BuildPreferenceGraphStreamingFile(
    const std::string& path, const GraphConstructionOptions& options) {
  PREFCOVER_ASSIGN_OR_RETURN(ClickstreamScan scan,
                             ScanClickstreamFile(path, options.cancel));
  obs::Span build_span("clickstream.build", "clickstream");
  return BuildPreferenceGraph(scan.purchase_sessions, options);
}

}  // namespace prefcover
