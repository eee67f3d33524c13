// Differential suite: the file scanner (ScanClickstream, the ingestion
// path of `construct`) against the RFC-4180 reference reader
// (ReadClickstreamCsv). On every input both give the same outcome; when
// OK, the same dictionary, the same purchase sessions, byte-identical
// graphs under both variants and a bit-identical VariantRecommendation.

#include "clickstream/clickstream_scan.h"

#include <bit>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clickstream/clickstream_io.h"
#include "clickstream/graph_construction.h"
#include "clickstream/streaming_construction.h"
#include "clickstream/variant_selection.h"
#include "graph/graph_io.h"
#include "support/temp_dir.h"
#include "synth/catalog.h"
#include "synth/dataset_profiles.h"
#include "synth/preference_model.h"
#include "synth/session_generator.h"
#include "util/random.h"

namespace prefcover {
namespace {

std::string ToCsv(const Clickstream& clickstream) {
  std::ostringstream out;
  EXPECT_TRUE(WriteClickstreamCsv(clickstream, &out).ok());
  return out.str();
}

std::string GraphBytes(const PreferenceGraph& graph) {
  std::ostringstream out;
  EXPECT_TRUE(WriteGraphBinary(graph, &out).ok());
  return out.str();
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectSameSession(const Session& a, const Session& b) {
  EXPECT_EQ(a.clicks, b.clicks);
  EXPECT_EQ(a.purchase, b.purchase);
  ASSERT_EQ(a.dwell_seconds.size(), b.dwell_seconds.size());
  for (size_t i = 0; i < a.dwell_seconds.size(); ++i) {
    EXPECT_TRUE(SameBits(a.dwell_seconds[i], b.dwell_seconds[i])) << i;
  }
}

// Graph construction outcome under one variant: the status code, and the
// .pcg bytes when OK.
std::string BuildOutcome(const Clickstream& clickstream, Variant variant) {
  GraphConstructionOptions options;
  options.variant = variant;
  options.dwell_saturation_seconds = 20.0;
  auto graph = BuildPreferenceGraph(clickstream, options);
  if (!graph.ok()) {
    return std::string(StatusCodeToString(graph.status().code()));
  }
  return GraphBytes(*graph);
}

// Runs both readers over `csv` and checks they agree. Returns whether the
// input was accepted.
bool ExpectScanMatchesReference(const std::string& csv) {
  std::istringstream in(csv);
  auto reference = ReadClickstreamCsv(&in);
  auto scan = ScanClickstream(csv);
  EXPECT_EQ(reference.ok(), scan.ok())
      << "reference: " << reference.status().ToString()
      << " scan: " << scan.status().ToString();
  if (!reference.ok() || !scan.ok()) {
    if (!reference.ok()) {
      EXPECT_TRUE(reference.status().IsInvalidArgument());
    }
    if (!scan.ok()) {
      EXPECT_TRUE(scan.status().IsInvalidArgument());
    }
    return false;
  }

  const Clickstream& purchases = scan->purchase_sessions;
  const ItemDictionary& ref_dict = reference->dictionary();
  EXPECT_EQ(purchases.dictionary().size(), ref_dict.size());
  if (purchases.dictionary().size() != ref_dict.size()) return true;
  for (ItemId id = 0; id < ref_dict.size(); ++id) {
    EXPECT_EQ(purchases.dictionary().Name(id), ref_dict.Name(id));
  }

  EXPECT_EQ(scan->bytes, csv.size());
  EXPECT_EQ(scan->sessions, reference->NumSessions());
  uint64_t clicks = 0;
  std::vector<const Session*> ref_purchases;
  for (const Session& session : reference->sessions()) {
    clicks += session.clicks.size();
    if (session.HasPurchase()) ref_purchases.push_back(&session);
  }
  EXPECT_EQ(scan->clicks, clicks);
  EXPECT_EQ(scan->rows,
            clicks + static_cast<uint64_t>(ref_purchases.size()));
  EXPECT_EQ(purchases.NumSessions(), ref_purchases.size());
  if (purchases.NumSessions() != ref_purchases.size()) return true;
  for (size_t i = 0; i < ref_purchases.size(); ++i) {
    ExpectSameSession(purchases.sessions()[i], *ref_purchases[i]);
  }

  for (Variant variant : {Variant::kIndependent, Variant::kNormalized}) {
    EXPECT_TRUE(BuildOutcome(purchases, variant) ==
                BuildOutcome(*reference, variant))
        << VariantName(variant);
  }
  const VariantRecommendation a = RecommendVariant(purchases);
  const VariantRecommendation b = RecommendVariant(*reference);
  EXPECT_EQ(a.variant, b.variant);
  EXPECT_TRUE(SameBits(a.normalized_fit, b.normalized_fit));
  EXPECT_TRUE(SameBits(a.independence, b.independence));
  EXPECT_EQ(a.normalized_fits, b.normalized_fits);
  EXPECT_EQ(a.independent_fits, b.independent_fits);
  return true;
}

std::string ProfileCsv(DatasetProfile profile, double scale, uint64_t seed) {
  auto clickstream = GenerateProfileClickstream(profile, scale, seed);
  EXPECT_TRUE(clickstream.ok());
  return ToCsv(*clickstream);
}

std::string DwellCsv(uint64_t seed) {
  Rng rng(seed);
  CatalogParams catalog_params;
  catalog_params.num_items = 150;
  catalog_params.num_categories = 10;
  auto catalog = Catalog::Generate(catalog_params, &rng);
  EXPECT_TRUE(catalog.ok());
  auto model = PreferenceModel::Build(&*catalog, PreferenceModelParams(), &rng);
  EXPECT_TRUE(model.ok());
  SessionGeneratorParams session_params;
  session_params.num_sessions = 4000;
  session_params.browse_only_share = 0.4;
  session_params.noise_clicks_mean = 2.0;
  session_params.emit_dwell_times = true;
  auto clickstream = GenerateSessions(*model, session_params, &rng);
  EXPECT_TRUE(clickstream.ok());
  return ToCsv(*clickstream);
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

// Quoting, doubled quotes, commas and newlines inside fields, a quoted id
// equal to an unquoted one (the same session), dwell values with spaces
// and an empty dwell, browse-only sessions between purchase ones.
const char kAwkwardCsv[] =
    "session_id,event_type,item_id,dwell_seconds\n"
    "\"1\",click,\"tv, 55\"\"\",12.5\n"
    "1,click,plain, 3 \n"
    "1,purchase,\"multi\nline\",\n"
    "2,click,plain,\n"
    "\"3\r\n3\",click,\"tv, 55\"\"\",1e1\n"
    "\"3\r\n3\",purchase,plain,x\n"
    "4,click,\"\",0\n"
    "4,purchase,\"tv, 55\"\"\",\n";

TEST(ClickstreamScanDifferentialTest, GeneratedProfiles) {
  EXPECT_TRUE(ExpectScanMatchesReference(
      ProfileCsv(DatasetProfile::kYC, 0.003, 7)));
  EXPECT_TRUE(ExpectScanMatchesReference(
      ProfileCsv(DatasetProfile::kPM, 0.003, 7)));
  const std::string dwell = DwellCsv(5);
  ASSERT_NE(dwell.find("dwell_seconds"), std::string::npos);
  EXPECT_TRUE(ExpectScanMatchesReference(dwell));
}

TEST(ClickstreamScanDifferentialTest, LineEndingsAndQuoting) {
  const std::string yc = ProfileCsv(DatasetProfile::kYC, 0.001, 3);
  EXPECT_TRUE(ExpectScanMatchesReference(ReplaceAll(yc, "\n", "\r\n")));
  ASSERT_EQ(yc.back(), '\n');
  EXPECT_TRUE(ExpectScanMatchesReference(yc.substr(0, yc.size() - 1)));
  EXPECT_TRUE(ExpectScanMatchesReference(kAwkwardCsv));
  EXPECT_TRUE(
      ExpectScanMatchesReference(ReplaceAll(kAwkwardCsv, "\n", "\r\n")));
}

TEST(ClickstreamScanDifferentialTest, EmptyAndHeaderOnly) {
  for (const char* csv : {"", "session_id,event_type,item_id\n",
                          "session_id,event_type,item_id",
                          "session_id,event_type,item_id,dwell_seconds\r\n"}) {
    EXPECT_TRUE(ExpectScanMatchesReference(csv)) << csv;
    auto scan = ScanClickstream(csv);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->rows, 0u);
    EXPECT_EQ(scan->purchase_sessions.NumItems(), 0u);
  }
}

// The MalformedClickstreamTest corpus, plus blank lines, overlong records
// and broken quoting.
TEST(ClickstreamScanDifferentialTest, MalformedCorpusRejectedAlike) {
  for (const char* csv : {
           "not,a,clickstream\n1,click,a\n",
           "session_id,event_type\n",
           "session_id,event_type,item_id\n1,click\n",
           "session_id,event_type,item_id\n1,view,itemA\n",
           "session_id,event_type,item_id\n"
           "1,click,a\n1,purchase,a\n1,purchase,b\n",
           "session_id,event_type,item_id\n1,click,a\n2,click,b\n1,click,c\n",
           "session_id,event_type,item_id,dwell_seconds\n"
           "1,click,a,not_a_number\n",
           "session_id,event_type,item_id\n1,click,a\n\n",
           "session_id,event_type,item_id\n1,click,a,b,c,d\n",
           "session_id,event_type,item_id\n1,click,\"a\n",
           "session_id,event_type,item_id\n1,click,\"a\"b\n",
           "session_id,event_type,item_id\n1,click,a\"b\"\n",
       }) {
    EXPECT_FALSE(ExpectScanMatchesReference(csv)) << csv;
  }
}

// Cut a small CSV at every offset and damage every byte (flipped, and
// overwritten by each structural character): the scanner must accept
// exactly what the reference accepts, and agree with it when it does.
TEST(ClickstreamScanDifferentialTest, TruncationsAndByteFlips) {
  const std::string csv = kAwkwardCsv;
  for (size_t cut = 0; cut <= csv.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    ExpectScanMatchesReference(csv.substr(0, cut));
  }
  for (size_t i = 0; i < csv.size(); ++i) {
    for (char replacement : {static_cast<char>(csv[i] ^ 0x01), ',', '"',
                             '\n', '\r', ' '}) {
      std::string damaged = csv;
      damaged[i] = replacement;
      SCOPED_TRACE("byte " + std::to_string(i));
      ExpectScanMatchesReference(damaged);
    }
  }
}

// Grouped-input contract: the file entry points reject an id that
// reappears after another session; the live feed opens a new session.
TEST(ClickstreamScanTest, InterleavedSessionIdRejectedByFileEntryPoints) {
  const std::string csv =
      "session_id,event_type,item_id\n"
      "0,click,b\n0,purchase,a\n"
      "1,purchase,b\n"
      "0,purchase,a\n";
  EXPECT_FALSE(ExpectScanMatchesReference(csv));
  EXPECT_TRUE(ScanClickstream(csv).status().IsInvalidArgument());

  const std::string path = testing_support::UniqueTempPath("interleaved.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << csv;
  }
  EXPECT_TRUE(ScanClickstreamFile(path).status().IsInvalidArgument());
  EXPECT_TRUE(
      BuildPreferenceGraphStreamingFile(path).status().IsInvalidArgument());
  EXPECT_TRUE(ReadClickstreamCsvFile(path).status().IsInvalidArgument());

  std::istringstream feed(csv);
  auto live = BuildPreferenceGraphStreaming(&feed);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_DOUBLE_EQ(live->NodeWeight(1), 2.0 / 3.0);  // "a": 2 of 3
}

// An id far from its first run is caught too, and a quoted spelling of
// the same id is the same id.
TEST(ClickstreamScanTest, ReappearanceFoundAcrossManySessions) {
  std::string csv = "session_id,event_type,item_id\n";
  for (int s = 0; s < 5000; ++s) {
    csv += std::to_string(s) + ",purchase,i" + std::to_string(s % 7) + "\n";
  }
  EXPECT_TRUE(ScanClickstream(csv).ok());
  EXPECT_TRUE(
      ScanClickstream(csv + "17,click,i1\n").status().IsInvalidArgument());
  EXPECT_TRUE(ScanClickstream(csv + "\"4999\",click,i1\n").ok());
  EXPECT_TRUE(ScanClickstream(csv + "\"4998\",click,i1\n")
                  .status()
                  .IsInvalidArgument());
}

TEST(ClickstreamScanTest, FileMatchesInMemoryScanAndCounts) {
  const std::string csv = ProfileCsv(DatasetProfile::kYC, 0.001, 11);
  const std::string path = testing_support::UniqueTempPath("scan.csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << csv;
  }
  auto from_file = ScanClickstreamFile(path);
  auto from_memory = ScanClickstream(csv);
  ASSERT_TRUE(from_file.ok() && from_memory.ok());
  EXPECT_EQ(from_file->bytes, csv.size());
  EXPECT_EQ(from_file->rows, from_memory->rows);
  EXPECT_EQ(from_file->sessions, from_memory->sessions);
  EXPECT_GT(from_file->sessions, from_file->purchase_sessions.NumSessions());
  EXPECT_TRUE(BuildOutcome(from_file->purchase_sessions,
                           Variant::kIndependent) ==
              BuildOutcome(from_memory->purchase_sessions,
                           Variant::kIndependent));

  EXPECT_TRUE(ScanClickstreamFile(testing_support::UniqueTempPath("absent"))
                  .status()
                  .IsIOError());
  const std::string empty = testing_support::UniqueTempPath("empty.csv");
  { std::ofstream out(empty); }
  auto scanned_empty = ScanClickstreamFile(empty);
  ASSERT_TRUE(scanned_empty.ok());
  EXPECT_EQ(scanned_empty->sessions, 0u);
}

TEST(ClickstreamScanTest, CancelledAtSessionBoundary) {
  CancelToken cancel;
  cancel.Cancel();
  const std::string csv =
      "session_id,event_type,item_id\n1,purchase,a\n2,purchase,b\n";
  EXPECT_TRUE(ScanClickstream(csv, &cancel).status().IsCancelled());
  // A single session never reaches a boundary.
  EXPECT_TRUE(ScanClickstream("session_id,event_type,item_id\n1,click,a\n",
                              &cancel)
                  .ok());
}

}  // namespace
}  // namespace prefcover
