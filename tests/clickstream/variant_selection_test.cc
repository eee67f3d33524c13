#include "clickstream/variant_selection.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "synth/dataset_profiles.h"
#include "util/random.h"

namespace prefcover {
namespace {

// Builds a clickstream of `sessions` purchases of one item, where each
// session's alternative clicks come from `pattern(session_index)`.
template <typename PatternFn>
Clickstream MakeSingleItemStream(int sessions, PatternFn pattern) {
  Clickstream cs;
  ItemDictionary* dict = cs.mutable_dictionary();
  ItemId p = dict->Intern("purchased");
  ItemId a = dict->Intern("alt-a");
  ItemId b = dict->Intern("alt-b");
  for (int i = 0; i < sessions; ++i) {
    Session s;
    s.purchase = p;
    auto [click_a, click_b] = pattern(i);
    if (click_a) s.clicks.push_back(a);
    if (click_b) s.clicks.push_back(b);
    cs.AddSession(std::move(s));
  }
  return cs;
}

TEST(BinaryNmiTest, IndependentVariablesScoreZero) {
  // Perfectly independent 2x2 table: joint = product of marginals.
  uint64_t counts[2][2] = {{40, 40}, {10, 10}};
  EXPECT_NEAR(BinaryNormalizedMutualInformation(counts), 0.0, 1e-9);
}

TEST(BinaryNmiTest, IdenticalVariablesScoreOne) {
  uint64_t counts[2][2] = {{50, 0}, {0, 50}};
  EXPECT_NEAR(BinaryNormalizedMutualInformation(counts), 1.0, 1e-9);
}

TEST(BinaryNmiTest, AntiCorrelatedAlsoScoresOne) {
  // Mutual information is symmetric under relabeling.
  uint64_t counts[2][2] = {{0, 50}, {50, 0}};
  EXPECT_NEAR(BinaryNormalizedMutualInformation(counts), 1.0, 1e-9);
}

TEST(BinaryNmiTest, ConstantVariableScoresZero) {
  uint64_t counts[2][2] = {{0, 0}, {30, 70}};  // X always 1
  EXPECT_DOUBLE_EQ(BinaryNormalizedMutualInformation(counts), 0.0);
}

TEST(BinaryNmiTest, EmptyTableScoresZero) {
  uint64_t counts[2][2] = {{0, 0}, {0, 0}};
  EXPECT_DOUBLE_EQ(BinaryNormalizedMutualInformation(counts), 0.0);
}

TEST(BinaryNmiTest, PartialDependenceBetweenZeroAndOne) {
  uint64_t counts[2][2] = {{40, 10}, {10, 40}};
  double nmi = BinaryNormalizedMutualInformation(counts);
  EXPECT_GT(nmi, 0.05);
  EXPECT_LT(nmi, 0.95);
}

TEST(NormalizedFitTest, AllSingleAlternativeSessionsFitPerfectly) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    return std::make_pair(i % 2 == 0, i % 2 != 0);
  });
  EXPECT_DOUBLE_EQ(NormalizedFitShare(cs), 1.0);
}

TEST(NormalizedFitTest, MultiAlternativeSessionsLowerTheShare) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    // 30% of sessions click both alternatives.
    return std::make_pair(true, i % 10 < 3);
  });
  EXPECT_NEAR(NormalizedFitShare(cs), 0.7, 1e-12);
}

TEST(IndependenceMeasureTest, MutuallyExclusiveClicksAreDependent) {
  // Exactly one of {a, b} clicked per session: strong negative dependence.
  Clickstream cs = MakeSingleItemStream(200, [](int i) {
    return std::make_pair(i % 2 == 0, i % 2 != 0);
  });
  EXPECT_GT(IndependenceMeasure(cs), 0.5);
}

TEST(IndependenceMeasureTest, IndependentClicksScoreLow) {
  // a clicked on even thirds, b on even halves: near-independent bits.
  Rng rng(5);
  Clickstream cs = MakeSingleItemStream(2000, [&rng](int) {
    return std::make_pair(rng.NextBernoulli(0.5), rng.NextBernoulli(0.3));
  });
  EXPECT_LT(IndependenceMeasure(cs), 0.05);
}

TEST(IndependenceMeasureTest, SingleAlternativeItemContributesZero) {
  Clickstream cs = MakeSingleItemStream(50, [](int) {
    return std::make_pair(true, false);  // only alt-a ever clicked
  });
  EXPECT_DOUBLE_EQ(IndependenceMeasure(cs), 0.0);
}

TEST(IndependenceMeasureTest, EmptyClickstreamScoresZero) {
  Clickstream cs;
  EXPECT_DOUBLE_EQ(IndependenceMeasure(cs), 0.0);
}

TEST(RecommendVariantTest, NormalizedShapeRecommendsNormalized) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    return std::make_pair(i % 2 == 0, false);
  });
  VariantRecommendation rec = RecommendVariant(cs);
  EXPECT_EQ(rec.variant, Variant::kNormalized);
  EXPECT_TRUE(rec.normalized_fits);
  EXPECT_FALSE(rec.ToString().empty());
}

TEST(RecommendVariantTest, IndependentShapeRecommendsIndependent) {
  Rng rng(9);
  Clickstream cs = MakeSingleItemStream(3000, [&rng](int) {
    // Both alternatives clicked independently and frequently: >10% of
    // sessions have 2 alternatives, so Normalized does not fit; NMI ~ 0,
    // so Independent does.
    return std::make_pair(rng.NextBernoulli(0.6), rng.NextBernoulli(0.5));
  });
  VariantRecommendation rec = RecommendVariant(cs);
  EXPECT_EQ(rec.variant, Variant::kIndependent);
  EXPECT_FALSE(rec.normalized_fits);
  EXPECT_TRUE(rec.independent_fits);
}

TEST(RecommendVariantTest, NeitherFitsFlagsBothFalse) {
  // Mutually exclusive two-alternative clicks with many two-click
  // sessions: fails the 90% rule AND strongly dependent.
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    if (i % 5 < 2) return std::make_pair(true, true);  // 40% double
    return std::make_pair(i % 2 == 0, i % 2 != 0);
  });
  VariantRecommendation rec = RecommendVariant(cs);
  EXPECT_FALSE(rec.normalized_fits);
  EXPECT_FALSE(rec.independent_fits);
  // Defaults to Independent per the implementation contract.
  EXPECT_EQ(rec.variant, Variant::kIndependent);
}

TEST(RecommendVariantTest, CustomThresholds) {
  Clickstream cs = MakeSingleItemStream(100, [](int i) {
    return std::make_pair(true, i % 10 < 3);  // 70% single-alternative
  });
  VariantSelectionOptions options;
  options.normalized_fit_threshold = 0.6;  // lenient
  VariantRecommendation rec = RecommendVariant(cs, options);
  EXPECT_TRUE(rec.normalized_fits);
  EXPECT_EQ(rec.variant, Variant::kNormalized);
}

// The measure by its definition: every pair's 2x2 table counted by
// testing both alternatives in every session. The production code counts
// co-clicks once per session instead; the result must not move a bit.
double IndependenceByDefinition(const Clickstream& clickstream, size_t cap) {
  std::unordered_map<ItemId, std::vector<const Session*>> by_purchase;
  uint64_t total = 0;
  for (const Session& session : clickstream.sessions()) {
    if (!session.HasPurchase()) continue;
    by_purchase[session.purchase].push_back(&session);
    ++total;
  }
  if (total == 0) return 0.0;
  double weighted_sum = 0.0;
  for (const auto& [item, sessions] : by_purchase) {
    std::unordered_map<ItemId, uint64_t> click_count;
    for (const Session* s : sessions) {
      for (ItemId alt : s->Alternatives()) ++click_count[alt];
    }
    if (click_count.size() < 2) continue;
    std::vector<std::pair<ItemId, uint64_t>> top(click_count.begin(),
                                                 click_count.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (top.size() > cap) top.resize(cap);
    double pair_sum = 0.0;
    size_t pair_count = 0;
    for (size_t i = 0; i < top.size(); ++i) {
      for (size_t j = i + 1; j < top.size(); ++j) {
        uint64_t counts[2][2] = {{0, 0}, {0, 0}};
        for (const Session* s : sessions) {
          std::vector<ItemId> alts = s->Alternatives();
          bool a = std::find(alts.begin(), alts.end(), top[i].first) !=
                   alts.end();
          bool b = std::find(alts.begin(), alts.end(), top[j].first) !=
                   alts.end();
          ++counts[a ? 1 : 0][b ? 1 : 0];
        }
        pair_sum += BinaryNormalizedMutualInformation(counts);
        ++pair_count;
      }
    }
    double item_avg =
        pair_count == 0 ? 0.0 : pair_sum / static_cast<double>(pair_count);
    weighted_sum += item_avg * static_cast<double>(sessions.size()) /
                    static_cast<double>(total);
  }
  return weighted_sum;
}

TEST(IndependenceMeasureTest, BitIdenticalToPerPairDefinition) {
  for (DatasetProfile profile : {DatasetProfile::kYC, DatasetProfile::kPM,
                                 DatasetProfile::kPE}) {
    auto cs = GenerateProfileClickstream(profile, 0.002, 4);
    ASSERT_TRUE(cs.ok());
    for (size_t cap : {2u, 12u, 40u}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(IndependenceMeasure(*cs, cap)),
                std::bit_cast<uint64_t>(IndependenceByDefinition(*cs, cap)))
          << GetProfileSpec(profile).name << " cap " << cap;
    }
  }
}

}  // namespace
}  // namespace prefcover
