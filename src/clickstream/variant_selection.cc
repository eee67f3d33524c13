#include "clickstream/variant_selection.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace prefcover {

double BinaryNormalizedMutualInformation(const uint64_t counts[2][2]) {
  uint64_t total = 0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) total += counts[x][y];
  }
  if (total == 0) return 0.0;
  double n = static_cast<double>(total);
  double px[2] = {
      static_cast<double>(counts[0][0] + counts[0][1]) / n,
      static_cast<double>(counts[1][0] + counts[1][1]) / n,
  };
  double py[2] = {
      static_cast<double>(counts[0][0] + counts[1][0]) / n,
      static_cast<double>(counts[0][1] + counts[1][1]) / n,
  };
  auto entropy = [](const double p[2]) {
    double h = 0.0;
    for (int i = 0; i < 2; ++i) {
      if (p[i] > 0.0) h -= p[i] * std::log(p[i]);
    }
    return h;
  };
  double hx = entropy(px);
  double hy = entropy(py);
  if (hx <= 0.0 || hy <= 0.0) return 0.0;
  double mi = 0.0;
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      if (counts[x][y] == 0) continue;
      double pxy = static_cast<double>(counts[x][y]) / n;
      mi += pxy * std::log(pxy / (px[x] * py[y]));
    }
  }
  if (mi < 0.0) mi = 0.0;  // fp noise
  double nmi = mi / std::sqrt(hx * hy);
  return nmi > 1.0 ? 1.0 : nmi;
}

double NormalizedFitShare(const Clickstream& clickstream) {
  return clickstream.ComputeStats().at_most_one_alternative_share;
}

double IndependenceMeasure(const Clickstream& clickstream,
                           size_t max_alternatives_per_item) {
  // Group purchase sessions by purchased item.
  std::unordered_map<ItemId, std::vector<const Session*>> by_purchase;
  uint64_t total_purchases = 0;
  for (const Session& session : clickstream.sessions()) {
    if (!session.HasPurchase()) continue;
    by_purchase[session.purchase].push_back(&session);
    ++total_purchases;
  }
  if (total_purchases == 0) return 0.0;

  double weighted_sum = 0.0;
  std::vector<std::vector<ItemId>> alternatives;
  std::vector<size_t> members;
  for (const auto& [item, sessions] : by_purchase) {
    // Each session's alternatives, and the click frequency of each.
    alternatives.clear();
    std::unordered_map<ItemId, uint64_t> click_count;
    for (const Session* s : sessions) {
      alternatives.push_back(s->Alternatives());
      for (ItemId alt : alternatives.back()) ++click_count[alt];
    }
    if (click_count.size() < 2) continue;  // no pairs -> contributes 0

    // Keep the most clicked alternatives, capped.
    std::vector<std::pair<ItemId, uint64_t>> top(click_count.begin(),
                                                 click_count.end());
    std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (top.size() > max_alternatives_per_item) {
      top.resize(max_alternatives_per_item);
    }

    // Sessions clicking both top[i] and top[j], i < j: one pass over each
    // session's alternatives. With each alternative's own click count this
    // fixes the whole 2x2 table of every pair.
    const size_t t = top.size();
    std::unordered_map<ItemId, size_t> rank;
    for (size_t i = 0; i < t; ++i) rank[top[i].first] = i;
    std::vector<uint64_t> both(t * t, 0);
    for (const std::vector<ItemId>& alts : alternatives) {
      members.clear();
      for (ItemId alt : alts) {
        auto it = rank.find(alt);
        if (it != rank.end()) members.push_back(it->second);
      }
      for (size_t a = 0; a < members.size(); ++a) {
        for (size_t b = a + 1; b < members.size(); ++b) {
          ++both[std::min(members[a], members[b]) * t +
                 std::max(members[a], members[b])];
        }
      }
    }

    // Pairwise NMI over the alternatives' click indicators, conditioned on
    // this item being purchased.
    const uint64_t n = sessions.size();
    double pair_sum = 0.0;
    size_t pair_count = 0;
    for (size_t i = 0; i < t; ++i) {
      for (size_t j = i + 1; j < t; ++j) {
        const uint64_t n11 = both[i * t + j];
        const uint64_t ni = top[i].second, nj = top[j].second;
        const uint64_t counts[2][2] = {{n - ni - nj + n11, nj - n11},
                                       {ni - n11, n11}};
        pair_sum += BinaryNormalizedMutualInformation(counts);
        ++pair_count;
      }
    }
    double item_avg = pair_count == 0 ? 0.0
                                      : pair_sum /
                                            static_cast<double>(pair_count);
    // Purchase-share weighting = node-weight weighting of the paper.
    weighted_sum += item_avg * static_cast<double>(sessions.size()) /
                    static_cast<double>(total_purchases);
  }
  return weighted_sum;
}

std::string VariantRecommendation::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "variant=%s normalized_fit=%.3f (%s) independence=%.3f (%s)",
                std::string(VariantName(variant)).c_str(), normalized_fit,
                normalized_fits ? "fits" : "does not fit", independence,
                independent_fits ? "fits" : "does not fit");
  return buf;
}

VariantRecommendation RecommendVariant(
    const Clickstream& clickstream, const VariantSelectionOptions& options) {
  VariantRecommendation rec;
  rec.normalized_fit = NormalizedFitShare(clickstream);
  rec.independence =
      IndependenceMeasure(clickstream, options.max_alternatives_per_item);
  rec.normalized_fits = rec.normalized_fit >= options.normalized_fit_threshold;
  rec.independent_fits = rec.independence < options.independence_threshold;
  // Normalized is the stricter, more specific model; prefer it when the
  // data genuinely has the "at most one alternative" shape.
  if (rec.normalized_fits) {
    rec.variant = Variant::kNormalized;
  } else {
    rec.variant = Variant::kIndependent;
  }
  return rec;
}

}  // namespace prefcover
