// Session model for clickstream data (paper Section 5.2).
//
// A session groups the browsing events of one consumer visit. Following the
// paper's assumptions, only the minimal signal most platforms have is
// modeled: which items were clicked and which single item (if any) was
// purchased. Sessions ending without a purchase carry no buying intent and
// are ignored by graph construction, but are kept so dataset statistics
// (Table 2) can report total session counts.

#ifndef PREFCOVER_CLICKSTREAM_SESSION_H_
#define PREFCOVER_CLICKSTREAM_SESSION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace prefcover {

/// Dense item identifier within a clickstream's dictionary.
using ItemId = uint32_t;

/// Sentinel for "no item" (e.g. a session without a purchase).
inline constexpr ItemId kInvalidItem = 0xFFFFFFFFu;

/// \brief One consumer visit: clicked items plus at most one purchase.
struct Session {
  /// Distinct clicked items, in click order. May include the purchased
  /// item (a click preceding its own purchase); graph construction excludes
  /// it from the alternative set.
  std::vector<ItemId> clicks;

  /// Optional dwell time per click, parallel to `clicks` (seconds spent
  /// viewing the item). Either empty (unknown) or the same length as
  /// `clicks`. Dwell is the corrective signal the paper's Section 5.2
  /// suggests for separating purchase intent from idle browsing.
  std::vector<double> dwell_seconds;

  /// The purchased item, or kInvalidItem for a browse-only session.
  ItemId purchase = kInvalidItem;

  bool HasPurchase() const { return purchase != kInvalidItem; }
  bool HasDwell() const { return !dwell_seconds.empty(); }

  /// Distinct clicked items other than the purchase — the session's
  /// implied alternatives.
  std::vector<ItemId> Alternatives() const;

  /// Distinct alternatives paired with the longest dwell observed for
  /// each; dwell is -1 for sessions without dwell data.
  std::vector<std::pair<ItemId, double>> AlternativesWithDwell() const;
};

/// \brief Bidirectional mapping between external item names (SKUs) and
/// dense ItemIds.
///
/// The name index is a flat open-addressing table of ids, so a lookup is
/// one hash, one probe run and one name compare, with no allocation.
class ItemDictionary {
 public:
  /// Returns the id of `name`, interning it on first sight. Only a new
  /// name is copied.
  ItemId Intern(std::string_view name);

  /// Id of `name` or kInvalidItem when unknown.
  ItemId Lookup(std::string_view name) const;

  /// Name of an interned id.
  const std::string& Name(ItemId id) const;

  size_t size() const { return names_.size(); }

 private:
  struct Slot {
    ItemId id = kInvalidItem;  // kInvalidItem marks an empty slot
    uint32_t tag = 0;          // high hash bits, compared before the name
  };

  // The slot holding `name`, or the empty slot where it would go.
  size_t FindSlot(std::string_view name, uint64_t hash) const;
  void Grow();

  std::vector<std::string> names_;
  std::vector<Slot> slots_;  // size is zero or a power of two
};

}  // namespace prefcover

#endif  // PREFCOVER_CLICKSTREAM_SESSION_H_
