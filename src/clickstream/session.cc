#include "clickstream/session.h"

#include <algorithm>
#include <functional>

#include "util/logging.h"

namespace prefcover {

std::vector<ItemId> Session::Alternatives() const {
  std::vector<ItemId> alts;
  alts.reserve(clicks.size());
  for (ItemId item : clicks) {
    if (item == purchase) continue;
    if (std::find(alts.begin(), alts.end(), item) != alts.end()) continue;
    alts.push_back(item);
  }
  return alts;
}

std::vector<std::pair<ItemId, double>> Session::AlternativesWithDwell()
    const {
  PREFCOVER_DCHECK(!HasDwell() || dwell_seconds.size() == clicks.size());
  std::vector<std::pair<ItemId, double>> alts;
  alts.reserve(clicks.size());
  for (size_t i = 0; i < clicks.size(); ++i) {
    ItemId item = clicks[i];
    if (item == purchase) continue;
    double dwell = HasDwell() ? dwell_seconds[i] : -1.0;
    auto it = std::find_if(alts.begin(), alts.end(),
                           [item](const std::pair<ItemId, double>& entry) {
                             return entry.first == item;
                           });
    if (it == alts.end()) {
      alts.emplace_back(item, dwell);
    } else if (dwell > it->second) {
      it->second = dwell;  // keep the longest dwell per item
    }
  }
  return alts;
}

size_t ItemDictionary::FindSlot(std::string_view name, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kInvalidItem ||
        (slot.tag == tag && names_[slot.id] == name)) {
      return i;
    }
  }
}

void ItemDictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, Slot());
  for (const Slot& slot : old) {
    if (slot.id == kInvalidItem) continue;
    const uint64_t hash = std::hash<std::string_view>()(names_[slot.id]);
    slots_[FindSlot(names_[slot.id], hash)] = slot;
  }
}

ItemId ItemDictionary::Intern(std::string_view name) {
  // Keep the load at most 1/2, so probe runs stay short.
  if (2 * (names_.size() + 1) > slots_.size()) Grow();
  const uint64_t hash = std::hash<std::string_view>()(name);
  Slot& slot = slots_[FindSlot(name, hash)];
  if (slot.id != kInvalidItem) return slot.id;
  slot.id = static_cast<ItemId>(names_.size());
  slot.tag = static_cast<uint32_t>(hash >> 32);
  names_.emplace_back(name);
  return slot.id;
}

ItemId ItemDictionary::Lookup(std::string_view name) const {
  if (slots_.empty()) return kInvalidItem;
  return slots_[FindSlot(name, std::hash<std::string_view>()(name))].id;
}

const std::string& ItemDictionary::Name(ItemId id) const {
  PREFCOVER_CHECK(id < names_.size());
  return names_[id];
}

}  // namespace prefcover
