#include "text/string_id_map.h"

#include <functional>

#include "common/logging.h"

namespace adrec::text {

uint32_t StringIdMap::Hash(std::string_view key) {
  const uint64_t h = std::hash<std::string_view>{}(key);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

size_t StringIdMap::Probe(std::string_view key, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.value == kNoValue) return i;
    if (slot.hash == hash && slot.length == key.size() &&
        std::string_view(arena_.data() + slot.offset, slot.length) == key) {
      return i;
    }
  }
}

const uint32_t* StringIdMap::Find(std::string_view key) const {
  if (size_ == 0) return nullptr;
  const Slot& slot = slots_[Probe(key, Hash(key))];
  return slot.value == kNoValue ? nullptr : &slot.value;
}

void StringIdMap::Insert(std::string_view key, uint32_t value) {
  ADREC_CHECK(value != kNoValue);
  ADREC_CHECK(arena_.size() + key.size() <= UINT32_MAX);
  if (2 * (size_ + 1) > slots_.size()) Grow();
  const uint32_t hash = Hash(key);
  Slot& slot = slots_[Probe(key, hash)];
  ADREC_CHECK(slot.value == kNoValue);
  slot = Slot{hash, static_cast<uint32_t>(arena_.size()),
              static_cast<uint32_t>(key.size()), value};
  arena_.append(key);
  ++size_;
}

void StringIdMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.value == kNoValue) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].value != kNoValue) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

}  // namespace adrec::text
