#ifndef ADREC_TEXT_STRING_ID_MAP_H_
#define ADREC_TEXT_STRING_ID_MAP_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adrec::text {

/// A flat open-addressing map from byte strings to 32-bit values, for the
/// analyzer's interning tables (the vocabulary index and the token memo).
/// Keys are copied once into one arena. A slot holds the key's hash, its
/// arena span and the value, so a probe reads one slot and, on a hash
/// match, the key bytes: about one cache miss per lookup on a large
/// table, where a node-based map takes several. Linear probing at load
/// ≤ 1/2; no erase (the tables only grow). Arena spans are 32-bit:
/// Insert aborts once the keys' bytes would pass 4 GiB.
class StringIdMap {
 public:
  /// Values must be below this; it marks an empty slot.
  static constexpr uint32_t kNoValue = UINT32_MAX;

  /// The value of `key`, or nullptr when absent. Valid until the next
  /// Insert.
  const uint32_t* Find(std::string_view key) const;

  /// Inserts `key`, which must be absent, with `value` (< kNoValue).
  void Insert(std::string_view key, uint32_t value);

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t offset = 0;  // key bytes: arena_[offset, offset + length)
    uint32_t length = 0;
    uint32_t value = kNoValue;
  };

  static uint32_t Hash(std::string_view key);
  /// The slot holding `key`, or the empty slot where its probe ends.
  size_t Probe(std::string_view key, uint32_t hash) const;
  void Grow();

  std::vector<Slot> slots_;  // size 0 or a power of two
  std::string arena_;
  size_t size_ = 0;
};

}  // namespace adrec::text

#endif  // ADREC_TEXT_STRING_ID_MAP_H_
