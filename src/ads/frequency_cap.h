#ifndef ADREC_ADS_FREQUENCY_CAP_H_
#define ADREC_ADS_FREQUENCY_CAP_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/id_types.h"
#include "common/sim_clock.h"

namespace adrec::ads {

/// Frequency-cap policy: at most `max_impressions` of the same ad to the
/// same user within a sliding `window`.
struct FrequencyCapOptions {
  int max_impressions = 3;
  DurationSec window = kSecondsPerDay;
};

/// Per-(user, ad) sliding-window impression counter — the guard that
/// stops the matcher from hammering one user with one ad. O(1) amortised
/// per call. Reads (Allowed/CountInWindow/ForEach) never mutate state:
/// expired impressions are pruned when the same pair Records again, or
/// in bulk via Expire(). Side-effect-free reads are load-bearing for the
/// topk result cache — a cache hit skips the engine's read path, so
/// cached and uncached servers stay byte-identical only if reads cannot
/// change subsequent answers (DESIGN.md §14).
///
/// Storage is a flat impression ledger: one open-addressing table
/// (linear probing, power-of-two capacity, load ≤ 3/4) of 16-byte slots
/// keyed by the packed pair, with a parallel control byte per slot. A
/// pair's history lives inline in its slot while it holds a single
/// timestamp; a pair that retains more moves its history into a shared
/// overflow pool and keeps the pool index in the slot. A new pair
/// therefore costs no allocation beyond amortised table growth, and a
/// table holds at most 17 B / (3/8 load) ≈ 45 B per inline pair, slack
/// included. A pooled pair adds its list (a 24 B header plus 8 B per
/// reserved timestamp, at least 4) and one malloc.
class FrequencyCapper {
 public:
  explicit FrequencyCapper(FrequencyCapOptions options = {});

  /// True iff showing `ad` to `user` at `now` stays under the cap.
  bool Allowed(UserId user, AdId ad, Timestamp now) const;

  /// Records a served impression.
  void Record(UserId user, AdId ad, Timestamp now);

  /// Convenience: Allowed() followed by Record() when allowed.
  bool TryServe(UserId user, AdId ad, Timestamp now);

  /// Impressions of (user, ad) still inside the window.
  int CountInWindow(UserId user, AdId ad, Timestamp now) const;

  /// Drops all state older than the window (bulk housekeeping). Keeps
  /// the table's capacity: nothing in the serving path calls it yet.
  void Expire(Timestamp now);

  /// Visits every tracked (user, ad) pair with its retained impression
  /// timestamps in insertion order (oldest first under monotone serving;
  /// snapshot serialization; unspecified pair order — serializers sort).
  /// May include impressions that have aged out of the window but not yet
  /// been pruned by a Record/Expire. The span is valid only during the
  /// callback.
  void ForEach(const std::function<void(UserId, AdId,
                                        std::span<const Timestamp>)>& fn)
      const;

  /// Replaces the impression history of one (user, ad) pair wholesale
  /// (snapshot restore). `times` must be oldest-first; an empty vector
  /// clears the pair.
  void RestoreHistory(UserId user, AdId ad, std::vector<Timestamp> times);

  size_t tracked_pairs() const { return size_; }

  /// Tracked pairs whose history lives in the overflow pool (more than
  /// one retained timestamp).
  size_t pooled_pairs() const { return overflow_.size() - free_.size(); }

  /// Heap bytes held by the ledger: table slots and control bytes
  /// (including empty slack), the overflow pool's list headers, free
  /// list and retained timestamps. O(1): the pool's element bytes are
  /// kept as a running total.
  size_t approx_bytes() const;

 private:
  struct Slot {
    uint64_t key;
    // The pair's only timestamp (inline), or its overflow_ index.
    int64_t value;
  };

  // Control byte: kEmpty, or kFull plus kPooled when the slot's value
  // is an overflow_ index.
  static constexpr uint8_t kEmpty = 0;
  static constexpr uint8_t kFull = 0x80;
  static constexpr uint8_t kPooled = 0x40;

  static uint64_t KeyOf(UserId user, AdId ad) {
    return (static_cast<uint64_t>(user.value) << 32) | ad.value;
  }

  /// Slot index holding `key` (whose Mix64 hash is `h`), or capacity_
  /// when absent.
  size_t Find(uint64_t key, uint64_t h) const;
  /// Claims a slot for a key known to be absent (growing first if the
  /// insert would pass the load limit); the caller fills slots_[i].value
  /// and ORs kPooled into the control byte if needed.
  size_t InsertNew(uint64_t key, uint64_t h);
  /// Removes slot `i` by backward-shift deletion, unpooling it first.
  /// Leaves no tombstone; entries only slide toward their home slot, so
  /// an ascending sweep that re-examines `i` after an erase still visits
  /// every survivor (some twice, which pruning tolerates).
  void EraseAt(size_t i);
  void Rehash(size_t new_capacity);

  /// The retained timestamps of full slot `i`.
  std::span<const Timestamp> TimesAt(size_t i) const;

  /// Moves `times` into a (reused or new) overflow_ entry and points
  /// full slot `i` at it.
  void PoolAt(size_t i, std::vector<Timestamp> times);
  /// Frees slot `i`'s overflow_ entry for reuse and clears its kPooled
  /// bit; the caller then stores an inline timestamp or erases the slot.
  void UnpoolAt(size_t i);
  /// Keeps pool_bytes_ in step after a pooled list's capacity moved.
  void TrackPoolCapacity(size_t before, size_t after) {
    pool_bytes_ += (after - before) * sizeof(Timestamp);
  }

  FrequencyCapOptions options_;
  size_t capacity_ = 0;  // 0 or a power of two
  size_t size_ = 0;
  std::vector<uint8_t> ctrl_;
  std::unique_ptr<Slot[]> slots_;
  // Histories of pairs that retain more than one timestamp, oldest
  // first; released entries hold no heap and are reused via free_.
  std::vector<std::vector<Timestamp>> overflow_;
  std::vector<uint32_t> free_;
  size_t pool_bytes_ = 0;  // sum of overflow_[i].capacity() * 8
};

}  // namespace adrec::ads

#endif  // ADREC_ADS_FREQUENCY_CAP_H_
