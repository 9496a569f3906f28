#include "ads/frequency_cap.h"

#include <algorithm>
#include <utility>

#include "common/hashing.h"

namespace adrec::ads {

namespace {

constexpr size_t kMinCapacity = 16;

}  // namespace

FrequencyCapper::FrequencyCapper(FrequencyCapOptions options)
    : options_(options) {}

size_t FrequencyCapper::Find(uint64_t key, uint64_t h) const {
  if (size_ == 0) return capacity_;
  const size_t mask = capacity_ - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    if (ctrl_[i] == kEmpty) return capacity_;
    if (slots_[i].key == key) return i;
  }
}

size_t FrequencyCapper::InsertNew(uint64_t key, uint64_t h) {
  if ((size_ + 1) * 4 > capacity_ * 3) {
    Rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
  }
  const size_t mask = capacity_ - 1;
  size_t i = h & mask;
  while (ctrl_[i] != kEmpty) i = (i + 1) & mask;
  ctrl_[i] = kFull;
  slots_[i].key = key;
  ++size_;
  return i;
}

void FrequencyCapper::EraseAt(size_t i) {
  if (ctrl_[i] & kPooled) UnpoolAt(i);
  const size_t mask = capacity_ - 1;
  for (size_t j = (i + 1) & mask; ctrl_[j] != kEmpty; j = (j + 1) & mask) {
    // Slide j into the hole unless its home lies cyclically in (i, j].
    const size_t home = Mix64(slots_[j].key) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      ctrl_[i] = ctrl_[j];
      slots_[i] = slots_[j];
      i = j;
    }
  }
  ctrl_[i] = kEmpty;
  --size_;
}

void FrequencyCapper::Rehash(size_t new_capacity) {
  std::vector<uint8_t> old_ctrl =
      std::exchange(ctrl_, std::vector<uint8_t>(new_capacity, kEmpty));
  std::unique_ptr<Slot[]> old_slots = std::exchange(
      slots_, std::make_unique_for_overwrite<Slot[]>(new_capacity));
  const size_t old_capacity = std::exchange(capacity_, new_capacity);
  const size_t mask = new_capacity - 1;
  for (size_t i = 0; i < old_capacity; ++i) {
    if (old_ctrl[i] == kEmpty) continue;
    size_t j = Mix64(old_slots[i].key) & mask;
    while (ctrl_[j] != kEmpty) j = (j + 1) & mask;
    ctrl_[j] = old_ctrl[i];
    slots_[j] = old_slots[i];
  }
}

std::span<const Timestamp> FrequencyCapper::TimesAt(size_t i) const {
  if (ctrl_[i] & kPooled) {
    return overflow_[static_cast<uint32_t>(slots_[i].value)];
  }
  return {&slots_[i].value, 1};
}

void FrequencyCapper::PoolAt(size_t i, std::vector<Timestamp> times) {
  uint32_t index;
  if (free_.empty()) {
    index = static_cast<uint32_t>(overflow_.size());
    overflow_.emplace_back();
  } else {
    index = free_.back();
    free_.pop_back();
  }
  TrackPoolCapacity(0, times.capacity());
  overflow_[index] = std::move(times);
  slots_[i].value = index;
  ctrl_[i] |= kPooled;
}

void FrequencyCapper::UnpoolAt(size_t i) {
  const uint32_t index = static_cast<uint32_t>(slots_[i].value);
  TrackPoolCapacity(overflow_[index].capacity(), 0);
  std::vector<Timestamp>().swap(overflow_[index]);
  free_.push_back(index);
  ctrl_[i] &= static_cast<uint8_t>(~kPooled);
}

size_t FrequencyCapper::approx_bytes() const {
  return capacity_ * (sizeof(Slot) + sizeof(uint8_t)) +
         overflow_.capacity() * sizeof(std::vector<Timestamp>) +
         free_.capacity() * sizeof(uint32_t) + pool_bytes_;
}

int FrequencyCapper::CountInWindow(UserId user, AdId ad,
                                   Timestamp now) const {
  const uint64_t key = KeyOf(user, ad);
  const size_t i = Find(key, Mix64(key));
  if (i == capacity_) return 0;
  const Timestamp horizon = now - options_.window;
  // Pure count, no pruning: Record order is not guaranteed monotone in
  // `now` (explicit-time probes, replays), so the history may not be
  // sorted — scan it rather than trusting its ends.
  int count = 0;
  for (const Timestamp t : TimesAt(i)) {
    if (t > horizon) ++count;
  }
  return count;
}

bool FrequencyCapper::Allowed(UserId user, AdId ad, Timestamp now) const {
  return CountInWindow(user, ad, now) < options_.max_impressions;
}

void FrequencyCapper::Record(UserId user, AdId ad, Timestamp now) {
  const uint64_t key = KeyOf(user, ad);
  const uint64_t h = Mix64(key);
  size_t i = Find(key, h);
  if (i == capacity_) {
    slots_[InsertNew(key, h)].value = now;
    return;
  }
  // Writes carry the pruning burden so reads can stay pure. Only a
  // leading run of expired entries is dropped: the history is oldest-
  // first under monotone serving, and under out-of-order replays keeping
  // a few extra expired entries is harmless (reads count, not trust size).
  const Timestamp horizon = now - options_.window;
  Slot& slot = slots_[i];
  if (!(ctrl_[i] & kPooled)) {
    if (slot.value <= horizon) {
      slot.value = now;
      return;
    }
    std::vector<Timestamp> times;
    times.reserve(4);  // the next impressions append without reallocating
    times.push_back(slot.value);
    times.push_back(now);
    PoolAt(i, std::move(times));
    return;
  }
  std::vector<Timestamp>& times = overflow_[static_cast<uint32_t>(slot.value)];
  const auto keep = std::find_if(times.begin(), times.end(),
                                 [&](Timestamp t) { return t > horizon; });
  if (keep == times.end()) {
    UnpoolAt(i);
    slot.value = now;
    return;
  }
  const size_t before = times.capacity();
  times.erase(times.begin(), keep);
  times.push_back(now);
  TrackPoolCapacity(before, times.capacity());
}

bool FrequencyCapper::TryServe(UserId user, AdId ad, Timestamp now) {
  if (!Allowed(user, ad, now)) return false;
  Record(user, ad, now);
  return true;
}

void FrequencyCapper::ForEach(
    const std::function<void(UserId, AdId, std::span<const Timestamp>)>& fn)
    const {
  for (size_t i = 0; i < capacity_; ++i) {
    if (ctrl_[i] == kEmpty) continue;
    const uint64_t key = slots_[i].key;
    fn(UserId(static_cast<uint32_t>(key >> 32)),
       AdId(static_cast<uint32_t>(key & 0xFFFFFFFF)), TimesAt(i));
  }
}

void FrequencyCapper::RestoreHistory(UserId user, AdId ad,
                                     std::vector<Timestamp> times) {
  const uint64_t key = KeyOf(user, ad);
  const uint64_t h = Mix64(key);
  size_t i = Find(key, h);
  if (times.empty()) {
    if (i != capacity_) EraseAt(i);
    return;
  }
  if (i == capacity_) {
    i = InsertNew(key, h);
  } else if (ctrl_[i] & kPooled) {
    UnpoolAt(i);
  }
  if (times.size() == 1) {
    slots_[i].value = times.front();
  } else {
    PoolAt(i, std::move(times));
  }
}

void FrequencyCapper::Expire(Timestamp now) {
  const Timestamp horizon = now - options_.window;
  // Ascending sweep; after an erase, slot i holds an entry slid back from
  // later in its cluster, so it is examined again before moving on.
  for (size_t i = 0; i < capacity_;) {
    if (ctrl_[i] == kEmpty) {
      ++i;
      continue;
    }
    if (!(ctrl_[i] & kPooled)) {
      if (slots_[i].value <= horizon) {
        EraseAt(i);
      } else {
        ++i;
      }
      continue;
    }
    std::vector<Timestamp>& times =
        overflow_[static_cast<uint32_t>(slots_[i].value)];
    const auto keep = std::find_if(times.begin(), times.end(),
                                   [&](Timestamp t) { return t > horizon; });
    if (keep == times.end()) {
      EraseAt(i);
      continue;
    }
    if (times.end() - keep == 1) {
      const Timestamp last = *keep;
      UnpoolAt(i);
      slots_[i].value = last;
    } else {
      times.erase(times.begin(), keep);
    }
    ++i;
  }
}

}  // namespace adrec::ads
