#include "index/ad_index.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"
#include "index/topk_heap.h"

namespace adrec::index {
namespace {

// Impact order, ties by ascending ad id. Equal-weight runs are therefore
// id-sorted, which the tied-run skip in TopK relies on.
template <typename P>
bool ImpactBefore(const P& a, const P& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.ad < b.ad;
}

template <typename Id>
std::vector<uint32_t> SortedValues(const std::vector<Id>& ids) {
  std::vector<uint32_t> out;
  out.reserve(ids.size());
  for (Id id : ids) out.push_back(id.value);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void InsertSorted(std::vector<uint32_t>* v, uint32_t x) {
  v->insert(std::lower_bound(v->begin(), v->end(), x), x);
}

void EraseSorted(std::vector<uint32_t>* v, uint32_t x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  ADREC_CHECK(it != v->end() && *it == x);
  v->erase(it);
}

bool ContainsSorted(const std::vector<uint32_t>& v, uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

size_t AdIndex::MetaBytes(const AdMeta& meta) {
  // The meta_ element, its seen_ stamp, an ~32B slot_of_ hash node, the
  // heap payload of its vectors, and its cell-list entries.
  return sizeof(AdMeta) + sizeof(uint32_t) + 32 +
         meta.topics.size() * sizeof(text::SparseEntry) +
         (meta.locations.size() + meta.slots.size()) * sizeof(uint32_t) +
         std::max<size_t>(meta.locations.size(), 1) * sizeof(uint32_t);
}

bool AdIndex::PassesFilters(const AdMeta& meta, const AdQuery& query) {
  if (query.location.valid() && !meta.locations.empty() &&
      !ContainsSorted(meta.locations, query.location.value)) {
    return false;
  }
  if (query.slot.valid() && !meta.slots.empty() &&
      !ContainsSorted(meta.slots, query.slot.value)) {
    return false;
  }
  return true;
}

double AdIndex::Score(const AdMeta& meta, const AdQuery& query) {
  if (!PassesFilters(meta, query)) return 0.0;
  const double dot = query.topics.Dot(meta.topics);
  return dot > 0.0 ? dot * meta.bid : 0.0;
}

void AdIndex::AddToCellLists(uint32_t slot, const AdMeta& meta) {
  if (meta.locations.empty()) {
    InsertSorted(&untargeted_, slot);
    return;
  }
  for (uint32_t cell : meta.locations) InsertSorted(&cells_[cell], slot);
}

void AdIndex::RemoveFromCellLists(uint32_t slot, const AdMeta& meta) {
  if (meta.locations.empty()) {
    EraseSorted(&untargeted_, slot);
    return;
  }
  for (uint32_t cell : meta.locations) {
    auto it = cells_.find(cell);
    ADREC_CHECK(it != cells_.end());
    EraseSorted(&it->second, slot);
    if (it->second.empty()) cells_.erase(it);
  }
}

Status AdIndex::Insert(AdId id, const text::SparseVector& topics,
                       const std::vector<LocationId>& target_locations,
                       const std::vector<SlotId>& target_slots, double bid) {
  if (slot_of_.find(id.value) != slot_of_.end()) {
    return Status::AlreadyExists(
        StringFormat("ad %u already indexed", id.value));
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(meta_.size());
    meta_.emplace_back();
    seen_.push_back(0);
  }
  AdMeta& meta = meta_[slot];
  meta.ad = id.value;
  meta.bid = bid;
  meta.topics = topics;
  meta.locations = SortedValues(target_locations);
  meta.slots = SortedValues(target_slots);
  for (const text::SparseEntry& e : topics.entries()) {
    if (e.weight <= 0.0) continue;
    auto& list = postings_[e.id];
    const Posting p{id.value, slot, e.weight};
    list.insert(std::lower_bound(list.begin(), list.end(), p,
                                 ImpactBefore<Posting>),
                p);
    ++total_postings_;
  }
  AddToCellLists(slot, meta);
  max_bid_bound_ = std::max(max_bid_bound_, bid);
  meta_bytes_ += MetaBytes(meta);
  slot_of_.emplace(id.value, slot);
  return Status::OK();
}

Status AdIndex::Remove(AdId id) {
  auto it = slot_of_.find(id.value);
  if (it == slot_of_.end()) {
    return Status::NotFound(StringFormat("ad %u not indexed", id.value));
  }
  const uint32_t slot = it->second;
  slot_of_.erase(it);
  AdMeta& meta = meta_[slot];
  meta_bytes_ -= MetaBytes(meta);
  // Every posting of this incarnation is found by its (weight, id) key and
  // dropped now, so a later re-insert under the same id starts clean.
  for (const text::SparseEntry& e : meta.topics.entries()) {
    if (e.weight <= 0.0) continue;
    auto pl = postings_.find(e.id);
    ADREC_CHECK(pl != postings_.end());
    auto& list = pl->second;
    const Posting key{id.value, slot, e.weight};
    auto pos = std::lower_bound(list.begin(), list.end(), key,
                                ImpactBefore<Posting>);
    ADREC_CHECK(pos != list.end() && pos->slot == slot);
    list.erase(pos);
    --total_postings_;
    if (list.empty()) postings_.erase(pl);
  }
  RemoveFromCellLists(slot, meta);
  meta = AdMeta{};
  free_slots_.push_back(slot);
  return Status::OK();
}

std::vector<ScoredAd> AdIndex::TopK(const AdQuery& query) const {
  // Fagin's Threshold Algorithm over impact-ordered lists: sorted access
  // round-robins the per-topic posting lists; the first time an ad is
  // seen it is fully scored by random access to its stored topic vector.
  // The unseen-ad upper bound is sum_i(query_weight_i * current depth
  // weight_i) * max_bid; once it falls below the k-th score, stop.
  // DESIGN.md §2 ("AdIndex query plan") gives the soundness argument for
  // the tied-run skip and the location-cell switch.
  last_postings_scanned_ = 0;
  last_used_cell_plan_ = false;
  if (query.k == 0 || query.topics.empty() || slot_of_.empty()) return {};

  const double max_bid = max_bid_bound_;
  if (max_bid <= 0.0) return {};

  struct Cursor {
    double query_weight;
    const Posting* pos;
    const Posting* end;
  };
  // Query entries are id-sorted, so the bound below sums its terms in the
  // same order as SparseVector::Dot sums an ad's score.
  std::vector<Cursor> cursors;
  for (const text::SparseEntry& e : query.topics.entries()) {
    if (e.weight <= 0.0) continue;
    auto it = postings_.find(e.id);
    if (it == postings_.end()) continue;
    const std::vector<Posting>& list = it->second;
    cursors.push_back(Cursor{e.weight, list.data(), list.data() + list.size()});
  }
  if (cursors.empty()) return {};

  auto bound = [&cursors, max_bid] {
    double sum = 0.0;
    for (const Cursor& c : cursors) {
      if (c.pos != c.end) sum += c.query_weight * c.pos->weight;
    }
    return sum * max_bid;
  };

  if (++epoch_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    epoch_ = 1;
  }
  const uint32_t epoch = epoch_;

  // A location-filtered query can only return ads in its cell's list or
  // the untargeted list; once sorted access has cost more than scoring
  // those outright, finish on them instead.
  const std::vector<uint32_t>* cell = nullptr;
  size_t cell_plan_cost = std::numeric_limits<size_t>::max();
  if (query.location.valid()) {
    auto it = cells_.find(query.location.value);
    if (it != cells_.end()) cell = &it->second;
    cell_plan_cost = (cell != nullptr ? cell->size() : 0) + untargeted_.size();
  }

  TopKHeap heap(query.k);
  size_t scanned = 0;
  bool use_cell_plan = false;
  while (true) {
    // One round of sorted accesses.
    bool any = false;
    for (Cursor& c : cursors) {
      if (c.pos == c.end) continue;
      any = true;
      const Posting& p = *c.pos++;
      ++scanned;
      if (seen_[p.slot] == epoch) continue;
      seen_[p.slot] = epoch;
      heap.Offer(Score(meta_[p.slot], query), p.ad);
    }
    if (!any) break;
    if (scanned > cell_plan_cost) {
      use_cell_plan = true;
      break;
    }
    if (!heap.Full()) continue;
    // Threshold test: best possible score of any unseen ad. Strict
    // comparison: an unseen ad scoring exactly the threshold could still
    // win its tie-break, so only a strictly smaller bound is safe to stop
    // on.
    const double threshold = heap.Threshold();
    double b = bound();
    if (b == threshold) {
      // Tied-run skip: an unseen ad scores at most b == threshold, so it
      // can only enter with an id below the k-th ad's. A cursor whose
      // next id is above it skips the rest of its equal-weight run (ids
      // ascend within a run).
      const uint32_t kth_ad = heap.ThresholdAd();
      for (Cursor& c : cursors) {
        if (c.pos == c.end || c.pos->ad <= kth_ad) continue;
        const double w = c.pos->weight;
        c.pos = std::partition_point(
            c.pos, c.end, [w](const Posting& p) { return p.weight >= w; });
      }
      b = bound();
    }
    if (b < threshold) break;
  }

  if (use_cell_plan) {
    last_used_cell_plan_ = true;
    auto score_unseen = [&](const std::vector<uint32_t>& slots) {
      for (uint32_t slot : slots) {
        if (seen_[slot] == epoch) continue;
        ++scanned;
        heap.Offer(Score(meta_[slot], query), meta_[slot].ad);
      }
    };
    if (cell != nullptr) score_unseen(*cell);
    score_unseen(untargeted_);
  }
  last_postings_scanned_ = scanned;
  return heap.Drain();
}

std::vector<ScoredAd> AdIndex::TopKExhaustive(const AdQuery& query) const {
  last_postings_scanned_ = 0;
  last_used_cell_plan_ = false;
  TopKHeap heap(query.k);
  for (const auto& [id, slot] : slot_of_) {
    ++last_postings_scanned_;
    heap.Offer(Score(meta_[slot], query), id);
  }
  return heap.Drain();
}

}  // namespace adrec::index
