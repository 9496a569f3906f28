#ifndef ADREC_INDEX_AD_INDEX_H_
#define ADREC_INDEX_AD_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ads/ad_store.h"
#include "common/id_types.h"
#include "common/status.h"
#include "index/query.h"
#include "text/sparse_vector.h"

namespace adrec::index {

/// The high-speed matcher: an inverted index over ad topic vectors with
/// impact-ordered postings and a threshold-based early-termination top-k,
/// plus per-cell candidate lists for location-selective queries (see
/// DESIGN.md §2, "AdIndex query plan"). Insert and Remove keep every list
/// exact (no tombstones), which is what lets the engine sustain ad churn
/// without rebuilds (E6).
///
/// TopK reuses per-index scratch state, so it must not run concurrently
/// with itself or with a mutation on the same index.
class AdIndex {
 public:
  AdIndex() = default;

  /// Indexes an ad. `topics` weights must be >= 0.
  Status Insert(AdId id, const text::SparseVector& topics,
                const std::vector<LocationId>& target_locations,
                const std::vector<SlotId>& target_slots, double bid = 1.0);

  /// Removes an ad and its postings. NotFound if absent.
  Status Remove(AdId id);

  /// Top-k ads for a query, scored as
  ///   score = bid * dot(query.topics, ad.topics)
  /// over ads passing the location/slot filters. Results sorted by
  /// descending score, ties by ascending ad id; zero-score ads never
  /// appear. Byte-identical to TopKExhaustive. Early termination:
  /// posting lists are consumed in impact order and scanning stops when
  /// the remaining upper bound cannot beat the current k-th score; a
  /// location-filtered query that has scanned more postings than its
  /// cell's list and the untargeted list hold finishes on those lists.
  std::vector<ScoredAd> TopK(const AdQuery& query) const;

  /// Reference scorer: same semantics via a full scan (the E3 baseline).
  std::vector<ScoredAd> TopKExhaustive(const AdQuery& query) const;

  /// Number of live ads.
  size_t size() const { return slot_of_.size(); }

  /// Diagnostics: postings plus cell-list candidates touched by the last
  /// TopK call (E3/E4 report, index.postings_scanned).
  size_t last_postings_scanned() const { return last_postings_scanned_; }

  /// Whether the last TopK call finished on the location-cell plan.
  bool last_used_cell_plan() const { return last_used_cell_plan_; }

  /// Number of posting lists currently held.
  size_t num_lists() const { return postings_.size(); }

  /// Posting entries across all lists (one per positive topic weight of
  /// each live ad).
  size_t total_postings() const { return total_postings_; }

  /// Approximate resident bytes of the index payload: posting entries,
  /// cell-list entries and per-ad metadata. Maintained incrementally on
  /// insert/remove so reading it is O(1); compared against
  /// postings.bytes of the compressed index in bench_postings / E23.
  size_t approx_bytes() const {
    return total_postings_ * sizeof(Posting) + meta_bytes_ +
           (postings_.size() + cells_.size()) * kPerListOverhead;
  }

 private:
  struct Posting {
    uint32_t ad;
    uint32_t slot;  // dense index into meta_ / seen_
    double weight;
  };

  struct AdMeta {
    double bid = 1.0;
    text::SparseVector topics;
    std::vector<uint32_t> locations;  // sorted, unique; empty = everywhere
    std::vector<uint32_t> slots;      // sorted, unique; empty = always
    uint32_t ad = 0;
  };

  // Hash-node + vector-header overhead charged per posting list (and per
  // cell list) in approx_bytes(); a round figure, not a measurement.
  static constexpr size_t kPerListOverhead = 64;

  static size_t MetaBytes(const AdMeta& meta);
  // Exhaustive-scan semantics for one ad: 0 unless the ad passes the
  // filters and its dot product is positive.
  static double Score(const AdMeta& meta, const AdQuery& query);
  static bool PassesFilters(const AdMeta& meta, const AdQuery& query);

  // The candidate list holding `meta`'s slot for each of its cells (or
  // the untargeted list).
  void AddToCellLists(uint32_t slot, const AdMeta& meta);
  void RemoveFromCellLists(uint32_t slot, const AdMeta& meta);

  // topic -> postings sorted by (weight desc, ad id asc).
  std::unordered_map<uint32_t, std::vector<Posting>> postings_;
  // location cell -> slots of ads targeting it, sorted.
  std::unordered_map<uint32_t, std::vector<uint32_t>> cells_;
  // Slots of ads with no location targeting, sorted.
  std::vector<uint32_t> untargeted_;
  // Dense per-ad state, indexed by slot; freed slots are reused.
  std::vector<AdMeta> meta_;
  std::vector<uint32_t> free_slots_;
  std::unordered_map<uint32_t, uint32_t> slot_of_;  // ad id -> slot
  // Monotone upper bound on live bids (never lowered on Remove). Safe for
  // the TA stopping rule: a too-high bound only delays termination, it
  // can never admit a wrong result.
  double max_bid_bound_ = 0.0;
  // Per-query scratch: seen_[slot] == epoch_ marks an ad already scored
  // by the current TopK call.
  mutable std::vector<uint32_t> seen_;
  mutable uint32_t epoch_ = 0;
  mutable size_t last_postings_scanned_ = 0;
  mutable bool last_used_cell_plan_ = false;
  // Incremental memory accounting (see approx_bytes()).
  size_t total_postings_ = 0;
  size_t meta_bytes_ = 0;
};

}  // namespace adrec::index

#endif  // ADREC_INDEX_AD_INDEX_H_
