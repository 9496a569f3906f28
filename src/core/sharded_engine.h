#ifndef ADREC_CORE_SHARDED_ENGINE_H_
#define ADREC_CORE_SHARDED_ENGINE_H_

#include <memory>
#include <vector>

#include "core/engine.h"

namespace adrec::core {

/// A user-sharded deployment of the engine: users are hash-partitioned
/// across N independent single-threaded engines; ad operations are
/// broadcast; the expensive triadic analysis runs shard-parallel with
/// std::thread.
///
/// Semantics note: concept mining is per shard, so communities spanning
/// shards are mined as their shard-local projections. A user's
/// *membership* in the match is preserved in practice (their own
/// incidences travel with them), but community extents reported by a
/// shard contain only that shard's users — the standard accuracy/scale
/// trade of user partitioning. The sharded match is the union of shard
/// matches.
class ShardedEngine {
 public:
  /// Creates `num_shards` engines sharing one knowledge base.
  ShardedEngine(std::shared_ptr<annotate::KnowledgeBase> kb,
                timeline::TimeSlotScheme slots, size_t num_shards,
                EngineOptions options = {});

  /// Routes a tweet/check-in to its owner shard; broadcasts ad ops.
  void OnEvent(const feed::FeedEvent& event);
  void OnTweet(const feed::Tweet& tweet);
  void OnCheckIn(const feed::CheckIn& check_in);
  Status InsertAd(const feed::Ad& ad);
  Status RemoveAd(AdId id);

  /// Window-only replay routed to the owner shard (same semantics as
  /// RecommendationEngine::ReplayForAnalysis; ad events are ignored).
  /// Used by snapshot + bounded-replay recovery (core/snapshot, wal).
  void ReplayForAnalysis(const feed::FeedEvent& event);

  // --- Per-shard apply, for per-shard WAL streams and worker pools
  // (wal/sharded_wal.h, serve/pool). The caller owns the routing
  // invariant: tweets/check-ins handed to shard `s` must hash there
  // (checked), while ad ops are applied to exactly the named shard —
  // the per-stream log duplicates them into every stream, so replaying
  // stream `s` into shard `s` reproduces the broadcast. ---

  /// Live-apply one event to one shard (ad statuses ignored, like
  /// OnEvent). Tweets/check-ins are checked against ShardOf.
  void ApplyToShard(size_t shard, const feed::FeedEvent& event);
  /// Window-only replay of one event into one shard (ad events ignored).
  void ReplayForAnalysisShard(size_t shard, const feed::FeedEvent& event);
  /// Inventory ops on a single shard, with the usual status surface
  /// (kAlreadyExists / kNotFound for idempotent replay tolerance).
  Status InsertAdOnShard(size_t shard, const feed::Ad& ad);
  Status RemoveAdOnShard(size_t shard, AdId id);
  /// The triadic analysis on one shard only (a pool worker runs its own
  /// shards; the fan-out replaces the std::thread spread of
  /// RunAnalysis). `alpha < 0` uses the shard's configured alpha.
  Status RunAnalysisOnShard(size_t shard, double alpha);
  /// One shard's match, un-merged (serve/pool fans these out and merges
  /// with MergeMatches).
  Result<MatchResult> RecommendUsersOnShard(size_t shard, AdId id) const;
  /// Folds per-shard matches into the canonical union ranking (score
  /// desc, user asc) — the exact merge RecommendUsers applies.
  static MatchResult MergeMatches(std::vector<MatchResult> parts);

  /// Runs the triadic analysis on every shard in parallel; the no-arg
  /// form uses each shard's configured EngineOptions::alpha.
  Status RunAnalysis(double alpha);
  Status RunAnalysis();

  /// Union of the shard matches, re-ranked (score desc, user asc).
  Result<MatchResult> RecommendUsers(AdId id) const;

  /// Routed to the author's shard.
  std::vector<index::ScoredAd> TopKAdsForTweet(const feed::Tweet& tweet,
                                               size_t k);

  /// Cache support, routed to the author's shard (budgets and frequency
  /// caps live per shard — impressions charge where the query serves).
  TopkContext TopkContextFor(const feed::Tweet& tweet) const;
  bool ChargeCachedTopK(const feed::Tweet& tweet,
                        const std::vector<AdId>& ads);
  bool frequency_cap_enabled() const {
    return shards_[0]->frequency_cap_enabled();
  }
  /// Stored ad lookup (nullptr if absent). Ad inventory is broadcast, so
  /// shard 0 is authoritative for targeting metadata.
  const ads::StoredAd* FindAd(AdId id) const {
    return shards_[0]->ad_store().Find(id);
  }

  size_t num_shards() const { return shards_.size(); }
  const RecommendationEngine& shard(size_t i) const { return *shards_[i]; }
  /// Mutable shard access for snapshot restore (core/snapshot loads each
  /// shard's files directly into its engine).
  RecommendationEngine* mutable_shard(size_t i) { return shards_[i].get(); }

  // --- Observability. ---

  /// Aggregate view: every shard's EngineStats folded together (counters
  /// add, stage histograms merge via Histogram::Merge). Per-shard stats
  /// remain reachable through shard(i).Stats().
  EngineStats Stats() const;

  /// Aggregate metric registry snapshot across shards (same merge rules),
  /// for the generic obs exporters, plus the shared analyzer's `text.*`
  /// counters once.
  obs::MetricsSnapshot MergedMetrics() const;

  /// The shard owning a user.
  size_t ShardOf(UserId user) const;

 private:
  std::shared_ptr<annotate::KnowledgeBase> kb_;
  std::vector<std::unique_ptr<RecommendationEngine>> shards_;
};

}  // namespace adrec::core

#endif  // ADREC_CORE_SHARDED_ENGINE_H_
