#include "core/sharded_engine.h"

#include "obs/trace.h"

#include <algorithm>
#include <thread>

#include "common/hashing.h"
#include "common/logging.h"

namespace adrec::core {

ShardedEngine::ShardedEngine(std::shared_ptr<annotate::KnowledgeBase> kb,
                             timeline::TimeSlotScheme slots,
                             size_t num_shards, EngineOptions options)
    : kb_(kb) {
  ADREC_CHECK(num_shards > 0);
  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(
        std::make_unique<RecommendationEngine>(kb, slots, options));
  }
}

size_t ShardedEngine::ShardOf(UserId user) const {
  return ShardOfId(user.value, shards_.size());
}

void ShardedEngine::OnTweet(const feed::Tweet& tweet) {
  shards_[ShardOf(tweet.user)]->OnTweet(tweet);
}

void ShardedEngine::OnCheckIn(const feed::CheckIn& check_in) {
  shards_[ShardOf(check_in.user)]->OnCheckIn(check_in);
}

void ShardedEngine::OnEvent(const feed::FeedEvent& event) {
  switch (event.kind) {
    case feed::EventKind::kTweet:
      OnTweet(event.tweet);
      break;
    case feed::EventKind::kCheckIn:
      OnCheckIn(event.check_in);
      break;
    case feed::EventKind::kAdInsert:
      (void)InsertAd(event.ad);
      break;
    case feed::EventKind::kAdDelete:
      (void)RemoveAd(event.ad_id);
      break;
  }
}

void ShardedEngine::ReplayForAnalysis(const feed::FeedEvent& event) {
  switch (event.kind) {
    case feed::EventKind::kTweet:
      shards_[ShardOf(event.tweet.user)]->ReplayForAnalysis(event);
      break;
    case feed::EventKind::kCheckIn:
      shards_[ShardOf(event.check_in.user)]->ReplayForAnalysis(event);
      break;
    case feed::EventKind::kAdInsert:
    case feed::EventKind::kAdDelete:
      break;  // inventory is snapshot state, never replayed
  }
}

void ShardedEngine::ApplyToShard(size_t shard,
                                 const feed::FeedEvent& event) {
  ADREC_CHECK(shard < shards_.size());
  switch (event.kind) {
    case feed::EventKind::kTweet:
      ADREC_CHECK(ShardOf(event.tweet.user) == shard);
      shards_[shard]->OnTweet(event.tweet);
      break;
    case feed::EventKind::kCheckIn:
      ADREC_CHECK(ShardOf(event.check_in.user) == shard);
      shards_[shard]->OnCheckIn(event.check_in);
      break;
    case feed::EventKind::kAdInsert:
      (void)shards_[shard]->InsertAd(event.ad);
      break;
    case feed::EventKind::kAdDelete:
      (void)shards_[shard]->RemoveAd(event.ad_id);
      break;
  }
}

void ShardedEngine::ReplayForAnalysisShard(size_t shard,
                                           const feed::FeedEvent& event) {
  ADREC_CHECK(shard < shards_.size());
  switch (event.kind) {
    case feed::EventKind::kTweet:
      ADREC_CHECK(ShardOf(event.tweet.user) == shard);
      shards_[shard]->ReplayForAnalysis(event);
      break;
    case feed::EventKind::kCheckIn:
      ADREC_CHECK(ShardOf(event.check_in.user) == shard);
      shards_[shard]->ReplayForAnalysis(event);
      break;
    case feed::EventKind::kAdInsert:
    case feed::EventKind::kAdDelete:
      break;  // inventory is snapshot state, never replayed
  }
}

Status ShardedEngine::InsertAdOnShard(size_t shard, const feed::Ad& ad) {
  ADREC_CHECK(shard < shards_.size());
  return shards_[shard]->InsertAd(ad);
}

Status ShardedEngine::RemoveAdOnShard(size_t shard, AdId id) {
  ADREC_CHECK(shard < shards_.size());
  return shards_[shard]->RemoveAd(id);
}

Status ShardedEngine::RunAnalysisOnShard(size_t shard, double alpha) {
  ADREC_CHECK(shard < shards_.size());
  return alpha < 0 ? shards_[shard]->RunAnalysis()
                   : shards_[shard]->RunAnalysis(alpha);
}

Result<MatchResult> ShardedEngine::RecommendUsersOnShard(size_t shard,
                                                         AdId id) const {
  ADREC_CHECK(shard < shards_.size());
  return shards_[shard]->RecommendUsers(id);
}

MatchResult ShardedEngine::MergeMatches(std::vector<MatchResult> parts) {
  MatchResult merged;
  for (MatchResult& part : parts) {
    for (MatchedUser& mu : part.users) {
      merged.users.push_back(mu);
    }
    merged.location_candidates += part.location_candidates;
    merged.topic_candidates += part.topic_candidates;
  }
  std::sort(merged.users.begin(), merged.users.end(),
            [](const MatchedUser& a, const MatchedUser& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.user.value < b.user.value;
            });
  return merged;
}

Status ShardedEngine::InsertAd(const feed::Ad& ad) {
  for (auto& shard : shards_) {
    ADREC_RETURN_NOT_OK(shard->InsertAd(ad));
  }
  return Status::OK();
}

Status ShardedEngine::RemoveAd(AdId id) {
  for (auto& shard : shards_) {
    ADREC_RETURN_NOT_OK(shard->RemoveAd(id));
  }
  return Status::OK();
}

Status ShardedEngine::RunAnalysis(double alpha) {
  std::vector<Status> results(shards_.size());
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  // The caller's request trace rides into shard 0's worker (the shards
  // run the same phases in parallel, so shard 0 is representative; one
  // shard only, because a TraceBuilder has a single writer). Safe: the
  // caller blocks in join() for the worker's whole lifetime.
  obs::TraceBuilder* trace = obs::ActiveTrace();
  for (size_t s = 0; s < shards_.size(); ++s) {
    workers.emplace_back([this, s, alpha, &results, trace] {
      obs::ScopedActiveTrace active(s == 0 ? trace : nullptr);
      results[s] = shards_[s]->RunAnalysis(alpha);
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& st : results) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status ShardedEngine::RunAnalysis() {
  std::vector<Status> results(shards_.size());
  std::vector<std::thread> workers;
  workers.reserve(shards_.size());
  obs::TraceBuilder* trace = obs::ActiveTrace();
  for (size_t s = 0; s < shards_.size(); ++s) {
    workers.emplace_back([this, s, &results, trace] {
      obs::ScopedActiveTrace active(s == 0 ? trace : nullptr);
      results[s] = shards_[s]->RunAnalysis();
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Status& st : results) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Result<MatchResult> ShardedEngine::RecommendUsers(AdId id) const {
  std::vector<MatchResult> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    Result<MatchResult> r = shard->RecommendUsers(id);
    if (!r.ok()) return r.status();
    parts.push_back(std::move(r).value());
  }
  return MergeMatches(std::move(parts));
}

EngineStats ShardedEngine::Stats() const {
  EngineStats merged;
  for (const auto& shard : shards_) merged.Merge(shard->Stats());
  return merged;
}

obs::MetricsSnapshot ShardedEngine::MergedMetrics() const {
  obs::MetricsSnapshot merged;
  for (const auto& shard : shards_) {
    merged.MergeFrom(shard->metrics().Snapshot());
  }
  // The shards share one analyzer: its counters are exported once here,
  // not summed per shard.
  const text::AnalyzerStats text = kb_->analyzer()->Stats();
  merged.gauges["text.vocabulary_terms"] =
      static_cast<double>(text.vocabulary_terms);
  merged.gauges["text.surface_forms"] = static_cast<double>(text.surface_forms);
  merged.counters["text.surface_misses"] = text.surface_misses;
  merged.counters["text.tokens"] = text.tokens;
  return merged;
}

std::vector<index::ScoredAd> ShardedEngine::TopKAdsForTweet(
    const feed::Tweet& tweet, size_t k) {
  return shards_[ShardOf(tweet.user)]->TopKAdsForTweet(tweet, k);
}

TopkContext ShardedEngine::TopkContextFor(const feed::Tweet& tweet) const {
  return shards_[ShardOf(tweet.user)]->TopkContextFor(tweet);
}

bool ShardedEngine::ChargeCachedTopK(const feed::Tweet& tweet,
                                     const std::vector<AdId>& ads) {
  return shards_[ShardOf(tweet.user)]->ChargeCachedTopK(tweet, ads);
}

}  // namespace adrec::core
