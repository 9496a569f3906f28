#include "core/engine.h"

#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "core/sharded_engine.h"
#include "feed/workload.h"
#include "obs/stats_export.h"

namespace adrec::core {
namespace {

class EngineStatsTest : public ::testing::Test {
 protected:
  EngineStatsTest() {
    feed::WorkloadOptions opts;
    opts.seed = 313;
    opts.num_users = 15;
    opts.num_places = 10;
    opts.num_ads = 4;
    opts.days = 4;
    workload_ = feed::GenerateWorkload(opts);
  }

  /// Fresh engine with all ads inserted and the whole trace replayed.
  std::unique_ptr<RecommendationEngine> BuildAndReplay(
      EngineOptions options = {}) {
    auto engine = std::make_unique<RecommendationEngine>(
        workload_.kb, workload_.slots, options);
    for (const feed::Ad& ad : workload_.ads) {
      EXPECT_TRUE(engine->InsertAd(ad).ok());
    }
    for (const feed::FeedEvent& e : workload_.MergedEvents()) {
      engine->OnEvent(e);
    }
    return engine;
  }

  feed::Workload workload_;
};

TEST_F(EngineStatsTest, CountersMatchIngestedEvents) {
  auto engine = BuildAndReplay();
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.tweets, workload_.tweets.size());
  EXPECT_EQ(stats.checkins, workload_.check_ins.size());
  EXPECT_EQ(stats.ads_inserted, workload_.ads.size());
  EXPECT_EQ(stats.ads_removed, 0u);
  EXPECT_EQ(stats.topk_queries, 0u);
  EXPECT_EQ(stats.analyses_run, 0u);
}

TEST_F(EngineStatsTest, StageTimersPopulatedAfterReplay) {
  auto engine = BuildAndReplay();
  size_t impressions = 0;
  for (const feed::Tweet& t : workload_.tweets) {
    impressions += engine->TopKAdsForTweet(t, 3).size();
  }
  ASSERT_TRUE(engine->RunAnalysis(0.5).ok());

  const EngineStats stats = engine->Stats();
  // Every tweet passed through annotate and profile-update; ad inserts
  // also hit the annotate stage.
  EXPECT_EQ(stats.annotate_us.count(),
            workload_.tweets.size() + workload_.ads.size());
  EXPECT_EQ(stats.profile_update_us.count(),
            workload_.tweets.size() + workload_.check_ins.size());
  EXPECT_EQ(stats.index_update_us.count(), workload_.ads.size());
  EXPECT_EQ(stats.topk_us.count(), workload_.tweets.size());
  EXPECT_EQ(stats.topk_queries, workload_.tweets.size());
  EXPECT_EQ(stats.impressions_served, impressions);
  EXPECT_EQ(stats.analyses_run, 1u);
  EXPECT_EQ(stats.analysis_ms.count(), 1u);
  // Lattice gauges reflect the analysis.
  EXPECT_EQ(stats.topic_triconcepts,
            engine->analysis().stats().topic_triconcepts);
  EXPECT_EQ(stats.location_triconcepts,
            engine->analysis().stats().location_triconcepts);
  // Quantiles are ordered and positive.
  const Histogram& topk = stats.topk_us;
  EXPECT_GT(topk.Quantile(0.5), 0.0);
  EXPECT_LE(topk.Quantile(0.5), topk.Quantile(0.95));
  EXPECT_LE(topk.Quantile(0.95), topk.Quantile(0.99));
}

TEST_F(EngineStatsTest, TimingCanBeDisabledCountersRemain) {
  EngineOptions options;
  options.collect_stage_timings = false;
  auto engine = BuildAndReplay(options);
  for (const feed::Tweet& t : workload_.tweets) {
    (void)engine->TopKAdsForTweet(t, 3);
  }
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.annotate_us.count(), 0u);
  EXPECT_EQ(stats.topk_us.count(), 0u);
  EXPECT_EQ(stats.tweets, workload_.tweets.size());
  EXPECT_EQ(stats.topk_queries, workload_.tweets.size());
}

TEST_F(EngineStatsTest, IndexScanCountersReachPrometheus) {
  auto engine = BuildAndReplay();
  uint64_t scanned = 0;
  uint64_t cell_plans = 0;
  for (const feed::Tweet& t : workload_.tweets) {
    (void)engine->TopKAdsForTweet(t, 3);
    scanned += engine->ad_index().last_postings_scanned();
    if (engine->ad_index().last_used_cell_plan()) ++cell_plans;
  }
  EXPECT_GT(scanned, 0u);
  const obs::MetricsSnapshot snap = engine->metrics().Snapshot();
  EXPECT_EQ(snap.counters.at("index.postings_scanned"), scanned);
  EXPECT_EQ(snap.counters.at("index.cell_plan_queries"), cell_plans);
  const std::string prom = obs::ExportPrometheus(snap);
  EXPECT_NE(prom.find("adrec_index_postings_scanned_total " +
                      std::to_string(scanned) + "\n"),
            std::string::npos);
  EXPECT_NE(prom.find("adrec_index_cell_plan_queries_total " +
                      std::to_string(cell_plans) + "\n"),
            std::string::npos);

  // The compressed index exports its own postings.* scan counters.
  EngineOptions compressed;
  compressed.compressed_index = true;
  auto cengine = BuildAndReplay(compressed);
  EXPECT_EQ(cengine->metrics().Snapshot().counters.count(
                "index.postings_scanned"),
            0u);
}

TEST_F(EngineStatsTest, EngineJsonRoundTrips) {
  auto engine = BuildAndReplay();
  for (const feed::Tweet& t : workload_.tweets) {
    (void)engine->TopKAdsForTweet(t, 2);
  }
  const obs::StatsReport report =
      obs::BuildReport(engine->metrics().Snapshot());
  const std::string json = obs::ExportJson(report);
  auto parsed = obs::ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(obs::ExportJson(parsed.value()), json);
  EXPECT_EQ(parsed.value().counters.at("engine.tweets"),
            workload_.tweets.size());
  EXPECT_EQ(parsed.value().timers.at("engine.topk_us").count,
            workload_.tweets.size());
}

TEST_F(EngineStatsTest, ResetMetricsZeroesButKeepsIngestTotals) {
  auto engine = BuildAndReplay();
  engine->ResetMetrics();
  const EngineStats stats = engine->Stats();
  EXPECT_EQ(stats.tweets, 0u);
  EXPECT_EQ(stats.annotate_us.count(), 0u);
  EXPECT_EQ(engine->tweets_ingested(), workload_.tweets.size());
}

TEST_F(EngineStatsTest, ShardedMergeEqualsSumOfShards) {
  ShardedEngine engine(workload_.kb, workload_.slots, 3);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(engine.InsertAd(ad).ok());
  }
  for (const feed::FeedEvent& e : workload_.MergedEvents()) {
    engine.OnEvent(e);
  }
  for (const feed::Tweet& t : workload_.tweets) {
    (void)engine.TopKAdsForTweet(t, 3);
  }
  ASSERT_TRUE(engine.RunAnalysis(0.5).ok());

  uint64_t sum_tweets = 0;
  uint64_t sum_ads = 0;
  size_t sum_topk_samples = 0;
  double sum_topk_time = 0.0;
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const EngineStats shard = engine.shard(s).Stats();
    sum_tweets += shard.tweets;
    sum_ads += shard.ads_inserted;
    sum_topk_samples += shard.topk_us.count();
    sum_topk_time += shard.topk_us.sum();
  }

  const EngineStats merged = engine.Stats();
  EXPECT_EQ(merged.tweets, sum_tweets);
  EXPECT_EQ(merged.tweets, workload_.tweets.size());
  // Ads are broadcast, so the aggregate counts one insert per shard.
  EXPECT_EQ(merged.ads_inserted, sum_ads);
  EXPECT_EQ(merged.ads_inserted, workload_.ads.size() * engine.num_shards());
  EXPECT_EQ(merged.topk_us.count(), sum_topk_samples);
  EXPECT_EQ(merged.topk_us.count(), workload_.tweets.size());
  EXPECT_DOUBLE_EQ(merged.topk_us.sum(), sum_topk_time);
  EXPECT_EQ(merged.analyses_run, engine.num_shards());

  // The generic merged snapshot agrees with the typed view.
  const obs::MetricsSnapshot snap = engine.MergedMetrics();
  EXPECT_EQ(snap.counters.at("engine.tweets"), merged.tweets);
  EXPECT_EQ(snap.timers.at("engine.topk_us").count(),
            merged.topk_us.count());
}

// The frequency-cap ledger gauges count the distinct (user, ad) pairs the
// charged topks served and the ledger's bytes, per shard and summed.
TEST_F(EngineStatsTest, FreqCapGaugesTrackChargedPairs) {
  auto engine = BuildAndReplay();
  ShardedEngine sharded(workload_.kb, workload_.slots, 3);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(sharded.InsertAd(ad).ok());
  }
  for (const feed::FeedEvent& e : workload_.MergedEvents()) {
    sharded.OnEvent(e);
  }
  const obs::MetricsSnapshot before = engine->metrics().Snapshot();
  EXPECT_EQ(before.gauges.at("ads.freqcap_pairs"), 0.0);
  EXPECT_EQ(before.gauges.at("ads.freqcap_bytes"), 0.0);
  EXPECT_EQ(before.gauges.at("ads.freqcap_pooled_pairs"), 0.0);

  constexpr size_t kTopks = 60;
  std::set<std::pair<uint32_t, uint32_t>> served;
  std::set<std::pair<uint32_t, uint32_t>> served_sharded;
  for (size_t i = 0; i < kTopks && i < workload_.tweets.size(); ++i) {
    const feed::Tweet& t = workload_.tweets[i];
    for (const index::ScoredAd& sa : engine->TopKAdsForTweet(t, 3)) {
      served.emplace(t.user.value, sa.ad.value);
    }
    for (const index::ScoredAd& sa : sharded.TopKAdsForTweet(t, 3)) {
      served_sharded.emplace(t.user.value, sa.ad.value);
    }
  }
  ASSERT_FALSE(served.empty());

  const ads::FrequencyCapper& capper = engine->frequency_capper();
  const obs::MetricsSnapshot snap = engine->metrics().Snapshot();
  EXPECT_EQ(capper.tracked_pairs(), served.size());
  EXPECT_EQ(snap.gauges.at("ads.freqcap_pairs"),
            static_cast<double>(served.size()));
  EXPECT_EQ(snap.gauges.at("ads.freqcap_bytes"),
            static_cast<double>(capper.approx_bytes()));
  EXPECT_GT(capper.approx_bytes(), 0u);
  EXPECT_EQ(snap.gauges.at("ads.freqcap_pooled_pairs"),
            static_cast<double>(capper.pooled_pairs()));

  // Sharded: every shard's ledger holds its own users' pairs; the merged
  // snapshot sums them.
  double shard_bytes = 0;
  double shard_pooled = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const ads::FrequencyCapper& shard_capper =
        sharded.shard(s).frequency_capper();
    shard_bytes += static_cast<double>(shard_capper.approx_bytes());
    shard_pooled += static_cast<double>(shard_capper.pooled_pairs());
  }
  const obs::MetricsSnapshot merged = sharded.MergedMetrics();
  EXPECT_EQ(merged.gauges.at("ads.freqcap_pairs"),
            static_cast<double>(served_sharded.size()));
  EXPECT_EQ(merged.gauges.at("ads.freqcap_bytes"), shard_bytes);
  EXPECT_EQ(merged.gauges.at("ads.freqcap_pooled_pairs"), shard_pooled);
}

TEST_F(EngineStatsTest, AnalysisSubPhaseSpansAreRecorded) {
  auto engine = BuildAndReplay();
  ASSERT_TRUE(engine->RunAnalysis(0.5).ok());
  ASSERT_TRUE(engine->RunAnalysis(0.6).ok());
  const EngineStats stats = engine->Stats();

  // One sample per analysis in every sub-phase span.
  EXPECT_EQ(stats.analysis_build_ms.count(), 2u);
  EXPECT_EQ(stats.analysis_trias_location_ms.count(), 2u);
  EXPECT_EQ(stats.analysis_trias_topic_ms.count(), 2u);
  EXPECT_EQ(stats.analysis_decode_ms.count(), 2u);
  EXPECT_EQ(stats.analysis_ms.count(), 2u);

  // The sub-phases partition the analysis: their total cannot exceed the
  // end-to-end time they are carved out of.
  const double phases = stats.analysis_build_ms.sum() +
                        stats.analysis_trias_location_ms.sum() +
                        stats.analysis_trias_topic_ms.sum() +
                        stats.analysis_decode_ms.sum();
  EXPECT_LE(phases, stats.analysis_ms.sum() * 1.05);
  EXPECT_GT(phases, 0.0);

  // The spans reach the generic registry under their metric names.
  const obs::MetricsSnapshot snap = engine->metrics().Snapshot();
  EXPECT_EQ(snap.timers.at("engine.analysis_build_ms").count(), 2u);
  EXPECT_EQ(snap.timers.at("engine.analysis_trias_location_ms").count(),
            2u);
  EXPECT_EQ(snap.timers.at("engine.analysis_trias_topic_ms").count(), 2u);
  EXPECT_EQ(snap.timers.at("engine.analysis_decode_ms").count(), 2u);
}

}  // namespace
}  // namespace adrec::core
