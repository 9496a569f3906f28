#include "core/sharded_engine.h"

#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "feed/workload.h"

namespace adrec::core {
namespace {

class ShardedTest : public ::testing::Test {
 protected:
  ShardedTest() {
    feed::WorkloadOptions opts;
    opts.seed = 71;
    opts.num_users = 20;
    opts.num_places = 10;
    opts.num_ads = 4;
    opts.days = 5;
    workload_ = feed::GenerateWorkload(opts);
  }

  std::unique_ptr<ShardedEngine> Build(size_t shards) {
    auto engine = std::make_unique<ShardedEngine>(workload_.kb,
                                                  workload_.slots, shards);
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

TEST_F(ShardedTest, RoutingIsStableAndCoversAllShards) {
  ShardedEngine engine(workload_.kb, workload_.slots, 4);
  std::set<size_t> used;
  for (uint32_t u = 0; u < 100; ++u) {
    const size_t s = engine.ShardOf(UserId(u));
    EXPECT_LT(s, 4u);
    EXPECT_EQ(s, engine.ShardOf(UserId(u)));  // stable
    used.insert(s);
  }
  EXPECT_EQ(used.size(), 4u);  // 100 users hit every shard
}

TEST_F(ShardedTest, EventsLandOnOwnerShardOnly) {
  auto engine = Build(3);
  size_t total_tweets = 0, total_checkins = 0;
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    total_tweets += engine->shard(s).tweets_ingested();
    total_checkins += engine->shard(s).checkins_ingested();
  }
  EXPECT_EQ(total_tweets, workload_.tweets.size());
  EXPECT_EQ(total_checkins, workload_.check_ins.size());
  // Ads are broadcast: every shard has the full inventory.
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    EXPECT_EQ(engine->shard(s).ad_store().size(), workload_.ads.size());
  }
}

TEST_F(ShardedTest, ParallelAnalysisSucceedsOnAllShards) {
  auto engine = Build(4);
  ASSERT_TRUE(engine->RunAnalysis(0.5).ok());
  for (const feed::Ad& ad : workload_.ads) {
    EXPECT_TRUE(engine->RecommendUsers(ad.id).ok());
  }
}

TEST_F(ShardedTest, SingleShardMatchesUnshardedEngine) {
  auto sharded = Build(1);
  ASSERT_TRUE(sharded->RunAnalysis(0.5).ok());

  RecommendationEngine flat(workload_.kb, workload_.slots);
  for (const feed::Ad& ad : workload_.ads) {
    ASSERT_TRUE(flat.InsertAd(ad).ok());
  }
  for (const feed::FeedEvent& e : workload_.MergedEvents()) flat.OnEvent(e);
  ASSERT_TRUE(flat.RunAnalysis(0.5).ok());

  for (const feed::Ad& ad : workload_.ads) {
    auto a = sharded->RecommendUsers(ad.id);
    auto b = flat.RecommendUsers(ad.id);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().users.size(), b.value().users.size());
    for (size_t i = 0; i < a.value().users.size(); ++i) {
      EXPECT_EQ(a.value().users[i].user, b.value().users[i].user);
      EXPECT_DOUBLE_EQ(a.value().users[i].score, b.value().users[i].score);
    }
  }
}

TEST_F(ShardedTest, ShardedMatchIsDeterministic) {
  auto run = [&] {
    auto engine = Build(4);
    EXPECT_TRUE(engine->RunAnalysis(0.5).ok());
    std::vector<std::vector<uint32_t>> out;
    for (const feed::Ad& ad : workload_.ads) {
      auto r = engine->RecommendUsers(ad.id);
      EXPECT_TRUE(r.ok());
      std::vector<uint32_t> users;
      for (const auto& mu : r.value().users) users.push_back(mu.user.value);
      out.push_back(std::move(users));
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(ShardedTest, TopKRoutesToOwnerShard) {
  auto engine = Build(3);
  const feed::Tweet& t = workload_.tweets.front();
  auto ads = engine->TopKAdsForTweet(t, 3);
  for (const auto& sa : ads) {
    EXPECT_LT(sa.ad.value, workload_.ads.size());
  }
  // Impressions were charged on the owner shard only.
  size_t charged_shards = 0;
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    size_t impressions = 0;
    engine->shard(s).ad_store().ForEach(
        [&](const ads::StoredAd& a) { impressions += a.impressions_served; });
    if (impressions > 0) ++charged_shards;
  }
  EXPECT_LE(charged_shards, 1u);
}

TEST_F(ShardedTest, RemoveAdBroadcasts) {
  auto engine = Build(2);
  ASSERT_TRUE(engine->RemoveAd(workload_.ads[0].id).ok());
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    EXPECT_EQ(engine->shard(s).ad_store().size(), workload_.ads.size() - 1);
  }
  EXPECT_EQ(engine->RemoveAd(workload_.ads[0].id).code(),
            StatusCode::kNotFound);
}

// Shards share one analyzer. Sharded WAL recovery and `--workers=N`
// pool workers drive different shards from different threads, so two
// threads analysing never-seen words — ingest and topk text alike — must
// not race (ThreadSanitizer runs this suite), and every new word must be
// interned exactly once.
TEST_F(ShardedTest, ShardsAnalyseNewWordsConcurrently) {
  auto engine = Build(2);
  const text::Analyzer& analyzer = *workload_.analyzer;
  const size_t vocab_before = analyzer.vocabulary().size();
  UserId owners[2];
  for (uint32_t u = 0, found = 0; found != 3; ++u) {
    const size_t s = engine->ShardOf(UserId(u));
    if ((found & (1u << s)) == 0) owners[s] = UserId(u);
    found |= 1u << s;
  }
  constexpr int kTweets = 150;
  const Timestamp start = 6 * kSecondsPerDay;
  auto drive = [&](size_t shard) {
    RecommendationEngine* e = engine->mutable_shard(shard);
    for (int i = 0; i < kTweets; ++i) {
      const std::string words = StringFormat("zq%zux%d volleyball", shard, i);
      e->OnTweet({owners[shard], start + i, words});
      e->TopKAdsForTweet(
          {owners[shard], start + i,
           StringFormat("coffee qz%zuy%d pitch", shard, i)},
          2);
    }
  };
  std::thread first(drive, 0);
  std::thread second(drive, 1);
  first.join();
  second.join();

  EXPECT_EQ(engine->shard(0).tweets_ingested() +
                engine->shard(1).tweets_ingested(),
            workload_.tweets.size() + 2 * kTweets);
  std::set<text::TermId> ids;
  for (size_t shard = 0; shard < 2; ++shard) {
    for (int i = 0; i < kTweets; ++i) {
      for (const std::string& word : {StringFormat("zq%zux%d", shard, i),
                                      StringFormat("qz%zuy%d", shard, i)}) {
        const text::TermId id = analyzer.vocabulary().Lookup(word);
        ASSERT_NE(id, text::kInvalidTerm) << word;
        ids.insert(id);
      }
    }
  }
  EXPECT_EQ(ids.size(), 4u * kTweets);
  EXPECT_EQ(analyzer.vocabulary().size(), vocab_before + 4 * kTweets);
}

}  // namespace
}  // namespace adrec::core
