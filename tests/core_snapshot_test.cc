#include "core/snapshot.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/experiment.h"

namespace adrec::core {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() {
    dir_ = (std::filesystem::temp_directory_path() /
            ("adrec_snap_" + std::to_string(::getpid())))
               .string();
  }
  ~SnapshotTest() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(SnapshotTest, RoundTripPreservesServingState) {
  feed::WorkloadOptions opts;
  opts.seed = 81;
  opts.num_users = 10;
  opts.num_places = 8;
  opts.num_ads = 4;
  opts.days = 3;
  eval::ExperimentSetup setup = eval::BuildExperiment(opts);
  RecommendationEngine& original = *setup.engine;

  // Serve a few impressions so counters are non-trivial.
  for (size_t i = 0; i < 20 && i < setup.workload.tweets.size(); ++i) {
    original.TopKAdsForTweet(setup.workload.tweets[i], 1);
  }

  ASSERT_TRUE(SaveEngineSnapshot(original, dir_).ok());

  RecommendationEngine restored(setup.workload.kb, setup.workload.slots);
  ASSERT_TRUE(LoadEngineSnapshot(dir_, &restored).ok());

  // Ad inventory and impression counters match.
  EXPECT_EQ(restored.ad_store().size(), original.ad_store().size());
  original.ad_store().ForEach([&](const ads::StoredAd& stored) {
    const ads::StoredAd* r = restored.ad_store().Find(stored.ad.id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->impressions_served, stored.impressions_served);
    EXPECT_EQ(r->ad.copy, stored.ad.copy);
    EXPECT_EQ(r->ad.target_locations, stored.ad.target_locations);
  });

  // Profiles match: interests and visit masses at a probe time.
  const Timestamp probe = opts.days * kSecondsPerDay;
  for (UserId user : original.profiles().KnownUsers()) {
    const auto a = original.profiles().InterestsAt(user, probe);
    const auto b = restored.profiles().InterestsAt(user, probe);
    ASSERT_EQ(a.size(), b.size()) << user.value;
    for (size_t i = 0; i < a.entries().size(); ++i) {
      EXPECT_EQ(a.entries()[i].id, b.entries()[i].id);
      EXPECT_NEAR(a.entries()[i].weight, b.entries()[i].weight, 1e-6);
    }
    for (uint32_t s = 0; s < setup.workload.slots.size(); ++s) {
      EXPECT_EQ(original.profiles().TopLocation(user, SlotId(s)),
                restored.profiles().TopLocation(user, SlotId(s)))
          << "user " << user.value << " slot " << s;
    }
  }

  // The streaming path produces identical results post-restore.
  const feed::Tweet& probe_tweet = setup.workload.tweets.back();
  auto orig_ads = original.TopKAdsForTweetExhaustive(probe_tweet, 5);
  auto rest_ads = restored.TopKAdsForTweetExhaustive(probe_tweet, 5);
  ASSERT_EQ(orig_ads.size(), rest_ads.size());
  for (size_t i = 0; i < orig_ads.size(); ++i) {
    EXPECT_EQ(orig_ads[i].ad, rest_ads[i].ad);
    EXPECT_NEAR(orig_ads[i].score, rest_ads[i].score, 1e-6);
  }
}

TEST_F(SnapshotTest, FrequencyCapHistoryRoundTrips) {
  feed::WorkloadOptions opts;
  opts.seed = 93;
  opts.num_users = 8;
  opts.num_places = 6;
  opts.num_ads = 3;
  opts.days = 2;
  eval::ExperimentSetup setup = eval::BuildExperiment(opts);
  RecommendationEngine& original = *setup.engine;

  // Serve repeatedly so some (user, ad) pairs accumulate history and the
  // default cap (5/day) starts to bind.
  for (size_t i = 0; i < 60 && i < setup.workload.tweets.size(); ++i) {
    original.TopKAdsForTweet(setup.workload.tweets[i], 2);
  }
  ASSERT_GT(original.frequency_capper().tracked_pairs(), 0u);

  ASSERT_TRUE(SaveEngineSnapshot(original, dir_).ok());
  RecommendationEngine restored(setup.workload.kb, setup.workload.slots);
  ASSERT_TRUE(LoadEngineSnapshot(dir_, &restored).ok());

  EXPECT_EQ(restored.frequency_capper().tracked_pairs(),
            original.frequency_capper().tracked_pairs());
  std::vector<std::pair<UserId, AdId>> pairs;
  original.frequency_capper().ForEach(
      [&](UserId user, AdId ad, std::span<const Timestamp>) {
        pairs.emplace_back(user, ad);
      });
  const Timestamp probe = setup.workload.tweets.back().time;
  for (const auto& [user, ad] : pairs) {
    EXPECT_EQ(restored.frequency_capper().CountInWindow(user, ad, probe),
              original.frequency_capper().CountInWindow(user, ad, probe))
        << "user " << user.value << " ad " << ad.value;
  }
}

TEST_F(SnapshotTest, SnapshotFilesAreCanonical) {
  // save -> load -> save again must reproduce every file byte for byte:
  // emission is sorted and floats are written with exact round-trip
  // precision, so no hash-map iteration order leaks into the files.
  feed::WorkloadOptions opts;
  opts.seed = 57;
  opts.num_users = 9;
  opts.num_places = 7;
  opts.num_ads = 3;
  opts.days = 2;
  eval::ExperimentSetup setup = eval::BuildExperiment(opts);
  for (size_t i = 0; i < 30 && i < setup.workload.tweets.size(); ++i) {
    setup.engine->TopKAdsForTweet(setup.workload.tweets[i], 1);
  }
  ASSERT_TRUE(SaveEngineSnapshot(*setup.engine, dir_).ok());

  RecommendationEngine restored(setup.workload.kb, setup.workload.slots);
  ASSERT_TRUE(LoadEngineSnapshot(dir_, &restored).ok());
  const std::string dir2 = dir_ + "_again";
  ASSERT_TRUE(SaveEngineSnapshot(restored, dir2).ok());

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  for (const char* name :
       {"/snapshot_profiles.tsv", "/snapshot_ads.tsv",
        "/snapshot_impressions.tsv", "/snapshot_freqcap.tsv"}) {
    EXPECT_EQ(slurp(dir_ + name), slurp(dir2 + name)) << name;
  }
  std::filesystem::remove_all(dir2);
}

TEST_F(SnapshotTest, LoadFailsCleanlyOnMissingDir) {
  auto analyzer = std::make_shared<text::Analyzer>();
  std::shared_ptr<annotate::KnowledgeBase> kb(
      annotate::BuildDemoKnowledgeBase(analyzer.get()));
  RecommendationEngine engine(kb, timeline::TimeSlotScheme::PaperScheme());
  EXPECT_FALSE(LoadEngineSnapshot(dir_ + "/nope", &engine).ok());
  EXPECT_EQ(engine.ad_store().size(), 0u);
  EXPECT_EQ(LoadEngineSnapshot(dir_, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, EmptyEngineRoundTrips) {
  auto analyzer = std::make_shared<text::Analyzer>();
  std::shared_ptr<annotate::KnowledgeBase> kb(
      annotate::BuildDemoKnowledgeBase(analyzer.get()));
  RecommendationEngine engine(kb, timeline::TimeSlotScheme::PaperScheme());
  ASSERT_TRUE(SaveEngineSnapshot(engine, dir_).ok());
  RecommendationEngine restored(kb, timeline::TimeSlotScheme::PaperScheme());
  ASSERT_TRUE(LoadEngineSnapshot(dir_, &restored).ok());
  EXPECT_EQ(restored.ad_store().size(), 0u);
  EXPECT_EQ(restored.profiles().size(), 0u);
}

TEST_F(SnapshotTest, MalformedProfilesRejectedBeforeMutation) {
  std::filesystem::create_directories(dir_);
  // Valid empty ads + impressions, malformed profiles.
  { std::ofstream(dir_ + "/snapshot_ads.tsv"); }
  { std::ofstream(dir_ + "/snapshot_impressions.tsv"); }
  {
    std::ofstream out(dir_ + "/snapshot_profiles.tsv");
    out << "I\t5\t0:1.0\n";  // I before P
  }
  auto analyzer = std::make_shared<text::Analyzer>();
  std::shared_ptr<annotate::KnowledgeBase> kb(
      annotate::BuildDemoKnowledgeBase(analyzer.get()));
  RecommendationEngine engine(kb, timeline::TimeSlotScheme::PaperScheme());
  EXPECT_FALSE(LoadEngineSnapshot(dir_, &engine).ok());
  EXPECT_EQ(engine.profiles().size(), 0u);  // nothing applied
}

}  // namespace
}  // namespace adrec::core
