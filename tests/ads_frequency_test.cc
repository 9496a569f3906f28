#include "ads/frequency_cap.h"

#include <iterator>
#include <map>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"

namespace adrec::ads {
namespace {

TEST(FrequencyCapTest, AllowsUpToCap) {
  FrequencyCapOptions opts;
  opts.max_impressions = 3;
  opts.window = 1000;
  FrequencyCapper cap(opts);
  const UserId u(1);
  const AdId a(7);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(cap.TryServe(u, a, 100 + i));
  }
  EXPECT_FALSE(cap.TryServe(u, a, 103));
  EXPECT_EQ(cap.CountInWindow(u, a, 103), 3);
}

TEST(FrequencyCapTest, WindowSlides) {
  FrequencyCapOptions opts;
  opts.max_impressions = 1;
  opts.window = 100;
  FrequencyCapper cap(opts);
  const UserId u(1);
  const AdId a(7);
  EXPECT_TRUE(cap.TryServe(u, a, 0));
  EXPECT_FALSE(cap.Allowed(u, a, 50));
  // At exactly horizon boundary the old impression expires.
  EXPECT_TRUE(cap.Allowed(u, a, 100));
  EXPECT_TRUE(cap.TryServe(u, a, 100));
  EXPECT_FALSE(cap.Allowed(u, a, 150));
}

TEST(FrequencyCapTest, PairsAreIndependent) {
  FrequencyCapOptions opts;
  opts.max_impressions = 1;
  FrequencyCapper cap(opts);
  EXPECT_TRUE(cap.TryServe(UserId(1), AdId(1), 10));
  EXPECT_TRUE(cap.TryServe(UserId(1), AdId(2), 10));  // different ad
  EXPECT_TRUE(cap.TryServe(UserId(2), AdId(1), 10));  // different user
  EXPECT_FALSE(cap.TryServe(UserId(1), AdId(1), 10));
}

TEST(FrequencyCapTest, ExpireDropsStaleState) {
  FrequencyCapOptions opts;
  opts.max_impressions = 5;
  opts.window = 100;
  FrequencyCapper cap(opts);
  for (uint32_t i = 0; i < 10; ++i) {
    cap.Record(UserId(i), AdId(0), 0);
  }
  EXPECT_EQ(cap.tracked_pairs(), 10u);
  cap.Expire(500);
  EXPECT_EQ(cap.tracked_pairs(), 0u);
}

// The per-pair history rules the ledger must keep, written the obvious
// way: a sorted map of vectors with the original deque semantics
// (Record prunes only the leading run <= horizon, then appends; reads
// count without pruning; Expire prunes every pair the same way and drops
// the empty ones; restoring an empty history clears the pair).
class ReferenceCapper {
 public:
  using Pair = std::pair<uint32_t, uint32_t>;

  explicit ReferenceCapper(FrequencyCapOptions options) : options_(options) {}

  int CountInWindow(UserId user, AdId ad, Timestamp now) const {
    auto it = pairs_.find({user.value, ad.value});
    if (it == pairs_.end()) return 0;
    int count = 0;
    for (Timestamp t : it->second) count += t > now - options_.window;
    return count;
  }
  bool Allowed(UserId user, AdId ad, Timestamp now) const {
    return CountInWindow(user, ad, now) < options_.max_impressions;
  }
  void Record(UserId user, AdId ad, Timestamp now) {
    std::vector<Timestamp>& times = pairs_[{user.value, ad.value}];
    PruneLeading(&times, now);
    times.push_back(now);
  }
  void RestoreHistory(UserId user, AdId ad, std::vector<Timestamp> times) {
    if (times.empty()) {
      pairs_.erase({user.value, ad.value});
    } else {
      pairs_[{user.value, ad.value}] = std::move(times);
    }
  }
  void Expire(Timestamp now) {
    for (auto it = pairs_.begin(); it != pairs_.end();) {
      PruneLeading(&it->second, now);
      it = it->second.empty() ? pairs_.erase(it) : std::next(it);
    }
  }
  const std::map<Pair, std::vector<Timestamp>>& pairs() const {
    return pairs_;
  }

 private:
  void PruneLeading(std::vector<Timestamp>* times, Timestamp now) const {
    size_t n = 0;
    while (n < times->size() && (*times)[n] <= now - options_.window) ++n;
    times->erase(times->begin(), times->begin() + n);
  }

  FrequencyCapOptions options_;
  std::map<Pair, std::vector<Timestamp>> pairs_;
};

std::map<ReferenceCapper::Pair, std::vector<Timestamp>> Contents(
    const FrequencyCapper& cap) {
  std::map<ReferenceCapper::Pair, std::vector<Timestamp>> out;
  cap.ForEach([&](UserId user, AdId ad, std::span<const Timestamp> times) {
    const bool fresh =
        out.emplace(ReferenceCapper::Pair{user.value, ad.value},
                    std::vector<Timestamp>(times.begin(), times.end()))
            .second;
    EXPECT_TRUE(fresh) << "pair visited twice";
  });
  return out;
}

size_t MultiEntryPairs(
    const std::map<ReferenceCapper::Pair, std::vector<Timestamp>>& pairs) {
  size_t n = 0;
  for (const auto& [pair, times] : pairs) n += times.size() > 1;
  return n;
}

// Randomized model check: the flat ledger and the reference answer every
// read identically and hold identical histories (same pairs, same
// timestamps in the same order) through growth, pool promotion and
// demotion and backward-shift erasure. A pair is pooled exactly while
// it retains more than one timestamp.
TEST(FrequencyCapTest, MatchesReferenceModelUnderRandomOps) {
  constexpr DurationSec kWindow = 100;
  for (const int max_impressions : {1, 2, 5}) {
    for (uint32_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(testing::Message() << "max_impressions=" << max_impressions
                                      << " seed=" << seed);
      const FrequencyCapOptions opts{max_impressions, kWindow};
      FrequencyCapper cap(opts);
      ReferenceCapper ref(opts);
      std::mt19937 rng(seed * 7919 + static_cast<uint32_t>(max_impressions));
      auto pick = [&](uint32_t n) {
        return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
      };
      // Few ads over many users gives hundreds of pairs (several table
      // growths) with enough repeats to promote pairs into the pool. The
      // top ids exercise the full 64-bit key.
      auto user = [&]() {
        return UserId(pick(16) == 0 ? 0xFFFFFFFEu - pick(2) : pick(60));
      };
      auto ad = [&]() {
        return AdId(pick(16) == 0 ? 0xFFFFFFFEu - pick(2) : pick(6));
      };
      Timestamp clock = 0;
      // Mostly monotone time, with jumps back, exact-horizon probes
      // (t == horizon must count as expired) and repeats of `clock`.
      auto when = [&]() -> Timestamp {
        switch (pick(8)) {
          case 0: return clock - static_cast<Timestamp>(pick(250));
          case 1: return clock + kWindow;
          case 2: return clock;
          default: return clock += pick(30);
        }
      };
      for (int op = 0; op < 4000; ++op) {
        const UserId u = user();
        const AdId a = ad();
        const uint32_t kind = pick(100);
        if (kind < 40) {
          const Timestamp t = when();
          cap.Record(u, a, t);
          ref.Record(u, a, t);
        } else if (kind < 60) {
          const Timestamp t = when();
          const bool served = cap.TryServe(u, a, t);
          ASSERT_EQ(served, ref.Allowed(u, a, t));
          if (served) ref.Record(u, a, t);
        } else if (kind < 85) {
          const Timestamp t = when();
          ASSERT_EQ(cap.CountInWindow(u, a, t), ref.CountInWindow(u, a, t));
          ASSERT_EQ(cap.Allowed(u, a, t), ref.Allowed(u, a, t));
        } else if (kind < 95) {
          // 0, 1 or several timestamps, not necessarily sorted.
          std::vector<Timestamp> times(pick(3) == 0 ? 0 : 1 + pick(6));
          for (Timestamp& t : times) {
            t = clock - static_cast<Timestamp>(pick(150));
          }
          cap.RestoreHistory(u, a, times);
          ref.RestoreHistory(u, a, times);
        } else if (kind < 98) {
          const Timestamp t = clock + static_cast<Timestamp>(pick(2 * kWindow));
          cap.Expire(t);
          ref.Expire(t);
        }
        ASSERT_EQ(cap.tracked_pairs(), ref.pairs().size()) << "op " << op;
        if (op % 97 == 0) {
          ASSERT_EQ(Contents(cap), ref.pairs()) << "op " << op;
          ASSERT_EQ(cap.pooled_pairs(), MultiEntryPairs(ref.pairs()))
              << "op " << op;
        }
      }
      ASSERT_EQ(Contents(cap), ref.pairs());
      ASSERT_EQ(cap.pooled_pairs(), MultiEntryPairs(ref.pairs()));
      cap.Expire(clock + kWindow);
      ref.Expire(clock + kWindow);
      ASSERT_EQ(Contents(cap), ref.pairs());
      ASSERT_EQ(cap.pooled_pairs(), MultiEntryPairs(ref.pairs()));
    }
  }
}

// The ledger's reason to exist: a feed where every served pair is new
// must cost a few dozen bytes per pair, slack included (a deque per pair
// cost 616 requested bytes and three allocations).
TEST(FrequencyCapTest, SingleImpressionPairsFitTheByteBudget) {
  FrequencyCapper cap;
  for (uint32_t i = 0; i < 100000; ++i) {
    cap.Record(UserId(i / 10), AdId(i % 10 * 7919 + i / 10), 1000 + i);
  }
  ASSERT_EQ(cap.tracked_pairs(), 100000u);
  EXPECT_LE(cap.approx_bytes() / cap.tracked_pairs(), 48u)
      << cap.approx_bytes() << " bytes";
}

TEST(FrequencyCapTest, EngineHonoursCap) {
  auto analyzer = std::make_shared<text::Analyzer>();
  std::shared_ptr<annotate::KnowledgeBase> kb(
      annotate::BuildDemoKnowledgeBase(analyzer.get()));
  core::EngineOptions eopts;
  eopts.frequency_cap.max_impressions = 2;
  eopts.frequency_cap.window = kSecondsPerDay;
  core::RecommendationEngine engine(
      kb, timeline::TimeSlotScheme::PaperScheme(), eopts);
  feed::Ad ad;
  ad.id = AdId(1);
  ad.copy = "volleyball gear spike";
  ASSERT_TRUE(engine.InsertAd(ad).ok());

  const feed::Tweet tweet{UserId(3), 6 * kSecondsPerHour, "volleyball"};
  EXPECT_EQ(engine.TopKAdsForTweet(tweet, 1).size(), 1u);
  EXPECT_EQ(engine.TopKAdsForTweet(tweet, 1).size(), 1u);
  // Third exposure of the same ad to the same user is capped.
  EXPECT_TRUE(engine.TopKAdsForTweet(tweet, 1).empty());
  // A different user still gets it.
  EXPECT_EQ(engine
                .TopKAdsForTweet({UserId(4), 6 * kSecondsPerHour,
                                  "volleyball"},
                                 1)
                .size(),
            1u);
  // And the same user gets it again the next day.
  EXPECT_EQ(engine
                .TopKAdsForTweet({UserId(3),
                                  6 * kSecondsPerHour + 2 * kSecondsPerDay,
                                  "volleyball"},
                                 1)
                .size(),
            1u);
}

TEST(FrequencyCapTest, EngineCapDisabled) {
  auto analyzer = std::make_shared<text::Analyzer>();
  std::shared_ptr<annotate::KnowledgeBase> kb(
      annotate::BuildDemoKnowledgeBase(analyzer.get()));
  core::EngineOptions eopts;
  eopts.frequency_cap.max_impressions = 0;  // disabled
  core::RecommendationEngine engine(
      kb, timeline::TimeSlotScheme::PaperScheme(), eopts);
  feed::Ad ad;
  ad.id = AdId(1);
  ad.copy = "volleyball gear";
  ASSERT_TRUE(engine.InsertAd(ad).ok());
  const feed::Tweet tweet{UserId(3), 6 * kSecondsPerHour, "volleyball"};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(engine.TopKAdsForTweet(tweet, 1).size(), 1u) << i;
  }
}

}  // namespace
}  // namespace adrec::ads
