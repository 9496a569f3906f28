#include "index/ad_index.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"

namespace adrec::index {
namespace {

text::SparseVector Vec(std::vector<text::SparseEntry> entries) {
  return text::SparseVector::FromUnsorted(std::move(entries));
}

AdQuery Query(text::SparseVector topics, size_t k = 10) {
  AdQuery q;
  q.topics = std::move(topics);
  q.k = k;
  return q;
}

TEST(AdIndexTest, InsertAndTopKBasic) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  ASSERT_TRUE(idx.Insert(AdId(2), Vec({{0, 0.5}, {1, 0.5}}), {}, {}).ok());
  ASSERT_TRUE(idx.Insert(AdId(3), Vec({{1, 1.0}}), {}, {}).ok());
  EXPECT_EQ(idx.size(), 3u);

  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 2u);  // ad 3 has zero score and must not appear
  EXPECT_EQ(top[0].ad, AdId(1));
  EXPECT_DOUBLE_EQ(top[0].score, 1.0);
  EXPECT_EQ(top[1].ad, AdId(2));
  EXPECT_DOUBLE_EQ(top[1].score, 0.5);
}

TEST(AdIndexTest, DuplicateInsertRejected) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  EXPECT_EQ(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).code(),
            StatusCode::kAlreadyExists);
}

TEST(AdIndexTest, KLimitsResultCount) {
  AdIndex idx;
  for (uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        idx.Insert(AdId(i), Vec({{0, 1.0 / (i + 1)}}), {}, {}).ok());
  }
  auto top = idx.TopK(Query(Vec({{0, 1.0}}), 5));
  ASSERT_EQ(top.size(), 5u);
  // Highest weight (i=0) first.
  EXPECT_EQ(top[0].ad, AdId(0));
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST(AdIndexTest, BidScalesScores) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 0.5}}), {}, {}, /*bid=*/4.0).ok());
  ASSERT_TRUE(idx.Insert(AdId(2), Vec({{0, 1.0}}), {}, {}, /*bid=*/1.0).ok());
  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].ad, AdId(1));  // 0.5*4 = 2 beats 1.0
  EXPECT_DOUBLE_EQ(top[0].score, 2.0);
}

TEST(AdIndexTest, LocationFilter) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {LocationId(5)}, {}).ok());
  ASSERT_TRUE(idx.Insert(AdId(2), Vec({{0, 0.9}}), {}, {}).ok());  // anywhere
  AdQuery q = Query(Vec({{0, 1.0}}));
  q.location = LocationId(7);
  auto top = idx.TopK(q);
  ASSERT_EQ(top.size(), 1u);  // ad 1 targets only location 5
  EXPECT_EQ(top[0].ad, AdId(2));
  q.location = LocationId(5);
  EXPECT_EQ(idx.TopK(q).size(), 2u);
  // No filter matches everything.
  EXPECT_EQ(idx.TopK(Query(Vec({{0, 1.0}}))).size(), 2u);
}

TEST(AdIndexTest, SlotFilter) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {SlotId(1)}).ok());
  AdQuery q = Query(Vec({{0, 1.0}}));
  q.slot = SlotId(2);
  EXPECT_TRUE(idx.TopK(q).empty());
  q.slot = SlotId(1);
  EXPECT_EQ(idx.TopK(q).size(), 1u);
}

TEST(AdIndexTest, RemoveHidesAdAndCompacts) {
  AdIndex idx;
  for (uint32_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 0.1 * (i + 1)}}), {}, {}).ok());
  }
  for (uint32_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(idx.Remove(AdId(i)).ok());
  }
  EXPECT_EQ(idx.size(), 1u);
  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].ad, AdId(9));
  EXPECT_EQ(idx.Remove(AdId(0)).code(), StatusCode::kNotFound);
}

TEST(AdIndexTest, ReinsertAfterRemove) {
  AdIndex idx;
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  ASSERT_TRUE(idx.Remove(AdId(1)).ok());
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 0.5}}), {}, {}).ok());
  auto top = idx.TopK(Query(Vec({{0, 1.0}})));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_DOUBLE_EQ(top[0].score, 0.5);
}

TEST(AdIndexTest, ReinsertedAdDoesNotReviveOldPostings) {
  AdIndex idx;
  for (uint32_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 1.0}}), {}, {}).ok());
  }
  ASSERT_TRUE(idx.Remove(AdId(1)).ok());
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{1, 1.0}}), {}, {}).ok());

  AdIndex fresh;
  ASSERT_TRUE(fresh.Insert(AdId(2), Vec({{0, 1.0}}), {}, {}).ok());
  ASSERT_TRUE(fresh.Insert(AdId(3), Vec({{0, 1.0}}), {}, {}).ok());
  ASSERT_TRUE(fresh.Insert(AdId(1), Vec({{1, 1.0}}), {}, {}).ok());

  // The first incarnation's topic-0 posting must not come back.
  EXPECT_EQ(idx.total_postings(), 3u);
  EXPECT_EQ(idx.total_postings(), fresh.total_postings());
  EXPECT_EQ(idx.num_lists(), fresh.num_lists());
  EXPECT_EQ(idx.approx_bytes(), fresh.approx_bytes());
  const AdQuery q = Query(Vec({{0, 1.0}}), 1);
  const auto top = idx.TopK(q);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].ad, AdId(2));
  EXPECT_EQ(idx.last_postings_scanned(), 1u);
  EXPECT_EQ(top, fresh.TopK(q));
  EXPECT_EQ(fresh.last_postings_scanned(), 1u);
}

TEST(AdIndexTest, TiedRunIsSkippedPastTheKthAd) {
  // One run of 300 equal weights: the k-th score equals the bound for the
  // whole run, so only the tied-run skip lets TA stop early.
  AdIndex idx;
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(idx.Insert(AdId(1000 - i), Vec({{0, 0.5}}), {}, {}).ok());
  }
  const AdQuery q = Query(Vec({{0, 1.0}}), 5);
  const auto top = idx.TopK(q);
  EXPECT_LE(idx.last_postings_scanned(), 6u);
  EXPECT_EQ(top, idx.TopKExhaustive(q));
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].ad, AdId(701));  // smallest ids win the tie
}

TEST(AdIndexTest, LocationSelectiveQuerySwitchesToCellPlan) {
  // 2000 ads over 99 cells plus 20 untargeted ads (i % 100 == 99); a
  // filtered query's cell holds 20. TA over the one fat list would read
  // deep before filling k, so it hands over to the cell and untargeted
  // lists once it has read more postings than they hold together (40).
  AdIndex idx;
  for (uint32_t i = 0; i < 2000; ++i) {
    std::vector<LocationId> cells;
    if (i % 100 != 99) cells.push_back(LocationId(i % 100));
    ASSERT_TRUE(
        idx.Insert(AdId(i), Vec({{0, 1.0 / (i + 1.0)}}), cells, {}).ok());
  }
  AdQuery q = Query(Vec({{0, 1.0}}), 10);
  q.location = LocationId(37);
  const auto top = idx.TopK(q);
  EXPECT_TRUE(idx.last_used_cell_plan());
  EXPECT_LE(idx.last_postings_scanned(), 41u + 40u);
  EXPECT_EQ(top, idx.TopKExhaustive(q));
  EXPECT_FALSE(idx.last_used_cell_plan());
  ASSERT_EQ(top.size(), 10u);
  EXPECT_EQ(top[0].ad, AdId(37));
  EXPECT_EQ(top[1].ad, AdId(99));  // untargeted ads compete too
  // Unfiltered queries never take the cell plan.
  idx.TopK(Query(Vec({{0, 1.0}}), 10));
  EXPECT_FALSE(idx.last_used_cell_plan());
}

TEST(AdIndexTest, EmptyCases) {
  AdIndex idx;
  EXPECT_TRUE(idx.TopK(Query(Vec({{0, 1.0}}))).empty());
  ASSERT_TRUE(idx.Insert(AdId(1), Vec({{0, 1.0}}), {}, {}).ok());
  EXPECT_TRUE(idx.TopK(Query({}, 10)).empty());      // empty query vector
  EXPECT_TRUE(idx.TopK(Query(Vec({{0, 1.0}}), 0)).empty());  // k = 0
  EXPECT_TRUE(idx.TopK(Query(Vec({{9, 1.0}}))).empty());     // unseen topic
}

TEST(AdIndexTest, EarlyTerminationScansFewerPostings) {
  AdIndex idx;
  const size_t n = 2000;
  for (uint32_t i = 0; i < n; ++i) {
    // One shared topic with smoothly decreasing weights.
    ASSERT_TRUE(idx.Insert(AdId(i), Vec({{0, 1.0 / (i + 1.0)}}), {}, {}).ok());
  }
  auto top = idx.TopK(Query(Vec({{0, 1.0}}), 5));
  ASSERT_EQ(top.size(), 5u);
  // TA stops after ~k+1 sorted accesses here; exhaustive touches all n.
  EXPECT_LT(idx.last_postings_scanned(), 50u);
  idx.TopKExhaustive(Query(Vec({{0, 1.0}}), 5));
  EXPECT_EQ(idx.last_postings_scanned(), n);
}

class IndexEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexEquivalenceTest, TopKMatchesExhaustiveOnRandomCorpora) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1299721);
  AdIndex idx;
  const size_t num_ads = 50 + rng.NextBounded(150);
  const size_t num_topics = 20;
  const size_t num_locations = 5;
  const size_t num_slots = 4;
  for (uint32_t i = 0; i < num_ads; ++i) {
    std::vector<text::SparseEntry> entries;
    const size_t nnz = 1 + rng.NextBounded(4);
    for (size_t j = 0; j < nnz; ++j) {
      entries.push_back({static_cast<uint32_t>(rng.NextBounded(num_topics)),
                         rng.NextDouble()});
    }
    std::vector<LocationId> locs;
    if (rng.NextBool(0.6)) {
      locs.push_back(LocationId(
          static_cast<uint32_t>(rng.NextBounded(num_locations))));
    }
    std::vector<SlotId> slots;
    if (rng.NextBool(0.6)) {
      slots.push_back(
          SlotId(static_cast<uint32_t>(rng.NextBounded(num_slots))));
    }
    const double bid = 0.5 + rng.NextDouble();
    ASSERT_TRUE(
        idx.Insert(AdId(i), Vec(std::move(entries)), locs, slots, bid).ok());
  }
  // Random churn.
  for (int d = 0; d < 20; ++d) {
    const AdId victim(static_cast<uint32_t>(rng.NextBounded(num_ads)));
    (void)idx.Remove(victim);  // may be NotFound; that's fine
  }
  for (int q = 0; q < 30; ++q) {
    AdQuery query;
    std::vector<text::SparseEntry> entries;
    const size_t nnz = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < nnz; ++j) {
      entries.push_back({static_cast<uint32_t>(rng.NextBounded(num_topics)),
                         rng.NextDouble()});
    }
    query.topics = Vec(std::move(entries));
    query.k = 1 + rng.NextBounded(10);
    if (rng.NextBool(0.5)) {
      query.location = LocationId(
          static_cast<uint32_t>(rng.NextBounded(num_locations)));
    }
    if (rng.NextBool(0.5)) {
      query.slot = SlotId(static_cast<uint32_t>(rng.NextBounded(num_slots)));
    }
    auto fast = idx.TopK(query);
    auto slow = idx.TopKExhaustive(query);
    ASSERT_EQ(fast.size(), slow.size()) << "query " << q;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].ad, slow[i].ad) << "query " << q << " rank " << i;
      EXPECT_EQ(fast[i].score, slow[i].score)
          << "query " << q << " rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCorpora, IndexEquivalenceTest,
                         ::testing::Range(1, 13));

// Tie-heavy, location-selective corpora shaped like the serving KB: 18
// topics, weights and query weights from a small value set (long
// equal-weight runs), 60 location cells. Parameters: seed, share of
// untargeted ads (5% also runs the cell plan's untargeted list), and
// whether every bid is 1.0 (ties survive the bid multiply) or bids are
// mixed.
struct TieSweepParam {
  int seed;
  double untargeted;
  bool unit_bids;
};

class IndexTieSweepTest : public ::testing::TestWithParam<TieSweepParam> {};

TEST_P(IndexTieSweepTest, TopKMatchesExhaustiveBitForBit) {
  const TieSweepParam param = GetParam();
  Rng rng(static_cast<uint64_t>(param.seed) * 7919 + 17);
  constexpr uint32_t kTopics = 18;
  constexpr uint32_t kCells = 60;
  constexpr uint32_t kSlots = 4;
  constexpr uint32_t kAds = 3000;
  const double kWeights[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  const double kBids[] = {0.5, 1.0, 1.5, 2.0};
  auto pick_weight = [&] { return kWeights[rng.NextBounded(5)]; };

  struct Spec {
    text::SparseVector topics;
    std::vector<LocationId> locations;
    std::vector<SlotId> slots;
    double bid;
  };
  auto make_ad = [&] {
    Spec spec;
    std::vector<text::SparseEntry> entries;
    const size_t nnz = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < nnz; ++j) {
      entries.push_back(
          {static_cast<uint32_t>(rng.NextBounded(kTopics)), pick_weight()});
    }
    spec.topics = Vec(std::move(entries));
    if (!rng.NextBool(param.untargeted)) {
      const size_t nl = 1 + rng.NextBounded(2);
      for (size_t l = 0; l < nl; ++l) {
        spec.locations.push_back(
            LocationId(static_cast<uint32_t>(rng.NextBounded(kCells))));
      }
    }
    if (rng.NextBool(0.3)) {
      spec.slots.push_back(
          SlotId(static_cast<uint32_t>(rng.NextBounded(kSlots))));
    }
    spec.bid = param.unit_bids ? 1.0
               : rng.NextBool(0.5) ? kBids[rng.NextBounded(4)]
                                   : 0.25 + 2.0 * rng.NextDouble();
    return spec;
  };
  auto insert = [&](AdIndex* idx, uint32_t id, const Spec& spec) {
    ASSERT_TRUE(
        idx->Insert(AdId(id), spec.topics, spec.locations, spec.slots,
                    spec.bid)
            .ok());
  };

  AdIndex idx;
  for (uint32_t i = 0; i < kAds; ++i) insert(&idx, i, make_ad());

  size_t cell_plan = 0, filtered_ta = 0, skip_wins = 0;
  auto sweep = [&](int round) {
    for (int q = 0; q < 150; ++q) {
      AdQuery query;
      std::vector<text::SparseEntry> entries;
      const size_t nnz = rng.NextBool(0.5) ? 1 : 2 + rng.NextBounded(2);
      for (size_t j = 0; j < nnz; ++j) {
        entries.push_back(
            {static_cast<uint32_t>(rng.NextBounded(kTopics)), pick_weight()});
      }
      query.topics = Vec(std::move(entries));
      query.k = 1 + rng.NextBounded(20);
      if (rng.NextBool(0.6)) {
        query.location =
            LocationId(static_cast<uint32_t>(rng.NextBounded(kCells)));
      }
      if (rng.NextBool(0.2)) {
        query.slot = SlotId(static_cast<uint32_t>(rng.NextBounded(kSlots)));
      }
      const auto fast = idx.TopK(query);
      const size_t scanned = idx.last_postings_scanned();
      const bool used_cells = idx.last_used_cell_plan();
      ASSERT_EQ(fast, idx.TopKExhaustive(query))
          << "round " << round << " query " << q;
      if (query.location.valid()) ++(used_cells ? cell_plan : filtered_ta);
      // Without the tied-run skip, TA reads every ad scoring at least
      // the k-th score; reading fewer shows the skip fired.
      if (fast.size() == query.k && !used_cells) {
        AdQuery all = query;
        all.k = kAds;
        const auto ranked = idx.TopKExhaustive(all);
        const size_t at_least_kth = static_cast<size_t>(
            std::count_if(ranked.begin(), ranked.end(),
                          [&](const ScoredAd& a) {
                            return a.score >= fast.back().score;
                          }));
        if (scanned < at_least_kth) ++skip_wins;
      }
    }
  };
  sweep(0);
  // Remove/re-insert churn: some ads come back under the same id with a
  // new vector, others stay gone.
  for (int round = 1; round <= 2; ++round) {
    for (int d = 0; d < 400; ++d) {
      const uint32_t victim = static_cast<uint32_t>(rng.NextBounded(kAds));
      if (!idx.Remove(AdId(victim)).ok()) continue;
      if (rng.NextBool(0.7)) insert(&idx, victim, make_ad());
    }
    sweep(round);
  }
  // Both plans run: TA finishes some location-filtered queries, and the
  // cell plan takes over where few ads are untargeted (with 40%
  // untargeted the cell plan costs more than TA's scan, so TA keeps
  // them all). Unit bids keep scores tied to posting weights, which is
  // where the skip fires.
  EXPECT_GT(filtered_ta, 0u);
  if (param.untargeted < 0.1) {
    EXPECT_GT(cell_plan, 0u);
  }
  if (param.unit_bids) {
    EXPECT_GT(skip_wins, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TieHeavy, IndexTieSweepTest,
    ::testing::Values(TieSweepParam{1, 0.0, true}, TieSweepParam{2, 0.0, false},
                      TieSweepParam{3, 0.4, true}, TieSweepParam{4, 0.4, false},
                      TieSweepParam{5, 0.0, true}, TieSweepParam{6, 0.4, true},
                      TieSweepParam{7, 0.05, true}));

}  // namespace
}  // namespace adrec::index
