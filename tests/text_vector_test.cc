#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "text/analyzer.h"
#include "text/sparse_vector.h"
#include "text/stopwords.h"
#include "text/string_id_map.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"

namespace adrec::text {
namespace {

TEST(VocabularyTest, InternIsStable) {
  Vocabulary v;
  TermId a = v.Intern("volleyball");
  TermId b = v.Intern("team");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.Intern("volleyball"), a);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.TermOf(a), "volleyball");
  EXPECT_EQ(v.Lookup("team"), b);
  EXPECT_EQ(v.Lookup("unseen"), kInvalidTerm);
}

TEST(VocabularyTest, TryTermOfOutOfRange) {
  Vocabulary v;
  v.Intern("x");
  EXPECT_TRUE(v.TryTermOf(0).ok());
  auto r = v.TryTermOf(5);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(StringIdMapTest, FindsEveryKeyAcrossGrowth) {
  StringIdMap map;
  EXPECT_EQ(map.Find("absent"), nullptr);
  map.Insert("", 7);
  for (uint32_t i = 0; i < 5000; ++i) {
    map.Insert("k" + std::to_string(i), i);
  }
  EXPECT_EQ(map.size(), 5001u);
  ASSERT_NE(map.Find(""), nullptr);
  EXPECT_EQ(*map.Find(""), 7u);
  for (uint32_t i = 0; i < 5000; ++i) {
    const uint32_t* value = map.Find("k" + std::to_string(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i);
  }
  EXPECT_EQ(map.Find("k5000"), nullptr);
  EXPECT_EQ(map.Find("k"), nullptr);  // a prefix of stored keys
}

TEST(StopwordSetTest, EnglishContainsCoreWords) {
  StopwordSet s = StopwordSet::English();
  EXPECT_TRUE(s.Contains("the"));
  EXPECT_TRUE(s.Contains("and"));
  EXPECT_TRUE(s.Contains("rt"));
  EXPECT_FALSE(s.Contains("volleyball"));
  EXPECT_GT(s.size(), 100u);
}

TEST(StopwordSetTest, CustomAdditions) {
  StopwordSet s;
  EXPECT_FALSE(s.Contains("foo"));
  s.Add("foo");
  EXPECT_TRUE(s.Contains("foo"));
}

TEST(SparseVectorTest, FromUnsortedMergesDuplicates) {
  SparseVector v = SparseVector::FromUnsorted(
      {{3, 1.0}, {1, 2.0}, {3, 0.5}, {2, 1.0}});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v.Get(1), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(2), 1.0);
  EXPECT_DOUBLE_EQ(v.Get(3), 1.5);
  EXPECT_DOUBLE_EQ(v.Get(99), 0.0);
}

TEST(SparseVectorTest, AddKeepsSortedOrder) {
  SparseVector v;
  v.Add(5, 1.0);
  v.Add(1, 1.0);
  v.Add(5, 2.0);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.entries()[0].id, 1u);
  EXPECT_EQ(v.entries()[1].id, 5u);
  EXPECT_DOUBLE_EQ(v.Get(5), 3.0);
}

TEST(SparseVectorTest, DotProduct) {
  SparseVector a = SparseVector::FromUnsorted({{1, 1.0}, {2, 2.0}, {4, 3.0}});
  SparseVector b = SparseVector::FromUnsorted({{2, 5.0}, {3, 7.0}, {4, 1.0}});
  EXPECT_DOUBLE_EQ(a.Dot(b), 2.0 * 5.0 + 3.0 * 1.0);
  EXPECT_DOUBLE_EQ(b.Dot(a), a.Dot(b));
  EXPECT_DOUBLE_EQ(a.Dot(SparseVector()), 0.0);
}

TEST(SparseVectorTest, CosineBoundsAndIdentity) {
  SparseVector a = SparseVector::FromUnsorted({{1, 1.0}, {2, 1.0}});
  EXPECT_NEAR(a.Cosine(a), 1.0, 1e-12);
  SparseVector orthogonal = SparseVector::FromUnsorted({{3, 1.0}});
  EXPECT_DOUBLE_EQ(a.Cosine(orthogonal), 0.0);
  EXPECT_DOUBLE_EQ(a.Cosine(SparseVector()), 0.0);
}

TEST(SparseVectorTest, JaccardSupport) {
  SparseVector a = SparseVector::FromUnsorted({{1, 1.0}, {2, 1.0}, {3, 1.0}});
  SparseVector b = SparseVector::FromUnsorted({{2, 9.0}, {3, 9.0}, {4, 9.0}});
  EXPECT_DOUBLE_EQ(a.JaccardSupport(b), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(SparseVector().JaccardSupport(SparseVector()), 0.0);
}

TEST(SparseVectorTest, AddScaledMergesDisjointAndOverlapping) {
  SparseVector a = SparseVector::FromUnsorted({{1, 1.0}, {3, 1.0}});
  SparseVector b = SparseVector::FromUnsorted({{2, 4.0}, {3, 4.0}});
  a.AddScaled(b, 0.5);
  EXPECT_DOUBLE_EQ(a.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(a.Get(2), 2.0);
  EXPECT_DOUBLE_EQ(a.Get(3), 3.0);
}

TEST(SparseVectorTest, NormalizeL2) {
  SparseVector v = SparseVector::FromUnsorted({{1, 3.0}, {2, 4.0}});
  v.NormalizeL2();
  EXPECT_NEAR(v.Norm(), 1.0, 1e-12);
  EXPECT_NEAR(v.Get(1), 0.6, 1e-12);
  SparseVector zero;
  zero.NormalizeL2();  // must not crash
  EXPECT_TRUE(zero.empty());
}

TEST(SparseVectorTest, PruneAndTruncate) {
  SparseVector v = SparseVector::FromUnsorted(
      {{1, 0.001}, {2, 0.5}, {3, 0.9}, {4, 0.2}});
  v.Prune(0.01);
  EXPECT_EQ(v.size(), 3u);
  v.TruncateTopK(2);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_DOUBLE_EQ(v.Get(2), 0.5);
  EXPECT_DOUBLE_EQ(v.Get(3), 0.9);
  // Still id-sorted after truncation.
  EXPECT_LT(v.entries()[0].id, v.entries()[1].id);
}

TEST(TfIdfTest, IdfDecreasesWithDocumentFrequency) {
  TfIdfModel model;
  // Term 0 appears in all docs, term 1 in one.
  model.AddDocument({0, 1});
  model.AddDocument({0});
  model.AddDocument({0});
  EXPECT_EQ(model.num_documents(), 3u);
  EXPECT_EQ(model.DocumentFrequency(0), 3u);
  EXPECT_EQ(model.DocumentFrequency(1), 1u);
  EXPECT_LT(model.Idf(0), model.Idf(1));
  EXPECT_GT(model.Idf(0), 0.0);  // smoothed idf stays positive
}

TEST(TfIdfTest, DuplicateTermsCountOncePerDocument) {
  TfIdfModel model;
  model.AddDocument({7, 7, 7});
  EXPECT_EQ(model.DocumentFrequency(7), 1u);
}

TEST(TfIdfTest, VectorizeIsUnitNormAndRanksRareTermsHigher) {
  TfIdfModel model;
  model.AddDocument({0, 1});
  model.AddDocument({0, 2});
  model.AddDocument({0, 3});
  SparseVector v = model.Vectorize({0, 1});
  EXPECT_NEAR(v.Norm(), 1.0, 1e-12);
  // Term 1 (rare) should outweigh term 0 (ubiquitous).
  EXPECT_GT(v.Get(1), v.Get(0));
}

TEST(TfIdfTest, EmptyDocumentVectorizesToEmpty) {
  TfIdfModel model;
  model.AddDocument({0});
  EXPECT_TRUE(model.Vectorize({}).empty());
}

TEST(AnalyzerTest, EndToEndPipeline) {
  Analyzer analyzer;
  auto ids = analyzer.Analyze("The nation's best volleyball teams!");
  // "the" is a stopword; possessive is stripped; remaining stems interned.
  ASSERT_EQ(ids.size(), 4u);
  const Vocabulary& v = analyzer.vocabulary();
  EXPECT_EQ(v.TermOf(ids[0]), "nation");
  EXPECT_EQ(v.TermOf(ids[1]), "best");
  EXPECT_EQ(v.TermOf(ids[2]), PorterStem("volleyball"));
  EXPECT_EQ(v.TermOf(ids[3]), PorterStem("teams"));
}

TEST(AnalyzerTest, ReadOnlyDropsUnseenTerms) {
  Analyzer analyzer;
  analyzer.Analyze("volleyball match");
  auto ids = analyzer.AnalyzeReadOnly("volleyball final");
  // "final" was never interned, so only the stem of "volleyball" survives.
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(analyzer.vocabulary().TermOf(ids[0]), PorterStem("volleyball"));
}

TEST(AnalyzerTest, StemmingCollapsesInflections) {
  Analyzer analyzer;
  auto a = analyzer.Analyze("running");
  auto b = analyzer.Analyze("runs");
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], b[0]);
}

TEST(AnalyzerTest, OptionsDisableStemmingAndStopwords) {
  AnalyzerOptions opts;
  opts.remove_stopwords = false;
  opts.stem = false;
  Analyzer analyzer(opts);
  auto strs = analyzer.AnalyzeToStrings("the running");
  EXPECT_EQ(strs, (std::vector<std::string>{"the", "running"}));
}

}  // namespace
}  // namespace adrec::text
