// Golden equivalence of the lexical pipeline and the annotator: term ids,
// term strings and annotations of a fixed corpus, under the default
// options and each analyzer/tokenizer/annotator toggle, must match
// tests/golden/text_analysis.golden byte for byte. The golden file was
// rendered by the unmemoised analyzer, so any change to what analysis
// outputs — or to the order ids are handed out — shows here, which the
// engine differentials (both sides share one analyzer) cannot see.
//
// On a mismatch the test writes its rendering to text_analysis.actual in
// the working directory. After a deliberate output change, review that
// file's diff and copy it over the golden.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "annotate/annotator.h"
#include "common/string_util.h"
#include "feed/workload.h"
#include "text/analyzer.h"

namespace adrec::text {
namespace {

/// Hand-written edge cases, then seeded workload tweets and ad copies.
std::vector<std::string> Corpus() {
  std::vector<std::string> texts = {
      "",
      "!!! ... ???",
      "read https://example.com/Volleyball?x=1 and HTTP://T.CO/AbC now",
      "http:// https ftp://x.org h H hTTp://mixed.case/Path",
      "#Volleyball #beachVolleyball @Coach_Smith @nike #'tag @'x # @",
      "won 21-19 in 3 sets, covid19 2pac 1st 90's 007",
      "the nation's best teams' coaches don't can't won't",
      "x's s's 's a' ab' it's he's let's rock'n'roll hello'world",
      "a b c I x y z ab AB Ab aB",
      "ADIDAS SHOES ON SALE NOW at the NIKE store",
      "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9 \xc3\xbc" "ber "
      "S\xc3\xa3o Paulo \xe6\x9d\xb1\xe4\xba\xac \xf0\x9f\x8f\x90 volleyball",
      "Supercalifragilisticexpialidocious ANTIDISESTABLISHMENTARIANISM "
      "internationalization",
      "coffee coffee Coffee COFFEE coffees coffeehouse",
      "apple unveiled the new iphone at the launch event",
      "grandma's apple pie fresh from the orchard",
      "she hit a pitch two tones above the melody note",
      "volleybal pitchh coffe footbal jazzz",
      "it's rt amp via u ur im dont RT AMP",
      "coffee\tand\nlive music\r\ndowntown",
      "running runs ran runner relational adjustable caresses ponies",
  };
  feed::WorkloadOptions opts;
  opts.seed = 20;
  opts.num_users = 12;
  opts.num_ads = 20;
  opts.days = 3;
  const feed::Workload w = feed::GenerateWorkload(opts);
  for (size_t i = 0; i < w.tweets.size() && i < 50; ++i) {
    texts.push_back(w.tweets[i].text);
  }
  for (const feed::Ad& ad : w.ads) texts.push_back(ad.copy);
  return texts;
}

struct Variant {
  const char* name;
  AnalyzerOptions analyzer;
  annotate::AnnotatorOptions annotator;
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  auto add = [&](const char* name, auto&& tweak) {
    Variant v{name, {}, {}};
    tweak(v);
    out.push_back(v);
  };
  add("default", [](Variant&) {});
  add("no_lowercase", [](Variant& v) { v.analyzer.tokenizer.lowercase = false; });
  add("no_hashtags",
      [](Variant& v) { v.analyzer.tokenizer.keep_hashtags = false; });
  add("mentions", [](Variant& v) { v.analyzer.tokenizer.keep_mentions = true; });
  add("numbers", [](Variant& v) { v.analyzer.tokenizer.keep_numbers = true; });
  add("urls", [](Variant& v) { v.analyzer.tokenizer.keep_urls = true; });
  add("min_len_1", [](Variant& v) { v.analyzer.tokenizer.min_token_length = 1; });
  add("stopwords_kept", [](Variant& v) { v.analyzer.remove_stopwords = false; });
  add("no_stem", [](Variant& v) { v.analyzer.stem = false; });
  add("fuzzy", [](Variant& v) { v.annotator.fuzzy_min_similarity = 0.5; });
  add("all_senses", [](Variant& v) { v.annotator.best_sense_only = false; });
  return out;
}

/// Renders every text's term ids, term strings and annotations under one
/// variant, then the variant's final vocabulary size.
std::string Render(const Variant& variant,
                   const std::vector<std::string>& texts) {
  Analyzer analyzer(variant.analyzer);
  const auto kb = annotate::BuildDemoKnowledgeBase(&analyzer);
  const annotate::SpotlightAnnotator annotator(kb.get(), variant.annotator);
  std::string out;
  for (size_t t = 0; t < texts.size(); ++t) {
    const std::vector<TermId> ids = analyzer.Analyze(texts[t]);
    std::string line = StringFormat("%s %zu ids", variant.name, t);
    for (TermId id : ids) line += StringFormat(" %u", id);
    line += " |";
    for (const std::string& s : analyzer.AnalyzeToStrings(texts[t])) {
      line += " " + s;
    }
    line += " |";
    for (const annotate::Annotation& a : annotator.Annotate(texts[t])) {
      line += StringFormat(" %u:%s:%.17g@%zu+%zu", a.topic.value,
                           a.uri.c_str(), a.score, a.token_begin,
                           a.token_length);
    }
    out += line + "\n";
  }
  out += StringFormat("%s vocabulary %zu\n", variant.name,
                      analyzer.vocabulary().size());
  return out;
}

TEST(TextGoldenTest, OutputsMatchTheRecordedGolden) {
  const std::vector<std::string> texts = Corpus();
  std::string actual;
  for (const Variant& v : Variants()) actual += Render(v, texts);

  std::ifstream in(std::string(ADREC_GOLDEN_DIR) + "/text_analysis.golden");
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual == golden.str()) return;

  std::ofstream("text_analysis.actual") << actual;
  ASSERT_TRUE(in.good()) << "missing golden file in " << ADREC_GOLDEN_DIR;
  std::istringstream want(golden.str());
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  for (size_t n = 1;; ++n) {
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    ASSERT_EQ(more_want ? want_line : "<end>", more_got ? got_line : "<end>")
        << "first divergent line " << n
        << "; full rendering in text_analysis.actual";
  }
  FAIL() << "golden and rendering differ only in line endings";
}

// Every analysis path agrees with Analyze on the same analyzer: strings
// are the interned terms of the ids, in order.
TEST(TextGoldenTest, StringsAreTheTermsOfTheIds) {
  const std::vector<std::string> texts = Corpus();
  for (const Variant& v : Variants()) {
    Analyzer analyzer(v.analyzer);
    for (const std::string& text : texts) {
      const std::vector<TermId> ids = analyzer.Analyze(text);
      std::vector<std::string> terms;
      for (TermId id : ids) terms.push_back(analyzer.vocabulary().TermOf(id));
      EXPECT_EQ(analyzer.AnalyzeToStrings(text), terms) << v.name << ": " << text;
      EXPECT_EQ(analyzer.AnalyzeReadOnly(text), ids) << v.name << ": " << text;
    }
  }
}

// A second pass over the corpus is all memo hits and returns the first
// pass's ids; a fresh analyzer fed the same texts hands out the same ids.
TEST(TextGoldenTest, IdsAreStableAcrossPassesAndInstances) {
  const std::vector<std::string> texts = Corpus();
  Analyzer first;
  std::vector<std::vector<TermId>> pass1;
  for (const std::string& text : texts) pass1.push_back(first.Analyze(text));
  const size_t vocab_size = first.vocabulary().size();
  const AnalyzerStats before = first.Stats();
  for (size_t t = 0; t < texts.size(); ++t) {
    EXPECT_EQ(first.Analyze(texts[t]), pass1[t]) << texts[t];
  }
  EXPECT_EQ(first.vocabulary().size(), vocab_size);
  EXPECT_EQ(first.Stats().surface_misses, before.surface_misses);

  Analyzer fresh;
  for (size_t t = 0; t < texts.size(); ++t) {
    EXPECT_EQ(fresh.Analyze(texts[t]), pass1[t]) << texts[t];
  }
}

// AnalyzeReadOnly never interns or memoises, even on unseen words, and
// resolves seen stems reached through unseen surface forms.
TEST(TextGoldenTest, ReadOnlyGrowsNeitherVocabularyNorMemo) {
  const std::vector<std::string> texts = Corpus();
  Analyzer analyzer;
  for (size_t t = 0; t < texts.size() / 2; ++t) analyzer.Analyze(texts[t]);
  const AnalyzerStats before = analyzer.Stats();
  for (const std::string& text : texts) analyzer.AnalyzeReadOnly(text);
  analyzer.AnalyzeReadOnly("runner's runners zzyzx");
  const AnalyzerStats after = analyzer.Stats();
  EXPECT_EQ(after.vocabulary_terms, before.vocabulary_terms);
  EXPECT_EQ(after.surface_forms, before.surface_forms);
  EXPECT_GT(after.surface_misses, before.surface_misses);

  analyzer.Analyze("runner");
  EXPECT_EQ(analyzer.AnalyzeReadOnly("runner's runners zzyzx"),
            analyzer.Analyze("runner runner"));
}

}  // namespace
}  // namespace adrec::text
