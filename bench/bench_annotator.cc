// E7 — "Annotator throughput and disambiguation accuracy": the hand-built
// Spotlight stand-in must be fast enough for the high-speed path and must
// pick the right sense of ambiguous surface forms. Expected shape:
// >100k tweets/s annotation throughput; disambiguation accuracy well
// above the commonness-prior-only baseline on context-bearing text.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "annotate/annotator.h"
#include "common/hashing.h"
#include "common/random.h"
#include "common/string_util.h"
#include "common/table_writer.h"
#include "feed/workload.h"

namespace {

void BM_AnnotateTweets(benchmark::State& state) {
  adrec::feed::WorkloadOptions opts;
  opts.seed = 5;
  opts.num_users = 20;
  opts.days = 10;
  adrec::feed::Workload w = adrec::feed::GenerateWorkload(opts);
  adrec::annotate::SpotlightAnnotator annotator(w.kb.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        annotator.Annotate(w.tweets[i++ % w.tweets.size()].text));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK(BM_AnnotateTweets);

/// Texts whose every word is unseen: eight tokens per text, each a unique
/// base-26 stem plus a common English suffix (so the stemmer's suffix
/// steps run). No token repeats, so each one misses the analyzer's memo
/// and runs the full stopword/stem/intern pipeline.
std::vector<std::string> NovelTexts(size_t count) {
  static constexpr const char* kSuffixes[] = {"",   "s",     "ing", "ed",
                                              "ly", "ation", "ness", "er"};
  std::vector<std::string> texts;
  uint64_t word = 0;
  for (size_t t = 0; t < count; ++t) {
    std::string text;
    for (int w = 0; w < 8; ++w, ++word) {
      if (w > 0) text += ' ';
      uint64_t v = word;
      for (int i = 0; i < 6; ++i, v /= 26) text += static_cast<char>('a' + v % 26);
      text += kSuffixes[adrec::Mix64(word) % std::size(kSuffixes)];
    }
    texts.push_back(std::move(text));
  }
  return texts;
}

/// The memo's worst case: every token is new. A fixed iteration count
/// bounds the vocabulary the run grows.
void BM_AnnotateNovelWords(benchmark::State& state) {
  constexpr size_t kTexts = 20000;
  const std::vector<std::string> texts = NovelTexts(kTexts);
  adrec::text::Analyzer analyzer;
  auto kb = adrec::annotate::BuildDemoKnowledgeBase(&analyzer);
  adrec::annotate::SpotlightAnnotator annotator(kb.get());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(annotator.Annotate(texts[i++ % kTexts]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

BENCHMARK(BM_AnnotateNovelWords)->Iterations(20000);

/// Accuracy probe: sentences with ambiguous mentions whose correct sense
/// is known from the surrounding words.
void AccuracyTable() {
  adrec::text::Analyzer analyzer;
  auto kb = adrec::annotate::BuildDemoKnowledgeBase(&analyzer);

  struct Probe {
    const char* text;
    const char* want_suffix;  // expected URI suffix
  };
  const Probe probes[] = {
      {"apple unveiled the new iphone at the launch event", "Apple_Inc."},
      {"grandma's apple pie fresh from the orchard", "Apple"},
      {"the players walked onto the pitch at the stadium", "Pitch_(sports_field)"},
      {"she hit a pitch two tones above the melody note", "Pitch_(music)"},
      {"apple stock rose after tim cook spoke", "Apple_Inc."},
      {"cider pressing needs ripe apples from the tree", "Apple"},
      {"the football match kicked off on a muddy pitch grass", "Pitch_(sports_field)"},
      {"tuning the pitch of the sound frequency", "Pitch_(music)"},
  };

  adrec::annotate::SpotlightAnnotator context_aware(kb.get());
  adrec::annotate::AnnotatorOptions prior_only_opts;
  prior_only_opts.context_weight = 0.0;  // ablation: prior only
  adrec::annotate::SpotlightAnnotator prior_only(kb.get(), prior_only_opts);

  auto accuracy = [&](const adrec::annotate::SpotlightAnnotator& a) {
    int correct = 0;
    for (const Probe& p : probes) {
      for (const auto& ann : a.Annotate(p.text)) {
        if (ann.uri.ends_with(p.want_suffix)) {
          ++correct;
          break;
        }
      }
    }
    return static_cast<double>(correct) / std::size(probes);
  };

  adrec::TableWriter table("E7b: disambiguation accuracy on ambiguous probes",
                           {"annotator", "accuracy"});
  table.AddRow({"context-aware (full)",
                adrec::StringFormat("%.2f", accuracy(context_aware))});
  table.AddRow({"prior-only ablation",
                adrec::StringFormat("%.2f", accuracy(prior_only))});
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  AccuracyTable();
  return 0;
}
