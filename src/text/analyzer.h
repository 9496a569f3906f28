#ifndef ADREC_TEXT_ANALYZER_H_
#define ADREC_TEXT_ANALYZER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/string_id_map.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace adrec::text {

/// Analyzer configuration.
struct AnalyzerOptions {
  TokenizerOptions tokenizer;
  bool remove_stopwords = true;
  bool stem = true;
};

/// Counters of the analyzer's token memo, for the obs exporters.
struct AnalyzerStats {
  size_t vocabulary_terms = 0;  ///< interned terms
  size_t surface_forms = 0;     ///< memo entries: distinct normalised tokens
  uint64_t surface_misses = 0;  ///< tokens that ran the stem pipeline
  uint64_t tokens = 0;          ///< tokens looked up in the memo
};

/// The full lexical pipeline: tokenize -> stopword filter -> Porter stem ->
/// intern. Owns the vocabulary so repeated analyses share term ids.
///
/// Each distinct normalised token runs the stopword/stem/intern pipeline
/// once: its result (a term id, or "dropped" for a stopword) is memoised,
/// and later occurrences are one hash probe. Term ids are assigned in
/// first-seen order, exactly as without the memo.
///
/// Thread-safe: one mutex guards the vocabulary and the memo, held for
/// the whole of each text so a text's new words intern in token order.
class Analyzer {
 public:
  explicit Analyzer(AnalyzerOptions options = {});

  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  /// Analyzes `input` into interned term ids (with duplicates, in order).
  std::vector<TermId> Analyze(std::string_view input);

  /// Like Analyze but read-only: unseen terms map to kInvalidTerm and are
  /// dropped. Use for query-time analysis against a frozen vocabulary.
  /// Grows neither the vocabulary nor the memo.
  std::vector<TermId> AnalyzeReadOnly(std::string_view input) const;

  /// Analyzes and returns the processed surface strings (for debugging and
  /// the annotator, which matches on stems). Read-only like
  /// AnalyzeReadOnly.
  std::vector<std::string> AnalyzeToStrings(std::string_view input) const;

  /// The term of an interned id, or OutOfRange. Safe to call concurrently
  /// with Analyze.
  Result<std::string> TryTermOf(TermId id) const;

  /// Memo and vocabulary counters (a consistent snapshot).
  AnalyzerStats Stats() const;

  /// Direct vocabulary access. Not synchronised with concurrent Analyze
  /// calls: for single-threaded set-up and inspection only.
  const Vocabulary& vocabulary() const { return vocab_; }

 private:
  /// Memo value of a token the pipeline drops (a stopword).
  static constexpr TermId kDropped = kInvalidTerm - 1;

  /// Memo entry of `token`, or nullptr on a miss. Caller holds mu_.
  const TermId* Memoised(std::string_view token) const;
  /// The uncached pipeline for one token: false for a stopword, else
  /// true with the possessive-stripped, stemmed term in `*term`.
  bool Normalize(std::string_view token, std::string* term) const;
  /// Memo miss, caller holds mu_: runs the pipeline, interns and
  /// memoises. Returns the new memo value.
  TermId InternMiss(std::string_view token);
  /// The read-only per-token path of AnalyzeReadOnly and
  /// AnalyzeToStrings: under mu_, calls `emit(id, term)` for each token
  /// the pipeline keeps, with its memoised id, or on a memo miss with
  /// kInvalidTerm and the uncached pipeline's term. Counts tokens and
  /// misses; inserts nothing.
  template <typename Emit>
  void ScanReadOnly(std::string_view input, Emit&& emit) const;

  AnalyzerOptions options_;
  Tokenizer tokenizer_;
  StopwordSet stopwords_;

  mutable std::mutex mu_;  // guards vocab_ and memo_
  Vocabulary vocab_;
  StringIdMap memo_;  // normalised token -> TermId or kDropped
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> tokens_{0};
};

}  // namespace adrec::text

#endif  // ADREC_TEXT_ANALYZER_H_
