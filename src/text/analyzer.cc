#include "text/analyzer.h"

#include <mutex>

namespace adrec::text {

Analyzer::Analyzer(AnalyzerOptions options)
    : options_(options),
      tokenizer_(options.tokenizer),
      stopwords_(options.remove_stopwords ? StopwordSet::English()
                                          : StopwordSet()) {}

const TermId* Analyzer::Memoised(std::string_view token) const {
  return memo_.Find(token);
}

bool Analyzer::Normalize(std::string_view token, std::string* term) const {
  if (options_.remove_stopwords && stopwords_.Contains(token)) return false;
  // Strip possessive suffixes before stemming ("nation's" -> "nation").
  if (token.size() > 2 && token.ends_with("'s")) {
    token.remove_suffix(2);
  } else if (token.size() > 1 && token.back() == '\'') {
    token.remove_suffix(1);
  }
  if (options_.stem) {
    *term = PorterStem(token);
  } else {
    term->assign(token);
  }
  return true;
}

TermId Analyzer::InternMiss(std::string_view token) {
  misses_.fetch_add(1, std::memory_order_relaxed);
  std::string term;
  const TermId id = Normalize(token, &term) ? vocab_.Intern(term) : kDropped;
  memo_.Insert(token, id);
  return id;
}

std::vector<TermId> Analyzer::Analyze(std::string_view input) {
  std::vector<TermId> out;
  std::string scratch;
  uint64_t tokens = 0;
  {
    std::lock_guard lock(mu_);
    tokenizer_.Scan(input, scratch,
                    [&](std::string_view token, size_t, TokenKind) {
                      ++tokens;
                      const TermId* hit = Memoised(token);
                      const TermId id =
                          hit != nullptr ? *hit : InternMiss(token);
                      if (id != kDropped) out.push_back(id);
                    });
  }
  tokens_.fetch_add(tokens, std::memory_order_relaxed);
  return out;
}

template <typename Emit>
void Analyzer::ScanReadOnly(std::string_view input, Emit&& emit) const {
  std::string scratch;
  std::string term;
  uint64_t tokens = 0;
  uint64_t misses = 0;
  {
    std::lock_guard lock(mu_);
    tokenizer_.Scan(input, scratch,
                    [&](std::string_view token, size_t, TokenKind) {
                      ++tokens;
                      if (const TermId* hit = Memoised(token)) {
                        if (*hit != kDropped) emit(*hit, std::string_view());
                      } else {
                        ++misses;
                        if (Normalize(token, &term)) emit(kInvalidTerm, term);
                      }
                    });
  }
  tokens_.fetch_add(tokens, std::memory_order_relaxed);
  misses_.fetch_add(misses, std::memory_order_relaxed);
}

std::vector<TermId> Analyzer::AnalyzeReadOnly(std::string_view input) const {
  std::vector<TermId> out;
  ScanReadOnly(input, [&](TermId id, std::string_view term) {
    if (id == kInvalidTerm) id = vocab_.Lookup(term);
    if (id != kInvalidTerm) out.push_back(id);
  });
  return out;
}

std::vector<std::string> Analyzer::AnalyzeToStrings(
    std::string_view input) const {
  std::vector<std::string> out;
  ScanReadOnly(input, [&](TermId id, std::string_view term) {
    if (id == kInvalidTerm) {
      out.emplace_back(term);
    } else {
      out.push_back(vocab_.TermOf(id));
    }
  });
  return out;
}

Result<std::string> Analyzer::TryTermOf(TermId id) const {
  std::lock_guard lock(mu_);
  return vocab_.TryTermOf(id);
}

AnalyzerStats Analyzer::Stats() const {
  std::lock_guard lock(mu_);
  AnalyzerStats stats;
  stats.vocabulary_terms = vocab_.size();
  stats.surface_forms = memo_.size();
  stats.surface_misses = misses_.load(std::memory_order_relaxed);
  stats.tokens = tokens_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace adrec::text
