#include "text/tfidf.h"

#include <algorithm>
#include <cmath>

namespace adrec::text {

void TfIdfModel::AddDocument(const std::vector<TermId>& terms) {
  std::vector<TermId> distinct = terms;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  for (TermId t : distinct) {
    if (t >= df_.size()) df_.resize(t + 1, 0);
    ++df_[t];
  }
  ++num_documents_;
}

uint32_t TfIdfModel::DocumentFrequency(TermId term) const {
  return term < df_.size() ? df_[term] : 0;
}

double TfIdfModel::Idf(TermId term) const {
  const double n = static_cast<double>(num_documents_);
  const double df = static_cast<double>(DocumentFrequency(term));
  return std::log((1.0 + n) / (1.0 + df)) + 1.0;
}

SparseVector TfIdfModel::TermFrequency(const std::vector<TermId>& terms) {
  std::vector<SparseEntry> entries;
  entries.reserve(terms.size());
  for (TermId t : terms) entries.push_back(SparseEntry{t, 1.0});
  return SparseVector::FromUnsorted(std::move(entries));
}

SparseVector TfIdfModel::Vectorize(const std::vector<TermId>& terms) const {
  SparseVector v = TermFrequency(terms);
  std::vector<SparseEntry> weighted;
  weighted.reserve(v.size());
  for (const SparseEntry& e : v.entries()) {
    weighted.push_back(SparseEntry{e.id, e.weight * Idf(e.id)});
  }
  SparseVector out = SparseVector::FromUnsorted(std::move(weighted));
  out.NormalizeL2();
  return out;
}

}  // namespace adrec::text
