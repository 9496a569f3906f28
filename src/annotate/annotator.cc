#include "annotate/annotator.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/logging.h"
#include "text/tfidf.h"

namespace adrec::annotate {

SpotlightAnnotator::SpotlightAnnotator(const KnowledgeBase* kb,
                                       AnnotatorOptions options)
    : kb_(kb), options_(options) {
  ADREC_CHECK(kb != nullptr);
}

std::vector<Annotation> SpotlightAnnotator::Annotate(
    std::string_view text) const {
  return AnnotateTerms(kb_->analyzer()->Analyze(text));
}

std::vector<Annotation> SpotlightAnnotator::AnnotateTerms(
    const std::vector<text::TermId>& terms) const {
  // Document vector for context similarity (raw term frequencies are
  // sufficient here; both sides are L2-normalised by Cosine()). Built on
  // the first candidate that has a context: most texts mention nothing.
  std::optional<text::SparseVector> doc;

  // Confidence of one candidate sense; `discount` scales it (1.0 for
  // exact matches, trigram similarity for fuzzy ones).
  auto score_of = [&](TopicId cand, double discount) {
    const Entity& e = kb_->entity(cand);
    // Context cosine; entities without context fall back to prior only.
    double ctx = 0.0;
    if (!e.context.empty()) {
      if (!doc) doc = text::TfIdfModel::TermFrequency(terms);
      ctx = e.context.Cosine(*doc);
      if (ctx < 0.0) ctx = 0.0;
    }
    const double w = e.context.empty() ? 0.0 : options_.context_weight;
    const double score = ((1.0 - w) * e.prior + w * ctx) * discount;
    return std::min(1.0, std::max(0.0, score));
  };

  // Aggregate per entity as spans are emitted: the first mention's span,
  // the max score across mentions.
  std::vector<Annotation> out;
  auto keep = [&](TopicId topic, double score, size_t begin, size_t len) {
    if (score < options_.min_score) return;
    for (Annotation& a : out) {
      if (a.topic == topic) {
        a.score = std::max(a.score, score);
        return;
      }
    }
    out.push_back(Annotation{topic, kb_->entity(topic).uri, score, begin, len});
  };

  // Candidate senses of the current mention span, with the discount of
  // each (reused across spans).
  std::vector<std::pair<TopicId, double>> senses;
  // Scores the span's senses and keeps the best (first of equals) or all.
  auto emit = [&](size_t begin, size_t len) {
    bool have_best = false;
    TopicId best_topic;
    double best_score = 0.0;
    for (const auto& [topic, discount] : senses) {
      const double score = score_of(topic, discount);
      if (!options_.best_sense_only) {
        keep(topic, score, begin, len);
      } else if (!have_best || score > best_score) {
        have_best = true;
        best_topic = topic;
        best_score = score;
      }
    }
    if (have_best) keep(best_topic, best_score, begin, len);
  };

  size_t i = 0;
  while (i < terms.size()) {
    // Leftmost-longest match in the surface trie starting at i.
    KnowledgeBase::NodeId node = 0;
    size_t best_len = 0;
    KnowledgeBase::NodeId best_node = KnowledgeBase::kNoNode;
    for (size_t j = i; j < terms.size(); ++j) {
      node = kb_->Step(node, terms[j]);
      if (node == KnowledgeBase::kNoNode) break;
      if (!kb_->CandidatesAt(node).empty()) {
        best_len = j - i + 1;
        best_node = node;
      }
    }
    if (best_node == KnowledgeBase::kNoNode) {
      // Typo fallback: fuzzy single-token match.
      if (options_.fuzzy_min_similarity > 0.0) {
        const auto term = kb_->analyzer()->TryTermOf(terms[i]);
        if (term.ok()) {
          senses.clear();
          for (const KnowledgeBase::FuzzyMatch& m : kb_->FuzzyCandidates(
                   term.value(), options_.fuzzy_min_similarity)) {
            senses.emplace_back(m.topic, m.similarity);
          }
          emit(i, 1);
        }
      }
      ++i;
      continue;
    }
    // Disambiguate the candidates of the matched span.
    senses.clear();
    for (TopicId cand : kb_->CandidatesAt(best_node)) {
      senses.emplace_back(cand, 1.0);
    }
    emit(i, best_len);
    i += best_len;
  }

  // Deterministic order: by topic id.
  std::sort(out.begin(), out.end(), [](const Annotation& a, const Annotation& b) {
    return a.topic.value < b.topic.value;
  });
  return out;
}

}  // namespace adrec::annotate
