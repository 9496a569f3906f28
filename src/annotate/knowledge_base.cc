#include "annotate/knowledge_base.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/string_util.h"

namespace adrec::annotate {

namespace {

/// Character trigrams of a padded term ("^ab", "abc", .., "yz$").
std::vector<std::string> TrigramsOf(std::string_view term) {
  std::string padded = "^";
  padded += term;
  padded += '$';
  std::vector<std::string> out;
  if (padded.size() < 3) return out;
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    out.push_back(padded.substr(i, 3));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

KnowledgeBase::KnowledgeBase(text::Analyzer* analyzer) : analyzer_(analyzer) {
  ADREC_CHECK(analyzer != nullptr);
  trie_.emplace_back();  // root
}

Result<TopicId> KnowledgeBase::AddEntity(Entity entity) {
  auto it = by_uri_.find(entity.uri);
  if (it != by_uri_.end()) {
    return Status::AlreadyExists(
        StringFormat("entity uri already present: %s", entity.uri.c_str()));
  }
  const TopicId id(static_cast<uint32_t>(entities_.size()));
  by_uri_.emplace(entity.uri, id);
  entities_.push_back(std::move(entity));
  return id;
}

Status KnowledgeBase::AddSurfaceForm(TopicId topic, std::string_view phrase) {
  if (topic.value >= entities_.size()) {
    return Status::InvalidArgument("surface form for unknown topic id");
  }
  const std::vector<text::TermId> terms = analyzer_->Analyze(phrase);
  if (terms.empty()) {
    return Status::InvalidArgument(
        StringFormat("surface form analyses to nothing: '%.*s'",
                     static_cast<int>(phrase.size()), phrase.data()));
  }
  NodeId node = 0;
  for (text::TermId term : terms) {
    auto it = trie_[node].children.find(term);
    if (it == trie_[node].children.end()) {
      const NodeId next = static_cast<NodeId>(trie_.size());
      trie_[node].children.emplace(term, next);
      trie_.emplace_back();
      node = next;
    } else {
      node = it->second;
    }
  }
  std::vector<TopicId>& cands = trie_[node].candidates;
  bool already = false;
  for (TopicId existing : cands) {
    if (existing == topic) already = true;
  }
  if (!already) cands.push_back(topic);
  entities_[topic.value].surface_phrases.emplace_back(phrase);
  // Single-token surface stems join the fuzzy index.
  if (terms.size() == 1) {
    const std::string stem = analyzer_->TryTermOf(terms[0]).value();
    std::vector<TopicId>& fuzzy_cands = single_token_[stem];
    if (std::find(fuzzy_cands.begin(), fuzzy_cands.end(), topic) ==
        fuzzy_cands.end()) {
      fuzzy_cands.push_back(topic);
      if (fuzzy_cands.size() == 1) {  // first registration of this stem
        for (const std::string& tri : TrigramsOf(stem)) {
          trigrams_[tri].push_back(stem);
        }
      }
    }
  }
  return Status::OK();
}

std::vector<KnowledgeBase::FuzzyMatch> KnowledgeBase::FuzzyCandidates(
    std::string_view term, double min_similarity) const {
  const std::vector<std::string> query_tris = TrigramsOf(term);
  if (query_tris.empty()) return {};
  // Gather candidate stems sharing at least one trigram, with overlap
  // counts.
  std::unordered_map<std::string, size_t> overlap;
  for (const std::string& tri : query_tris) {
    auto it = trigrams_.find(tri);
    if (it == trigrams_.end()) continue;
    for (const std::string& stem : it->second) ++overlap[stem];
  }
  std::vector<FuzzyMatch> out;
  std::set<uint32_t> seen_topics;
  for (const auto& [stem, shared] : overlap) {
    const size_t stem_tris = TrigramsOf(stem).size();
    const size_t unions = query_tris.size() + stem_tris - shared;
    const double jaccard =
        unions == 0 ? 0.0
                    : static_cast<double>(shared) / static_cast<double>(unions);
    if (jaccard < min_similarity) continue;
    auto cand_it = single_token_.find(stem);
    if (cand_it == single_token_.end()) continue;
    for (TopicId topic : cand_it->second) {
      if (seen_topics.insert(topic.value).second) {
        out.push_back(FuzzyMatch{topic, jaccard});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FuzzyMatch& a, const FuzzyMatch& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.topic.value < b.topic.value;
            });
  return out;
}

Status KnowledgeBase::AddContextText(TopicId topic, std::string_view text,
                                     double weight) {
  if (topic.value >= entities_.size()) {
    return Status::InvalidArgument("context text for unknown topic id");
  }
  for (text::TermId term : analyzer_->Analyze(text)) {
    entities_[topic.value].context.Add(term, weight);
  }
  entities_[topic.value].context_texts.emplace_back(text);
  return Status::OK();
}

const Entity& KnowledgeBase::entity(TopicId id) const {
  ADREC_CHECK(id.value < entities_.size());
  return entities_[id.value];
}

Result<TopicId> KnowledgeBase::FindByUri(std::string_view uri) const {
  auto it = by_uri_.find(std::string(uri));
  if (it == by_uri_.end()) {
    return Status::NotFound(StringFormat(
        "no entity with uri '%.*s'", static_cast<int>(uri.size()), uri.data()));
  }
  return it->second;
}

KnowledgeBase::NodeId KnowledgeBase::Step(NodeId node,
                                          text::TermId term) const {
  if (node >= trie_.size()) return kNoNode;
  auto it = trie_[node].children.find(term);
  return it == trie_[node].children.end() ? kNoNode : it->second;
}

const std::vector<TopicId>& KnowledgeBase::CandidatesAt(NodeId node) const {
  if (node >= trie_.size()) return empty_candidates_;
  return trie_[node].candidates;
}

namespace {

/// Registers one entity with its surface forms and context sentences,
/// aborting on programmer error (the demo KB is static data).
TopicId MustAdd(KnowledgeBase& kb, const char* uri, const char* label,
                double prior, std::initializer_list<const char*> surfaces,
                std::initializer_list<const char*> contexts) {
  Entity entity;
  entity.uri = uri;
  entity.label = label;
  entity.prior = prior;
  Result<TopicId> id = kb.AddEntity(std::move(entity));
  ADREC_CHECK(id.ok());
  for (const char* s : surfaces) {
    ADREC_CHECK(kb.AddSurfaceForm(id.value(), s).ok());
  }
  for (const char* c : contexts) {
    ADREC_CHECK(kb.AddContextText(id.value(), c).ok());
  }
  return id.value();
}

}  // namespace

std::unique_ptr<KnowledgeBase> BuildDemoKnowledgeBase(
    text::Analyzer* analyzer) {
  auto kb = std::make_unique<KnowledgeBase>(analyzer);
  const char* kDbp = "http://dbpedia.org/resource/";

  MustAdd(*kb, "http://dbpedia.org/resource/Volleyball", "Volleyball", 0.95,
          {"volleyball", "beach volleyball"},
          {"volleyball net spike serve block court set match women teams "
           "indoor beach olympic tournament"});
  MustAdd(*kb, "http://dbpedia.org/resource/Nation", "Nation", 0.60,
          {"nation", "national"},
          {"nation country state people government national identity"});
  MustAdd(*kb, "http://dbpedia.org/resource/The_CW", "The CW", 0.70,
          {"the cw", "cw"},
          {"television network channel show series broadcast cw primetime"});
  MustAdd(*kb, "http://dbpedia.org/resource/Team", "Team", 0.55,
          {"team", "teams"},
          {"team players squad roster coach league season win lose"});
  MustAdd(*kb, (std::string(kDbp) + "Adidas").c_str(), "Adidas", 0.90,
          {"adidas"},
          {"adidas shoes sneakers brand sportswear apparel stripes running "
           "football boots"});
  MustAdd(*kb, (std::string(kDbp) + "Nike,_Inc.").c_str(), "Nike, Inc.", 0.85,
          {"nike"},
          {"nike shoes sneakers swoosh brand sportswear running jordan"});
  MustAdd(*kb, (std::string(kDbp) + "Coffee").c_str(), "Coffee", 0.90,
          {"coffee", "espresso", "latte"},
          {"coffee espresso latte barista cafe brew beans morning cup"});
  MustAdd(*kb, (std::string(kDbp) + "Pizza").c_str(), "Pizza", 0.92,
          {"pizza", "margherita"},
          {"pizza slice cheese pepperoni oven italian restaurant dough"});
  MustAdd(*kb, (std::string(kDbp) + "Concert").c_str(), "Concert", 0.80,
          {"concert", "gig", "live music"},
          {"concert stage band music tour tickets crowd festival live"});
  MustAdd(*kb, (std::string(kDbp) + "Marathon").c_str(), "Marathon", 0.85,
          {"marathon", "half marathon"},
          {"marathon race running miles finish line kilometers pace runners"});

  // Deliberately ambiguous surface forms exercise the disambiguator.
  MustAdd(*kb, (std::string(kDbp) + "Apple_Inc.").c_str(), "Apple Inc.", 0.65,
          {"apple"},
          {"apple iphone ipad mac ios store launch tim cook tech company"});
  MustAdd(*kb, (std::string(kDbp) + "Apple").c_str(), "Apple (fruit)", 0.35,
          {"apple", "apples"},
          {"apple fruit orchard pie juice eat sweet tree harvest cider"});
  MustAdd(*kb, (std::string(kDbp) + "Pitch_(music)").c_str(), "Pitch (music)",
          0.40, {"pitch"},
          {"pitch note tone music frequency sound melody"});
  MustAdd(*kb, (std::string(kDbp) + "Pitch_(sports_field)").c_str(),
          "Pitch (sports field)", 0.60, {"pitch"},
          {"pitch field grass football soccer stadium players match game"});
  MustAdd(*kb, (std::string(kDbp) + "Basketball").c_str(), "Basketball", 0.93,
          {"basketball", "hoops"},
          {"basketball court hoop dunk nba finals playoffs points guard"});
  MustAdd(*kb, (std::string(kDbp) + "Yoga").c_str(), "Yoga", 0.90,
          {"yoga", "vinyasa"},
          {"yoga mat pose studio meditation breathing stretch class namaste"});
  MustAdd(*kb, (std::string(kDbp) + "Cinema").c_str(), "Cinema", 0.82,
          {"cinema", "movie", "movies", "film"},
          {"cinema movie film screen premiere tickets director actor watch"});
  MustAdd(*kb, (std::string(kDbp) + "Sushi").c_str(), "Sushi", 0.90,
          {"sushi", "sashimi"},
          {"sushi rice fish salmon tuna roll japanese restaurant chopsticks"});

  return kb;
}

}  // namespace adrec::annotate
