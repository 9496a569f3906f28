#include "text/vocabulary.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace adrec::text {

TermId Vocabulary::Intern(std::string_view term) {
  if (const TermId* id = index_.Find(term)) return *id;
  const TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  index_.Insert(term, id);
  return id;
}

TermId Vocabulary::Lookup(std::string_view term) const {
  const TermId* id = index_.Find(term);
  return id == nullptr ? kInvalidTerm : *id;
}

const std::string& Vocabulary::TermOf(TermId id) const {
  ADREC_CHECK(id < terms_.size());
  return terms_[id];
}

Result<std::string> Vocabulary::TryTermOf(TermId id) const {
  if (id >= terms_.size()) {
    return Status::OutOfRange(
        StringFormat("term id %u >= vocabulary size %zu", id, terms_.size()));
  }
  return terms_[id];
}

}  // namespace adrec::text
