#ifndef ADREC_TEXT_VOCABULARY_H_
#define ADREC_TEXT_VOCABULARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "text/string_id_map.h"

namespace adrec::text {

/// Interned term id (index into a Vocabulary).
using TermId = uint32_t;
constexpr TermId kInvalidTerm = UINT32_MAX;

/// Bidirectional string <-> dense-id interning table. Used for word terms
/// and, via a separate instance, for knowledge-base URIs, so the rest of
/// the system works with dense integers. Not synchronised: text::Analyzer
/// guards the vocabulary it owns with its own lock.
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Returns the id of `term`, interning it if new.
  TermId Intern(std::string_view term);

  /// Returns the id of `term` or kInvalidTerm if unseen.
  TermId Lookup(std::string_view term) const;

  /// Returns the term for an id; id must be < size().
  const std::string& TermOf(TermId id) const;

  /// Returns the term for an id, or an error if out of range.
  Result<std::string> TryTermOf(TermId id) const;

  /// Number of interned terms.
  size_t size() const { return terms_.size(); }

 private:
  StringIdMap index_;
  std::vector<std::string> terms_;
};

}  // namespace adrec::text

#endif  // ADREC_TEXT_VOCABULARY_H_
