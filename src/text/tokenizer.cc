#include "text/tokenizer.h"

#include <cctype>

#include "common/string_util.h"

namespace adrec::text {

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {}

bool Tokenizer::IsUrlAt(std::string_view rest) {
  return StartsWith(rest, "http://") || StartsWith(rest, "https://") ||
         StartsWith(rest, "HTTP://") || StartsWith(rest, "HTTPS://");
}

size_t Tokenizer::UrlEnd(std::string_view input, size_t i) {
  while (i < input.size() &&
         !std::isspace(static_cast<unsigned char>(input[i]))) {
    ++i;
  }
  return i;
}

bool Tokenizer::IsDigitsOnly(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

std::string_view Tokenizer::Lowered(std::string_view raw,
                                    std::string& scratch) {
  size_t i = 0;
  while (i < raw.size() && !(raw[i] >= 'A' && raw[i] <= 'Z')) ++i;
  if (i == raw.size()) return raw;
  scratch.assign(raw);
  for (; i < scratch.size(); ++i) {
    char& c = scratch[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return scratch;
}

std::vector<Token> Tokenizer::Tokenize(std::string_view input) const {
  std::vector<Token> out;
  std::string scratch;
  Scan(input, scratch, [&](std::string_view text, size_t offset,
                           TokenKind kind) {
    out.push_back(Token{std::string(text), offset, kind});
  });
  return out;
}

}  // namespace adrec::text
