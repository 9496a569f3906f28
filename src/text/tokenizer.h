#ifndef ADREC_TEXT_TOKENIZER_H_
#define ADREC_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace adrec::text {

/// What kind of surface form a token was.
enum class TokenKind {
  kWord,     // plain word
  kHashtag,  // "#volleyball" (emitted without '#')
  kMention,  // "@coach" (emitted without '@')
  kNumber,   // digits only
  kUrl,      // http(s)://... (emitted verbatim)
};

/// One token plus provenance into the original text.
struct Token {
  std::string text;   // normalised form (lowercased unless configured off)
  size_t offset = 0;  // byte offset of the first character in the input
  TokenKind kind = TokenKind::kWord;
};

/// Tokenizer configuration.
struct TokenizerOptions {
  bool lowercase = true;
  bool keep_hashtags = true;   // emit hashtag bodies as tokens
  bool keep_mentions = false;  // @mentions are usually noise for topics
  bool keep_numbers = false;
  bool keep_urls = false;
  size_t min_token_length = 2;
};

/// A tweet-aware word tokenizer. Understands #hashtags, @mentions and URLs,
/// splits on everything non-alphanumeric otherwise, and keeps internal
/// apostrophes ("nation's" -> "nation's"). ASCII-oriented: multi-byte UTF-8
/// sequences are passed through inside words.
class Tokenizer {
 public:
  explicit Tokenizer(TokenizerOptions options = {});

  /// Tokenizes `input` into tokens per the configured options.
  std::vector<Token> Tokenize(std::string_view input) const;

  /// The scanning core, without building strings: calls
  /// `emit(std::string_view text, size_t offset, TokenKind kind)` for each
  /// kept token, in input order. `text` is the normalised form; it views
  /// either `input` or `scratch` (reused across tokens for lowercasing)
  /// and is valid only during the call.
  template <typename Emit>
  void Scan(std::string_view input, std::string& scratch, Emit&& emit) const;

  const TokenizerOptions& options() const { return options_; }

 private:
  static bool IsWordChar(unsigned char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c >= 0x80;  // pass UTF-8 bytes through
  }
  static bool IsUrlAt(std::string_view rest);
  static bool IsDigitsOnly(std::string_view s);
  /// `raw` lowercased: `raw` itself when it holds no 'A'-'Z', else a copy
  /// lowered in `scratch`.
  static std::string_view Lowered(std::string_view raw, std::string& scratch);
  static size_t UrlEnd(std::string_view input, size_t i);

  TokenizerOptions options_;
};

template <typename Emit>
void Tokenizer::Scan(std::string_view input, std::string& scratch,
                     Emit&& emit) const {
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    const char c = input[i];
    // URLs: consume to the next whitespace.
    if ((c == 'h' || c == 'H') && IsUrlAt(input.substr(i))) {
      const size_t end = UrlEnd(input, i);
      if (options_.keep_urls) {
        emit(input.substr(i, end - i), i, TokenKind::kUrl);
      }
      i = end;
      continue;
    }
    TokenKind kind = TokenKind::kWord;
    size_t start = i;
    if (c == '#' || c == '@') {
      kind = (c == '#') ? TokenKind::kHashtag : TokenKind::kMention;
      ++i;
      start = i;
    }
    if (i < n && IsWordChar(static_cast<unsigned char>(input[i]))) {
      size_t end = i;
      while (end < n) {
        const unsigned char wc = static_cast<unsigned char>(input[end]);
        if (IsWordChar(wc)) {
          ++end;
        } else if (wc == '\'' && end + 1 < n &&
                   IsWordChar(static_cast<unsigned char>(input[end + 1])) &&
                   kind == TokenKind::kWord) {
          ++end;  // keep internal apostrophe: "nation's"
        } else {
          break;
        }
      }
      const std::string_view raw = input.substr(i, end - i);
      if (kind == TokenKind::kWord && IsDigitsOnly(raw)) {
        kind = TokenKind::kNumber;
      }
      const bool keep =
          (kind == TokenKind::kWord) ||
          (kind == TokenKind::kHashtag && options_.keep_hashtags) ||
          (kind == TokenKind::kMention && options_.keep_mentions) ||
          (kind == TokenKind::kNumber && options_.keep_numbers);
      if (keep && raw.size() >= options_.min_token_length) {
        emit(options_.lowercase ? Lowered(raw, scratch) : raw, start, kind);
      }
      i = end;
    } else {
      ++i;
    }
  }
}

}  // namespace adrec::text

#endif  // ADREC_TEXT_TOKENIZER_H_
