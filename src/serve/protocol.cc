#include "serve/protocol.h"

#include <charconv>
#include <cstdlib>

#include "common/string_util.h"
#include "feed/trace_io.h"

namespace adrec::serve {

namespace {

constexpr std::string_view kVerbNames[kNumVerbs] = {
    "tweet",   "checkin", "adput",   "addel",    "topk",
    "match",   "analyze", "stats",   "metrics",  "snapshot",
    "checkpoint", "compact", "repl", "promote",  "trace",
    "slow",    "conns",   "ping",    "quit"};

Result<uint64_t> ParseU64(std::string_view field) {
  const std::string s(field);
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || s[0] == '-') {
    return Status::InvalidArgument(
        StringFormat("bad unsigned integer '%s'", s.c_str()));
  }
  return static_cast<uint64_t>(v);
}

Result<int64_t> ParseI64(std::string_view field) {
  const std::string s(field);
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument(
        StringFormat("bad integer '%s'", s.c_str()));
  }
  return static_cast<int64_t>(v);
}

Result<uint32_t> ParseU32(std::string_view field) {
  auto v = ParseU64(field);
  if (!v.ok()) return v.status();
  if (v.value() > UINT32_MAX) {
    return Status::InvalidArgument("id out of range");
  }
  return static_cast<uint32_t>(v.value());
}

}  // namespace

std::string_view VerbName(Verb verb) {
  return kVerbNames[static_cast<size_t>(verb)];
}

bool IsWriteVerb(Verb verb) {
  switch (verb) {
    case Verb::kTweet:
    case Verb::kCheckIn:
    case Verb::kAdPut:
    case Verb::kAdDel:
      return true;
    // Queries, introspection and local-only admin verbs. `analyze`
    // rebuilds derived state from events the follower already replicated,
    // and snapshot/checkpoint write only local artifacts — all fine on a
    // read replica. `repl` stays readable so followers can cascade;
    // `promote` is the verb that ENDS read-only mode.
    case Verb::kTopK:
    case Verb::kMatch:
    case Verb::kAnalyze:
    case Verb::kStats:
    case Verb::kMetrics:
    case Verb::kSnapshot:
    case Verb::kCheckpoint:
    case Verb::kCompact:
    case Verb::kRepl:
    case Verb::kPromote:
    case Verb::kTrace:
    case Verb::kSlow:
    case Verb::kConns:
    case Verb::kPing:
    case Verb::kQuit:
      return false;
  }
  return false;
}

Result<Request> ParseRequest(std::string_view line) {
  const size_t tab = line.find('\t');
  const std::string_view verb =
      tab == std::string_view::npos ? line : line.substr(0, tab);
  const bool has_payload = tab != std::string_view::npos;
  const std::string_view payload =
      has_payload ? line.substr(tab + 1) : std::string_view();

  Request req;
  if (verb == "tweet") {
    req.verb = Verb::kTweet;
    auto t = feed::ParseTweetFields(payload);
    if (!t.ok()) return t.status();
    req.tweet = std::move(t).value();
    return req;
  }
  if (verb == "checkin") {
    req.verb = Verb::kCheckIn;
    auto c = feed::ParseCheckInFields(payload);
    if (!c.ok()) return c.status();
    req.check_in = c.value();
    return req;
  }
  if (verb == "adput") {
    req.verb = Verb::kAdPut;
    auto a = feed::ParseAdFields(payload);
    if (!a.ok()) return a.status();
    req.ad = std::move(a).value();
    return req;
  }
  if (verb == "addel" || verb == "match") {
    req.verb = verb == "addel" ? Verb::kAdDel : Verb::kMatch;
    if (!has_payload || payload.find('\t') != std::string_view::npos) {
      return Status::InvalidArgument(std::string(verb) + " needs <ad>");
    }
    auto id = ParseU32(payload);
    if (!id.ok()) return id.status();
    req.ad_id = AdId(id.value());
    return req;
  }
  if (verb == "topk") {
    req.verb = Verb::kTopK;
    // <user>\t<k>[\t<time>[\t<text...>]] — text is the tail.
    const auto fields = SplitString(payload, '\t', /*keep_empty=*/true);
    if (fields.size() < 2) {
      return Status::InvalidArgument("topk needs <user> <k> [<time> [<text>]]");
    }
    auto user = ParseU32(fields[0]);
    if (!user.ok()) return user.status();
    auto k = ParseU64(fields[1]);
    if (!k.ok()) return k.status();
    if (k.value() == 0 || k.value() > 1000) {
      return Status::InvalidArgument("k must be in [1, 1000]");
    }
    req.tweet.user = UserId(user.value());
    req.k = static_cast<size_t>(k.value());
    if (fields.size() >= 3) {
      auto time = ParseI64(fields[2]);
      if (!time.ok()) return time.status();
      if (time.value() < 0) {
        return Status::InvalidArgument("time must be non-negative");
      }
      req.tweet.time = time.value();
      req.has_time = true;
      if (fields.size() > 3) {
        // Rejoin the tail after the third tab as the query text.
        size_t pos = 0;
        for (int i = 0; i < 3; ++i) pos = payload.find('\t', pos) + 1;
        req.tweet.text = std::string(payload.substr(pos));
      }
    }
    return req;
  }
  if (verb == "analyze") {
    req.verb = Verb::kAnalyze;
    if (has_payload) {
      if (payload.find('\t') != std::string_view::npos) {
        return Status::InvalidArgument("analyze takes at most <alpha>");
      }
      const std::string s(payload);
      char* end = nullptr;
      const double alpha = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0' || alpha < 0.0 || alpha > 1.0) {
        return Status::InvalidArgument(
            StringFormat("bad alpha '%s' (want [0,1])", s.c_str()));
      }
      req.alpha = alpha;
    }
    return req;
  }
  if (verb == "snapshot") {
    req.verb = Verb::kSnapshot;
    if (!has_payload || payload.empty() ||
        payload.find('\t') != std::string_view::npos) {
      return Status::InvalidArgument("snapshot needs <dir>");
    }
    req.dir = std::string(payload);
    return req;
  }
  if (verb == "repl") {
    req.verb = Verb::kRepl;
    if (!has_payload) {
      return Status::InvalidArgument("repl needs <cursor>");
    }
    const size_t tab = payload.find('\t');
    if (tab == std::string_view::npos) {
      auto cursor = ParseU64(payload);
      if (!cursor.ok()) return cursor.status();
      req.cursor = cursor.value();
      return req;
    }
    // Two-field form: repl <shard> <cursor> (per-shard log stream).
    const std::string_view shard_field = payload.substr(0, tab);
    const std::string_view cursor_field = payload.substr(tab + 1);
    if (cursor_field.find('\t') != std::string_view::npos) {
      return Status::InvalidArgument("repl needs <cursor> or <shard> <cursor>");
    }
    auto shard = ParseU64(shard_field);
    if (!shard.ok()) return shard.status();
    auto cursor = ParseU64(cursor_field);
    if (!cursor.ok()) return cursor.status();
    req.repl_shard = static_cast<size_t>(shard.value());
    req.cursor = cursor.value();
    return req;
  }
  if (verb == "trace") {
    req.verb = Verb::kTrace;
    if (has_payload) {
      if (payload == "chrome") {
        req.chrome = true;
      } else if (payload != "tsv") {
        return Status::InvalidArgument("trace takes at most tsv|chrome");
      }
    }
    return req;
  }
  if (verb == "stats" || verb == "metrics" || verb == "checkpoint" ||
      verb == "compact" || verb == "promote" || verb == "slow" ||
      verb == "conns" || verb == "ping" || verb == "quit") {
    if (has_payload) {
      return Status::InvalidArgument(std::string(verb) +
                                     " takes no arguments");
    }
    req.verb = verb == "stats"        ? Verb::kStats
               : verb == "metrics"    ? Verb::kMetrics
               : verb == "checkpoint" ? Verb::kCheckpoint
               : verb == "compact"    ? Verb::kCompact
               : verb == "promote"    ? Verb::kPromote
               : verb == "slow"       ? Verb::kSlow
               : verb == "conns"      ? Verb::kConns
               : verb == "ping"       ? Verb::kPing
                                      : Verb::kQuit;
    return req;
  }
  return Status::InvalidArgument("unknown command '" + std::string(verb) +
                                 "'");
}

std::string FormatTweetCmd(const feed::Tweet& tweet) {
  return "tweet\t" + feed::FormatTweetFields(tweet);
}

std::string FormatCheckInCmd(const feed::CheckIn& check_in) {
  return "checkin\t" + feed::FormatCheckInFields(check_in);
}

std::string FormatAdPutCmd(const feed::Ad& ad) {
  return "adput\t" + feed::FormatAdFields(ad);
}

std::string FormatAdDelCmd(AdId id) {
  return StringFormat("addel\t%u", id.value);
}

std::string FormatTopKCmd(UserId user, size_t k) {
  return StringFormat("topk\t%u\t%zu", user.value, k);
}

std::string FormatTopKCmd(UserId user, size_t k, Timestamp time,
                          std::string_view text) {
  std::string out = StringFormat("topk\t%u\t%zu\t%lld", user.value, k,
                                 static_cast<long long>(time));
  if (!text.empty()) {
    out.push_back('\t');
    // Same sanitisation contract as the trace grammar: single line, no tabs.
    for (char c : text) {
      out.push_back(c == '\t' || c == '\n' || c == '\r' ? ' ' : c);
    }
  }
  return out;
}

std::string FormatMatchCmd(AdId id) {
  return StringFormat("match\t%u", id.value);
}

std::string FormatAnalyzeCmd(double alpha) {
  return StringFormat("analyze\t%.6f", alpha);
}

std::string FormatSnapshotCmd(std::string_view dir) {
  return "snapshot\t" + std::string(dir);
}

std::string FormatReplCmd(uint64_t cursor) {
  return StringFormat("repl\t%llu", static_cast<unsigned long long>(cursor));
}

std::string FormatReplCmd(size_t shard, uint64_t cursor) {
  return StringFormat("repl\t%zu\t%llu", shard,
                      static_cast<unsigned long long>(cursor));
}

void AppendScoreRow(std::string* out, std::string_view tag, uint32_t id,
                    double score) {
  // " <id> <score>\r\n": 1 + 10 + 1 + at most 24 (%.17g of a double,
  // e.g. -2.2250738585072014e-308) + 2 bytes.
  char buf[40];
  char* const end = buf + sizeof(buf);
  char* p = buf;
  *p++ = ' ';
  p = std::to_chars(p, end, id).ptr;
  *p++ = ' ';
  // Precision-17 general form is specified to match printf("%.17g").
  p = std::to_chars(p, end, score, std::chars_format::general, 17).ptr;
  *p++ = '\r';
  *p++ = '\n';
  out->append(tag);
  out->append(buf, p);
}

}  // namespace adrec::serve
