#ifndef ADREC_SERVE_PROTOCOL_H_
#define ADREC_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/id_types.h"
#include "common/status.h"
#include "feed/types.h"

namespace adrec::serve {

/// The adrecd wire protocol: a memcached-style text protocol, one request
/// per line, one (possibly multi-line) response per request, processed in
/// order (clients may pipeline).
///
/// Framing: requests are LF-terminated (an optional preceding CR is
/// stripped); responses terminate every line with CRLF. Fields within a
/// request are TAB-separated — not space-separated as in memcached —
/// because tweet text and ad copy are free text; the payload after each
/// ingest verb is exactly the feed::trace_io field grammar, so a trace
/// file line `T\t<user>\t<time>\t<text>` becomes the wire command
/// `tweet\t<user>\t<time>\t<text>` and vice versa.
///
/// Requests:
///   tweet <user> <time> <text...>      -> OK
///   checkin <user> <time> <location>   -> OK
///   adput <id> <campaign> <budget> <bid> <locs;> <slots;> <copy...> -> OK
///   addel <id>                         -> OK | NOT_FOUND
///   topk <user> <k> [<time> [<text...>]] -> ADS <n> / AD <id> <score> / END
///        (time omitted: the server substitutes the newest event time it
///        has seen — "what belongs on this user's feed right now")
///   match <ad>                         -> USERS <n> / USER <id> <score> / END
///   analyze [<alpha>]                  -> OK
///   stats                              -> STAT <name> <value> ... / END
///   metrics                            -> METRICS <bytes> / <payload> / END
///        (payload is Prometheus text exposition, obs::ExportPrometheus)
///   snapshot <dir>                     -> OK   (per-shard dir/shard<i>;
///        dir is relative, `..`-free, resolved under the server's
///        snapshot root — the verb is disabled when no root is set)
///   checkpoint                         -> OK   (WAL-coordinated durable
///        checkpoint — see wal/checkpoint.h; disabled without --wal-dir)
///   compact                            -> OK   (rewrite sealed WAL
///        segments dropping superseded inventory records — see
///        wal/delta/compactor.h; disabled without --wal-dir. Segments a
///        connected follower still needs are preserved.)
///   repl <cursor>                      -> REPL OK <cursor> / <stream...>
///        (replication handshake: the connection becomes a one-way WAL
///        frame stream starting after seqno <cursor> — raw CRC frames
///        interleaved with `REPL HB <tip>` heartbeats; DESIGN.md §12.
///        Disabled without --wal-dir.)
///   repl <shard> <cursor>              -> REPL OK <shard> <cursor> / ...
///        (per-shard-stream form for a sharded log, DESIGN.md §16: the
///        connection streams shard <shard>'s WAL only; a follower opens
///        one such connection per shard. The one-field legacy form is
///        only valid against a single-stream log, and vice versa.)
///   promote                            -> OK   (follower only: detach
///        from the leader, seal the local log, begin accepting writes)
///   trace [tsv|chrome]                 -> TRACE <bytes> / <payload> / END
///        (recent traces from the flight recorder: TSV by default,
///        Chrome trace-event JSON — loadable in Perfetto — with
///        `chrome`; obs/trace.h. Disabled when the daemon runs with
///        --trace-ring=0.)
///   slow                               -> SLOW <bytes> / <payload> / END
///        (the slow-request log: pinned slow/error traces as TSV, with
///        arguments and per-stage breakdown)
///   conns                              -> CONNS <n> / CONN ... / END
///        (per-connection diagnostics: age, idle, bytes, commands, last
///        verb, buffer depths, backpressure/replica/closing flags)
///   ping                               -> PONG
///   quit                               (server closes the connection)
///
/// Error replies: `CLIENT_ERROR <detail>` for anything that fails to
/// parse (the connection stays usable — except over-long lines, which
/// cannot be resynchronised and close it), `SERVER_ERROR <detail>` for
/// engine-side failures, `SERVER_ERROR busy` when the daemon sheds
/// load instead of queueing without bound, and `READONLY` when a write
/// verb reaches a follower (see IsWriteVerb).

/// Command verbs, in wire-name order (VerbName / per-verb metrics).
enum class Verb {
  kTweet = 0,
  kCheckIn,
  kAdPut,
  kAdDel,
  kTopK,
  kMatch,
  kAnalyze,
  kStats,
  kMetrics,
  kSnapshot,
  kCheckpoint,
  kCompact,
  kRepl,
  kPromote,
  kTrace,
  kSlow,
  kConns,
  kPing,
  kQuit,
};

inline constexpr size_t kNumVerbs = 19;

/// The wire name of a verb ("tweet", "checkin", ...).
std::string_view VerbName(Verb verb);

/// True for verbs that mutate replicated engine state — exactly the
/// verbs the WAL records and a read-only follower refuses with
/// `READONLY`. This is THE single classification point: a new verb added
/// to the enum must be classified here (the switch is exhaustive, so
/// forgetting is a compile error) and is covered by the verb-table test
/// in serve_replica_test.cc.
bool IsWriteVerb(Verb verb);

/// One parsed request line. Only the fields of the given verb are
/// meaningful.
struct Request {
  Verb verb = Verb::kPing;
  feed::Tweet tweet;       // kTweet; kTopK (query context)
  feed::CheckIn check_in;  // kCheckIn
  feed::Ad ad;             // kAdPut
  AdId ad_id;              // kAdDel, kMatch
  size_t k = 0;            // kTopK
  /// kTopK: false when the client omitted <time> and the server should
  /// substitute its stream clock.
  bool has_time = false;
  /// kAnalyze: NaN-free; <0 means "use the engine's configured alpha".
  double alpha = -1.0;
  std::string dir;  // kSnapshot
  /// kRepl: last WAL seqno the follower already holds (0 = from the
  /// beginning); streaming resumes at cursor + 1.
  uint64_t cursor = 0;
  /// kRepl: WAL stream requested (two-field form); SIZE_MAX for the
  /// legacy single-stream handshake.
  size_t repl_shard = SIZE_MAX;
  /// kTrace: dump as Chrome trace-event JSON instead of TSV.
  bool chrome = false;
};

/// Parses one request line (terminator already stripped). The error
/// status' message is the `CLIENT_ERROR` detail the server sends back.
Result<Request> ParseRequest(std::string_view line);

/// Client-side request formatters: the exact line `Client` sends (no
/// terminator). Ingest verbs delegate to the trace_io field formatters.
std::string FormatTweetCmd(const feed::Tweet& tweet);
std::string FormatCheckInCmd(const feed::CheckIn& check_in);
std::string FormatAdPutCmd(const feed::Ad& ad);
std::string FormatAdDelCmd(AdId id);
std::string FormatTopKCmd(UserId user, size_t k);
std::string FormatTopKCmd(UserId user, size_t k, Timestamp time,
                          std::string_view text);
std::string FormatMatchCmd(AdId id);
std::string FormatAnalyzeCmd(double alpha);
std::string FormatSnapshotCmd(std::string_view dir);
std::string FormatReplCmd(uint64_t cursor);
std::string FormatReplCmd(size_t shard, uint64_t cursor);

/// Server-side reply row: appends `<tag> <id> <score>\r\n` (the `AD` rows
/// of a topk reply, the `USER` rows of a match reply) with the score in
/// exact round-trip form, byte-identical to printf's `%.17g`, so
/// differential clients see bit-identical rankings. Writes straight into
/// `out` with no temporary strings.
void AppendScoreRow(std::string* out, std::string_view tag, uint32_t id,
                    double score);

}  // namespace adrec::serve

#endif  // ADREC_SERVE_PROTOCOL_H_
