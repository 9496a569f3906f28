#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/snapshot.h"
#include "obs/stats_export.h"
#include "replica/follower.h"
#include "serve/pool/context.h"
#include "serve/reporter.h"
#include "wal/checkpoint.h"
#include "wal/delta/compactor.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace adrec::serve {

namespace {

constexpr std::string_view kCrlf = "\r\n";

/// Cap on forwarded ops in flight per connection (pool mode): past it,
/// the pipeline stops being consumed until acks drain — per-connection
/// backpressure toward the owning worker.
constexpr size_t kMaxPendingForwards = 128;

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(StringFormat("fcntl(O_NONBLOCK): %s",
                                         std::strerror(errno)));
  }
  return Status::OK();
}

/// The `topk` reply — also the byte sequence the result cache memoises.
std::string FormatTopKReply(const std::vector<index::ScoredAd>& ads) {
  std::string out = StringFormat("ADS %zu", ads.size());
  out += kCrlf;
  for (const index::ScoredAd& sa : ads) {
    AppendScoreRow(&out, "AD", sa.ad.value, sa.score);
  }
  out += "END";
  out += kCrlf;
  return out;
}

/// Engine Status -> wire reply for the mutating verbs.
std::string StatusReply(const Status& s) {
  if (s.ok()) return "OK" + std::string(kCrlf);
  if (s.code() == StatusCode::kNotFound) {
    return "NOT_FOUND" + std::string(kCrlf);
  }
  if (s.code() == StatusCode::kInvalidArgument) {
    return "CLIENT_ERROR " + s.message() + std::string(kCrlf);
  }
  return "SERVER_ERROR " + s.ToString() + std::string(kCrlf);
}

}  // namespace

/// One reply position in a connection's pipeline (pool mode). Replies
/// must leave in request order, but a forwarded op completes on another
/// worker's schedule — so each request occupies a slot, local replies
/// complete theirs instantly, and only the done prefix flushes.
struct Server::ReplySlot {
  uint64_t id = 0;
  bool done = false;
  std::string reply;
  /// Open trace of a forwarded op; finished when the ack lands.
  std::unique_ptr<obs::TraceBuilder> trace;
};

/// A forwarded op executed this wave whose ack is withheld until this
/// worker's commit barrier (durability before visibility holds across
/// workers too).
struct Server::PendingAck {
  size_t origin = 0;
  uint64_t conn_id = 0;
  uint64_t slot_id = 0;
  std::string reply;
};

/// Per-connection state, owned and touched only by the event loop.
struct Server::Connection {
  int fd = -1;
  /// Unconsumed request bytes (partial or backpressured lines).
  std::string in;
  /// Response bytes not yet accepted by the socket.
  std::string out;
  std::chrono::steady_clock::time_point last_active;
  /// Peer half-closed (or quit): flush `out`, then close.
  bool closing = false;
  // --- `conns` diagnostics ---
  /// Monotonic connection id (fds are recycled; ids are not).
  uint64_t id = 0;
  std::chrono::steady_clock::time_point created;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t cmds = 0;
  /// Wire name of the last parsed verb (static storage via VerbName).
  std::string_view last_verb = "-";
  /// Replication stream (post-`repl` handshake): exempt from the idle
  /// reaper and the global in-flight cap, fed by PumpReplicas.
  bool replica = false;
  /// WAL stream this replication connection follows.
  size_t repl_stream = 0;
  /// Next WAL seqno this replication stream is owed.
  uint64_t repl_next_seqno = 0;
  /// Byte-offset resume state so tail reads do not rescan the segment.
  wal::CursorHint repl_hint;
  std::chrono::steady_clock::time_point repl_last_hb;
  // --- Pool mode ---
  /// In-order reply queue; non-empty only while forwarded ops are in
  /// flight (empty pipeline bypasses it entirely).
  std::deque<ReplySlot> pending;
  uint64_t next_slot = 1;
};

Server::Server(core::ShardedEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      ctr_accepted_(metrics_.GetCounter("serve.connections_accepted")),
      ctr_rejected_(metrics_.GetCounter("serve.connections_rejected")),
      g_active_(metrics_.GetGauge("serve.connections_active")),
      ctr_parse_errors_(metrics_.GetCounter("serve.parse_errors")),
      ctr_sheds_(metrics_.GetCounter("serve.sheds")),
      ctr_bytes_in_(metrics_.GetCounter("serve.bytes_in")),
      ctr_bytes_out_(metrics_.GetCounter("serve.bytes_out")),
      ctr_idle_closed_(metrics_.GetCounter("serve.idle_closed")),
      ctr_readonly_rejected_(
          metrics_.GetCounter("serve.readonly_rejected")),
      ctr_repl_bytes_shipped_(
          metrics_.GetCounter("serve.repl_bytes_shipped")),
      ctr_repl_heartbeats_(metrics_.GetCounter("serve.repl_heartbeats")),
      g_repl_streams_(metrics_.GetGauge("serve.repl_streams")),
      ctr_forwarded_(metrics_.GetCounter("serve.pool_forwarded")),
      ctr_forward_acks_(metrics_.GetCounter("serve.pool_forward_acks")),
      ctr_barrier_ops_(metrics_.GetCounter("serve.pool_barrier_ops")) {
  ADREC_CHECK(engine_ != nullptr);
  ADREC_CHECK(options_.wal == nullptr || options_.sharded_wal == nullptr);
  if (options_.sharded_wal != nullptr) {
    for (size_t s = 0; s < options_.sharded_wal->num_streams(); ++s) {
      streams_.push_back(options_.sharded_wal->stream(s));
    }
    // Stream s holds exactly shard s's history (plus the ad broadcast):
    // any other mapping would break per-shard replay.
    ADREC_CHECK(streams_.size() == 1 ||
                streams_.size() == engine_->num_shards());
  } else if (options_.wal != nullptr) {
    streams_.push_back(options_.wal);
  }
  stream_dirty_.assign(streams_.size(), false);
  followers_ = options_.followers;
  if (options_.follower != nullptr) {
    followers_.push_back(options_.follower);
  }
  // A follower starts read-only; `promote` is the only way out. A pool
  // worker also starts read-only when any sibling has a follower.
  read_only_ = !followers_.empty() || options_.start_read_only;
  pool_ = options_.pool;
  if (pool_ != nullptr) {
    ADREC_CHECK(options_.lane < pool_->workers);
    // The topk cache is per-worker state invalidated by pool-wide ingest;
    // pool mode runs without it (DESIGN.md §16).
    ADREC_CHECK(options_.topk_cache.capacity == 0);
  }
  if (options_.topk_cache.capacity > 0) {
    cache_ = std::make_unique<cache::TopkCache>(options_.topk_cache);
    for (replica::Follower* follower : followers_) {
      // Replicated ingest must invalidate exactly like local ingest; the
      // observer fires pre-apply on the event-loop thread.
      follower->set_apply_observer(
          [this](const feed::FeedEvent& event) { InvalidateCacheFor(event); });
    }
  }
  for (size_t v = 0; v < kNumVerbs; ++v) {
    const std::string name(VerbName(static_cast<Verb>(v)));
    ctr_cmds_[v] = metrics_.GetCounter("serve.cmd_" + name);
    tm_cmds_[v] = metrics_.GetTimer("serve.cmd_" + name + "_us");
  }
}

Server::~Server() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    for (int fd : adopted_) ::close(fd);
    adopted_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

uint32_t Server::worker_id() const {
  return pool_mode() ? static_cast<uint32_t>(options_.lane + 1) : 0;
}

bool Server::OwnsShard(size_t shard) const {
  return !pool_mode() || shard % pool_->workers == options_.lane;
}

Timestamp Server::StreamNow() const {
  return pool_mode()
             ? static_cast<Timestamp>(
                   pool_->stream_now.load(std::memory_order_relaxed))
             : stream_now_;
}

void Server::BumpStreamClock(Timestamp t) {
  if (pool_mode()) {
    pool_->BumpStreamClock(static_cast<int64_t>(t));
  } else if (t > stream_now_) {
    stream_now_ = t;
  }
}

Status Server::Start() {
  if (pipe(wake_fds_) != 0) {
    return Status::Internal(StringFormat("pipe: %s", std::strerror(errno)));
  }
  ADREC_RETURN_NOT_OK(SetNonBlocking(wake_fds_[0]));

  // Pool workers do not listen: the PoolServer's acceptor thread owns
  // the listening socket and hands accepted fds over via AdoptSocket.
  if (pool_mode()) return Status::OK();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StringFormat("socket: %s", std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Internal(StringFormat("bind %s:%u: %s",
                                         options_.host.c_str(), options_.port,
                                         std::strerror(errno)));
  }
  if (listen(listen_fd_, 128) != 0) {
    return Status::Internal(StringFormat("listen: %s", std::strerror(errno)));
  }
  ADREC_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(StringFormat("getsockname: %s",
                                         std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  return Status::OK();
}

void Server::RequestDrain() {
  // Async-signal-safe: one byte down the self-pipe wakes poll(); the loop
  // reads the pipe, sees the flag and flips into draining.
  drain_requested_.store(true, std::memory_order_release);
  const char b = 'q';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
}

void Server::AdoptSocket(int fd) {
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    adopted_.push_back(fd);
  }
  const char b = 'a';
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
}

size_t Server::InflightBytes() const {
  // Replication streams are exempt: a catching-up follower legitimately
  // holds megabytes of frames in flight, and shedding CLIENT traffic
  // because a REPLICA is slow would invert the service's priorities.
  // Replica buffers are bounded separately (PumpReplicas stops feeding a
  // stream past max_write_buffer_bytes).
  size_t total = 0;
  for (const auto& [fd, conn] : connections_) {
    if (!conn.replica) total += conn.out.size();
  }
  return total;
}

void Server::AdmitSocket(int fd) {
  if (connections_.size() >= options_.max_connections || draining_) {
    // Shed at the door: tell the client why, then hang up. The
    // best-effort write is fine — the socket buffer of a fresh
    // connection is empty.
    const std::string busy = std::string("SERVER_ERROR busy") +
                             std::string(kCrlf);
    [[maybe_unused]] const ssize_t n = ::write(fd, busy.data(), busy.size());
    ::close(fd);
    ctr_rejected_->Inc();
    ctr_sheds_->Inc();
    return;
  }
  if (!SetNonBlocking(fd).ok()) {
    ::close(fd);
    return;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Connection conn;
  conn.fd = fd;
  conn.last_active = std::chrono::steady_clock::now();
  conn.id = next_conn_id_++;
  conn.created = conn.last_active;
  connections_.emplace(fd, std::move(conn));
  ctr_accepted_->Inc();
  g_active_->Set(static_cast<double>(connections_.size()));
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EMFILE/ENFILE (and other persistent failures): the listening fd
      // stays readable, so going straight back to poll would busy-spin
      // at 100% CPU. Stop polling the listener briefly instead.
      ADREC_LOG(kWarning) << "serve: accept: " << std::strerror(errno)
                          << ", pausing accepts";
      accept_pause_until_ = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(100);
      return;
    }
    AdmitSocket(fd);
  }
}

void Server::AdoptPending() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lk(adopt_mu_);
    fds.swap(adopted_);
  }
  for (int fd : fds) AdmitSocket(fd);
}

bool Server::ReadFrom(Connection* conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->in.append(buf, static_cast<size_t>(n));
      ctr_bytes_in_->Inc(static_cast<uint64_t>(n));
      conn->bytes_in += static_cast<uint64_t>(n);
      conn->last_active = std::chrono::steady_clock::now();
      // Oversized frame: no newline within the cap means the client lost
      // the protocol; there is no safe resync point, so answer and close.
      if (conn->in.size() > options_.max_line_bytes &&
          conn->in.find('\n') == std::string::npos) {
        ctr_parse_errors_->Inc();
        conn->in.clear();
        EmitReply(conn, "CLIENT_ERROR line too long" + std::string(kCrlf));
        conn->closing = true;
        return true;
      }
      if (static_cast<size_t>(n) < sizeof(buf)) return true;
      continue;  // possibly more buffered
    }
    if (n == 0) {
      // Half-close: the peer is done sending but still reads. Process
      // what arrived, flush, then close our side.
      conn->closing = true;
      return true;
    }
    if (errno == EINTR) continue;  // drain signal mid-recv: just retry
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    CloseConnection(conn);  // ECONNRESET and friends
    return false;
  }
}

void Server::ProcessLines(Connection* conn) {
  size_t start = 0;
  while (start < conn->in.size()) {
    // Backpressure: once this connection's pending responses pass the
    // cap, stop consuming its pipeline — poll stops watching POLLIN until
    // the peer drains the write buffer.
    if (conn->out.size() >= options_.max_write_buffer_bytes) break;
    // Pool backpressure: too many forwarded ops awaiting acks — resume
    // once the owner's acks drain the slot queue.
    if (conn->pending.size() >= kMaxPendingForwards) break;
    const size_t nl = conn->in.find('\n', start);
    if (nl == std::string::npos) {
      // A partial line longer than the cap can never complete validly.
      if (conn->in.size() - start > options_.max_line_bytes) {
        ctr_parse_errors_->Inc();
        EmitReply(conn, "CLIENT_ERROR line too long" + std::string(kCrlf));
        conn->closing = true;
        start = conn->in.size();
      }
      break;
    }
    size_t end = nl;
    if (end > start && conn->in[end - 1] == '\r') --end;
    // The cap applies to complete lines too, even when the newline
    // arrived in the same read batch (ReadFrom only sees newline-less
    // overruns); a client this far out of protocol is cut off.
    if (end - start > options_.max_line_bytes) {
      ctr_parse_errors_->Inc();
      EmitReply(conn, "CLIENT_ERROR line too long" + std::string(kCrlf));
      conn->closing = true;
      start = conn->in.size();
      break;
    }
    const bool was_closing = conn->closing;
    Dispatch(std::string_view(conn->in).substr(start, end - start), conn);
    start = nl + 1;
    if (conn->closing && !was_closing) {  // quit: drop any pipelined tail
      start = conn->in.size();
      break;
    }
  }
  conn->in.erase(0, start);
}

void Server::EmitReply(Connection* conn, std::string reply) {
  if (conn->pending.empty()) {
    // Fast path: no forwarded op ahead of us, the reply goes straight to
    // the write buffer (this is every reply outside pool mode).
    conn->out += reply;
    return;
  }
  ReplySlot slot;
  slot.id = conn->next_slot++;
  slot.done = true;
  slot.reply = std::move(reply);
  conn->pending.push_back(std::move(slot));
}

void Server::FlushReplySlots(Connection* conn) {
  while (!conn->pending.empty() && conn->pending.front().done) {
    conn->out += conn->pending.front().reply;
    conn->pending.pop_front();
  }
}

void Server::Dispatch(std::string_view line, Connection* conn) {
  // Every request gets a trace (when the flight recorder is on): started
  // before parsing so even malformed lines leave a pinned record with
  // the refusal reason — overload and abuse forensics need exactly the
  // requests that never executed.
  std::unique_ptr<obs::TraceBuilder> trace;
  if (options_.tracer != nullptr && options_.tracer->enabled()) {
    trace = trace_pool_.Acquire();
    trace->Start(options_.tracer->NextTraceId(), line);
    trace->SetWorker(worker_id());
  }
  const uint32_t parse_span =
      trace != nullptr ? trace->StartSpan("serve.parse") : 0;
  auto parsed = ParseRequest(line);
  if (trace != nullptr) trace->EndSpan(parse_span);
  if (!parsed.ok()) {
    ctr_parse_errors_->Inc();
    const std::string detail = parsed.status().message();
    EmitReply(conn, "CLIENT_ERROR " + detail + std::string(kCrlf));
    if (trace != nullptr) {
      trace->SetOutcome(obs::TraceOutcome::kError);
      trace->SetReason("CLIENT_ERROR " + detail);
      FinishTrace(std::move(trace));
    }
    return;
  }
  const Request& req = parsed.value();
  const size_t verb = static_cast<size_t>(req.verb);
  ctr_cmds_[verb]->Inc();
  ++conn->cmds;
  conn->last_verb = VerbName(req.verb);
  if (req.verb == Verb::kQuit) {
    conn->closing = true;
    FinishTrace(std::move(trace));
    return;
  }
  // Follower read-only gate. The classification lives in IsWriteVerb —
  // one switch, compile-time exhaustive — so a future verb cannot reach
  // the engine's write path here without being classified there first.
  // Pool note: read_only_ is set identically on every worker at startup
  // and cleared for all of them by the (barrier) promote, so gating at
  // the receiving worker is gating the pool.
  if (read_only_ && IsWriteVerb(req.verb)) {
    ctr_readonly_rejected_->Inc();
    EmitReply(conn, "READONLY" + std::string(kCrlf));
    if (trace != nullptr) {
      trace->SetOutcome(obs::TraceOutcome::kReadonly);
      trace->SetReason("READONLY");
      FinishTrace(std::move(trace));
    }
    return;
  }
  // Global in-flight cap: executing a command whose response has nowhere
  // to go just grows memory; shed instead.
  if (InflightBytes() > options_.max_inflight_bytes) {
    ctr_sheds_->Inc();
    EmitReply(conn, "SERVER_ERROR busy" + std::string(kCrlf));
    if (trace != nullptr) {
      trace->SetOutcome(obs::TraceOutcome::kShed);
      trace->SetReason("SERVER_ERROR busy");
      FinishTrace(std::move(trace));
    }
    return;
  }
  // Pool routing (DESIGN.md §16). Hot verbs go to their shard's owner:
  // locally when this worker owns the shard, else forwarded through the
  // mailbox with an ordered reply slot. Rare coordination verbs
  // stop-the-world instead of growing fan-out/merge machinery.
  size_t shard = 0;
  if (pool_mode()) {
    switch (req.verb) {
      case Verb::kTweet:
        shard = engine_->ShardOf(req.tweet.user);
        break;
      case Verb::kCheckIn:
        shard = engine_->ShardOf(req.check_in.user);
        break;
      case Verb::kTopK:
        // Routed to the author's shard, same as the engine itself routes.
        shard = engine_->ShardOf(req.tweet.user);
        break;
      case Verb::kAdPut:
      case Verb::kAdDel:
      case Verb::kAnalyze:
      case Verb::kMatch:
      case Verb::kSnapshot:
      case Verb::kCheckpoint:
      case Verb::kCompact:
      case Verb::kPromote:
      case Verb::kConns:
      case Verb::kStats:
      case Verb::kMetrics: {
        obs::ScopedTimer timer(tm_cmds_[verb]);
        const uint32_t exec_span =
            trace != nullptr ? trace->StartSpan("pool.barrier") : 0;
        std::string reply = ExecuteBarrierVerb(req, line, conn);
        if (trace != nullptr) {
          trace->EndSpan(exec_span);
          if (StartsWith(reply, "CLIENT_ERROR") ||
              StartsWith(reply, "SERVER_ERROR")) {
            trace->SetOutcome(obs::TraceOutcome::kError);
            const size_t eol = reply.find('\r');
            trace->SetReason(std::string_view(reply).substr(
                0, eol == std::string::npos ? reply.size() : eol));
          }
        }
        EmitReply(conn, std::move(reply));
        FinishTrace(std::move(trace));
        return;
      }
      default:
        break;  // trace/slow/repl/ping: purely local
    }
    if ((req.verb == Verb::kTweet || req.verb == Verb::kCheckIn ||
         req.verb == Verb::kTopK) &&
        !OwnsShard(shard)) {
      obs::ScopedTimer timer(tm_cmds_[verb]);
      ForwardRequest(conn, req, line, shard, std::move(trace));
      return;
    }
  }
  // Write-ahead: the raw request line is the log payload (the ingest
  // grammar IS the wire grammar), appended before the engine mutates. An
  // event the WAL cannot record is refused — never applied-but-lost.
  // With per-shard streams, a feed event goes to its owner shard's
  // stream only; ad ops are duplicated into every stream so each stream
  // alone totally orders everything that touches its shard.
  bool wal_appended = false;
  if (!streams_.empty() &&
      (req.verb == Verb::kTweet || req.verb == Verb::kCheckIn ||
       req.verb == Verb::kAdPut || req.verb == Verb::kAdDel)) {
    const uint32_t append_span =
        trace != nullptr ? trace->StartSpan("wal.append") : 0;
    Status append_status = Status::OK();
    if (req.verb == Verb::kAdPut || req.verb == Verb::kAdDel) {
      for (size_t s = 0; s < streams_.size() && append_status.ok(); ++s) {
        auto seqno = streams_[s]->AppendDeferred(line);
        if (!seqno.ok()) append_status = seqno.status();
        stream_dirty_[s] = true;
      }
    } else {
      const size_t user_shard =
          req.verb == Verb::kTweet ? engine_->ShardOf(req.tweet.user)
                                   : engine_->ShardOf(req.check_in.user);
      const size_t s = StreamIndexFor(user_shard);
      auto seqno = streams_[s]->AppendDeferred(line);
      if (!seqno.ok()) append_status = seqno.status();
      stream_dirty_[s] = true;
    }
    if (trace != nullptr) trace->EndSpan(append_span);
    if (!append_status.ok()) {
      ADREC_LOG(kError) << "serve: wal append failed: "
                        << append_status.ToString();
      EmitReply(conn,
                "SERVER_ERROR wal append failed" + std::string(kCrlf));
      if (trace != nullptr) {
        trace->SetOutcome(obs::TraceOutcome::kError);
        trace->SetReason("SERVER_ERROR wal append failed");
        FinishTrace(std::move(trace));
      }
      return;
    }
    wal_dirty_ = true;
    wal_appended = true;
  }
  {
    obs::ScopedTimer timer(tm_cmds_[verb]);
    const uint32_t exec_span =
        trace != nullptr ? trace->StartSpan("serve.dispatch") : 0;
    // Engine stage probes (obs::StageSpan) attach to the active trace,
    // so their spans nest under serve.dispatch without the engine ever
    // seeing a trace parameter.
    obs::ScopedActiveTrace active(trace.get());
    std::string reply = Execute(req, conn);
    if (trace != nullptr) {
      trace->EndSpan(exec_span);
      if (StartsWith(reply, "CLIENT_ERROR") ||
          StartsWith(reply, "SERVER_ERROR")) {
        trace->SetOutcome(obs::TraceOutcome::kError);
        const size_t eol = reply.find('\r');
        trace->SetReason(std::string_view(reply).substr(
            0, eol == std::string::npos ? reply.size() : eol));
      }
    }
    EmitReply(conn, std::move(reply));
  }
  if (trace == nullptr) return;
  if (wal_appended) {
    // The request is not over: its reply is withheld until the wave's
    // group commit. CommitWal appends the shared `wal.commit_wave` span
    // and finishes these traces, so the root duration matches what the
    // client observes.
    wave_traces_.push_back(std::move(trace));
  } else {
    FinishTrace(std::move(trace));
  }
}

void Server::ForwardRequest(Connection* conn, const Request& req,
                            std::string_view line, size_t shard,
                            std::unique_ptr<obs::TraceBuilder> trace) {
  const size_t owner = shard % pool_->workers;
  ReplySlot slot;
  slot.id = conn->next_slot++;
  slot.trace = std::move(trace);
  const uint64_t slot_id = slot.id;
  conn->pending.push_back(std::move(slot));
  ctr_forwarded_->Inc();
  Server* target = pool_->servers[owner];
  pool_->mail.Post(
      options_.lane, owner,
      [target, req, line = std::string(line), origin = options_.lane,
       conn_id = conn->id, slot_id]() mutable {
        target->ExecuteForwarded(std::move(req), std::move(line), origin,
                                 conn_id, slot_id);
      });
}

void Server::ExecuteForwarded(Request req, std::string line, size_t origin,
                              uint64_t conn_id, uint64_t slot_id) {
  std::string reply;
  switch (req.verb) {
    case Verb::kTweet:
    case Verb::kCheckIn: {
      // Same write-ahead discipline as the local path: the owner logs to
      // its own shard stream before it applies, and the ack is withheld
      // until the owner's commit barrier (FlushWaveAcks).
      const size_t user_shard =
          req.verb == Verb::kTweet ? engine_->ShardOf(req.tweet.user)
                                   : engine_->ShardOf(req.check_in.user);
      if (!streams_.empty()) {
        const size_t s = StreamIndexFor(user_shard);
        auto seqno = streams_[s]->AppendDeferred(line);
        if (!seqno.ok()) {
          ADREC_LOG(kError) << "serve: forwarded wal append failed: "
                            << seqno.status().ToString();
          reply = "SERVER_ERROR wal append failed" + std::string(kCrlf);
          break;
        }
        stream_dirty_[s] = true;
        wal_dirty_ = true;
      }
      if (req.verb == Verb::kTweet) {
        engine_->OnTweet(req.tweet);
        BumpStreamClock(req.tweet.time);
      } else {
        engine_->OnCheckIn(req.check_in);
        BumpStreamClock(req.check_in.time);
      }
      reply = "OK" + std::string(kCrlf);
      break;
    }
    case Verb::kTopK:
      reply = ExecuteTopK(req);
      break;
    default:
      reply = "SERVER_ERROR bad forward" + std::string(kCrlf);
      break;
  }
  wave_acks_.push_back({origin, conn_id, slot_id, std::move(reply)});
}

void Server::FlushWaveAcks() {
  if (wave_acks_.empty()) return;
  for (PendingAck& ack : wave_acks_) {
    Server* origin = pool_->servers[ack.origin];
    pool_->mail.Post(options_.lane, ack.origin,
                     [origin, conn_id = ack.conn_id, slot_id = ack.slot_id,
                      reply = std::move(ack.reply)]() mutable {
                       origin->CompleteSlot(conn_id, slot_id,
                                            std::move(reply));
                     });
  }
  wave_acks_.clear();
}

void Server::CompleteSlot(uint64_t conn_id, uint64_t slot_id,
                          std::string reply) {
  ctr_forward_acks_->Inc();
  for (auto& [fd, conn] : connections_) {
    if (conn.id != conn_id) continue;
    for (ReplySlot& slot : conn.pending) {
      if (slot.id != slot_id) continue;
      slot.done = true;
      slot.reply = std::move(reply);
      if (slot.trace != nullptr) {
        if (StartsWith(slot.reply, "CLIENT_ERROR") ||
            StartsWith(slot.reply, "SERVER_ERROR")) {
          slot.trace->SetOutcome(obs::TraceOutcome::kError);
          const size_t eol = slot.reply.find('\r');
          slot.trace->SetReason(std::string_view(slot.reply).substr(
              0, eol == std::string::npos ? slot.reply.size() : eol));
        }
        FinishTrace(std::move(slot.trace));
      }
      return;
    }
    return;  // slot vanished (connection reset its pipeline): drop
  }
  // Connection closed while the op was in flight: the reply has no
  // recipient. The write itself is durable on the owner — same semantics
  // as a client disconnecting before reading its reply.
}

std::string Server::ExecuteBarrierVerb(const Request& req,
                                       std::string_view line,
                                       Connection* conn) {
  ctr_barrier_ops_->Inc();
  std::string reply;
  pool_->barrier.Run(options_.lane, &pool_->mail,
                     [&] { reply = ExecuteQuiesced(req, line, conn); });
  return reply;
}

std::string Server::ExecuteQuiesced(const Request& req,
                                    std::string_view line, Connection* conn) {
  // Runs with the pool quiescent: every worker is parked in the barrier,
  // so shards, WAL streams and sibling connection tables are all safe to
  // touch — the single-threaded machinery below needs no extra locking.
  switch (req.verb) {
    case Verb::kAdPut:
    case Verb::kAdDel: {
      // Broadcast: the ad op is appended to EVERY stream (each stream
      // alone must totally order everything touching its shard), then
      // applied to every shard. The appends stay deferred — the
      // originating worker's commit barrier (which covers all streams it
      // dirtied) runs before its reply can flush.
      for (size_t s = 0; s < streams_.size(); ++s) {
        auto seqno = streams_[s]->AppendDeferred(line);
        if (!seqno.ok()) {
          ADREC_LOG(kError) << "serve: barrier wal append failed: "
                            << seqno.status().ToString();
          return "SERVER_ERROR wal append failed" + std::string(kCrlf);
        }
        stream_dirty_[s] = true;
        wal_dirty_ = true;
      }
      const Status st = req.verb == Verb::kAdPut
                            ? engine_->InsertAd(req.ad)
                            : engine_->RemoveAd(req.ad_id);
      return StatusReply(st);
    }
    case Verb::kAnalyze:
      return StatusReply(req.alpha < 0.0 ? engine_->RunAnalysis()
                                         : engine_->RunAnalysis(req.alpha));
    case Verb::kMatch:
      return ExecuteMatch(req);
    case Verb::kSnapshot:
      return ExecuteSnapshot(req);
    case Verb::kCheckpoint:
      return ExecuteCheckpoint();
    case Verb::kCompact:
      return ExecuteCompact();
    case Verb::kPromote:
      return ExecutePromote();
    case Verb::kStats:
      return ExecuteStats();
    case Verb::kMetrics:
      return ExecuteMetrics();
    case Verb::kConns: {
      size_t total = 0;
      for (Server* s : pool_->servers) total += s->num_connections();
      std::string out = StringFormat("CONNS %zu", total) +
                        std::string(kCrlf);
      for (Server* s : pool_->servers) s->AppendConnsTo(&out, conn);
      out += "END";
      out += kCrlf;
      return out;
    }
    default:
      return "SERVER_ERROR unreachable" + std::string(kCrlf);
  }
}

void Server::FinishTrace(std::unique_ptr<obs::TraceBuilder> trace) {
  if (trace == nullptr) return;
  if (options_.tracer != nullptr) options_.tracer->Finish(trace.get());
  trace_pool_.Release(std::move(trace));
}

std::string Server::Execute(const Request& req, Connection* conn) {
  (void)conn;
  switch (req.verb) {
    case Verb::kTweet:
      engine_->OnTweet(req.tweet);
      if (cache_ != nullptr) cache_->OnTweet(req.tweet.user);
      BumpStreamClock(req.tweet.time);
      return "OK" + std::string(kCrlf);
    case Verb::kCheckIn:
      engine_->OnCheckIn(req.check_in);
      if (cache_ != nullptr) {
        cache_->OnCheckIn(req.check_in.user, req.check_in.location);
      }
      BumpStreamClock(req.check_in.time);
      return "OK" + std::string(kCrlf);
    case Verb::kAdPut: {
      const Status st = engine_->InsertAd(req.ad);
      if (cache_ != nullptr && st.ok()) {
        cache_->OnAdPut(req.ad.target_locations, req.ad.target_slots);
      }
      return StatusReply(st);
    }
    case Verb::kAdDel: {
      // The fan-out needs the ad's targeting as stored, and the store
      // forgets it on removal — look it up first.
      std::vector<LocationId> target_locations;
      std::vector<SlotId> target_slots;
      bool stored = false;
      if (cache_ != nullptr) {
        if (const ads::StoredAd* ad = engine_->FindAd(req.ad_id)) {
          stored = true;
          target_locations = ad->ad.target_locations;
          target_slots = ad->ad.target_slots;
        }
      }
      const Status st = engine_->RemoveAd(req.ad_id);
      if (cache_ != nullptr && stored && st.ok()) {
        cache_->OnAdRemoved(target_locations, target_slots);
      }
      return StatusReply(st);
    }
    case Verb::kTopK:
      return ExecuteTopK(req);
    case Verb::kMatch:
      return ExecuteMatch(req);
    case Verb::kAnalyze:
      return StatusReply(req.alpha < 0.0 ? engine_->RunAnalysis()
                                         : engine_->RunAnalysis(req.alpha));
    case Verb::kStats:
      return ExecuteStats();
    case Verb::kMetrics:
      return ExecuteMetrics();
    case Verb::kSnapshot:
      return ExecuteSnapshot(req);
    case Verb::kCheckpoint:
      return ExecuteCheckpoint();
    case Verb::kCompact:
      return ExecuteCompact();
    case Verb::kRepl:
      return ExecuteRepl(req, conn);
    case Verb::kPromote:
      return ExecutePromote();
    case Verb::kTrace:
      return ExecuteTrace(req);
    case Verb::kSlow:
      return ExecuteSlow();
    case Verb::kConns:
      return ExecuteConns(conn);
    case Verb::kPing:
      return "PONG" + std::string(kCrlf);
    case Verb::kQuit:
      break;  // handled in Dispatch
  }
  return "SERVER_ERROR unreachable" + std::string(kCrlf);
}

std::string Server::ExecuteTopK(const Request& req) {
  feed::Tweet query = req.tweet;
  if (!req.has_time) query.time = StreamNow();
  if (cache_ != nullptr) return ExecuteTopKCached(query, req.k);
  return FormatTopKReply(engine_->TopKAdsForTweet(query, req.k));
}

std::string Server::ExecuteTopKCached(const feed::Tweet& query, size_t k) {
  cache::TopkKey key;
  key.user = query.user.value;
  key.time = query.time;
  key.k = static_cast<uint32_t>(k);
  key.text = query.text;

  {
    obs::StageSpan probe(cache_->lookup_timer(), "cache.lookup");
    if (cache::TopkCache::Entry* entry = cache_->Find(key)) {
      // Serving is a mutation: re-check and charge the memoised ads
      // through the engine so a hit is observably identical to a
      // recomputation. A failed revalidation falls through to recompute.
      if (engine_->ChargeCachedTopK(query, entry->ads)) {
        cache_->RecordHit(entry);
        std::string reply = entry->reply;
        if (!entry->ads.empty() && engine_->frequency_cap_enabled()) {
          cache_->OnUserCharged(query.user, key);
        }
        return reply;
      }
      cache_->RecordRevalidationMiss(entry);
    } else {
      cache_->RecordMiss();
    }
  }

  const std::vector<index::ScoredAd> ads = engine_->TopKAdsForTweet(query, k);
  std::string reply = FormatTopKReply(ads);
  {
    obs::StageSpan probe(cache_->fill_timer(), "cache.fill");
    const core::TopkContext ctx = engine_->TopkContextFor(query);
    std::vector<AdId> ids;
    ids.reserve(ads.size());
    for (const index::ScoredAd& sa : ads) ids.push_back(sa.ad);
    const bool charged = !ids.empty();
    cache_->Insert(key, reply, std::move(ids), ctx.location, ctx.slot);
    // The compute above charged this user's frequency caps, which can
    // reshape cap decisions baked into their other entries.
    if (charged && engine_->frequency_cap_enabled()) {
      cache_->OnUserCharged(query.user, key);
    }
  }
  return reply;
}

void Server::InvalidateCacheFor(const feed::FeedEvent& event) {
  if (cache_ == nullptr) return;
  switch (event.kind) {
    case feed::EventKind::kTweet:
      cache_->OnTweet(event.tweet.user);
      break;
    case feed::EventKind::kCheckIn:
      cache_->OnCheckIn(event.check_in.user, event.check_in.location);
      break;
    case feed::EventKind::kAdInsert:
      cache_->OnAdPut(event.ad.target_locations, event.ad.target_slots);
      break;
    case feed::EventKind::kAdDelete:
      // Pre-apply: the ad is still in the store. A missing ad means the
      // delete will no-op, so nothing can change.
      if (const ads::StoredAd* ad = engine_->FindAd(event.ad_id)) {
        cache_->OnAdRemoved(ad->ad.target_locations, ad->ad.target_slots);
      }
      break;
  }
}

std::string Server::ExecuteMatch(const Request& req) {
  auto match = engine_->RecommendUsers(req.ad_id);
  if (!match.ok()) {
    if (match.status().code() == StatusCode::kNotFound) {
      return "NOT_FOUND" + std::string(kCrlf);
    }
    return "SERVER_ERROR " + match.status().ToString() + std::string(kCrlf);
  }
  const std::vector<core::MatchedUser>& users = match.value().users;
  std::string out = StringFormat("USERS %zu", users.size());
  out += kCrlf;
  for (const core::MatchedUser& mu : users) {
    AppendScoreRow(&out, "USER", mu.user.value, mu.score);
  }
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::ExecuteStats() {
  const obs::StatsReport report = obs::BuildReport(MergedSnapshot());
  std::string out;
  for (const auto& [name, value] : report.counters) {
    out += "STAT " + name +
           StringFormat(" %llu", static_cast<unsigned long long>(value));
    out += kCrlf;
  }
  for (const auto& [name, value] : report.gauges) {
    out += "STAT " + name + StringFormat(" %.6f", value);
    out += kCrlf;
  }
  for (const auto& [name, t] : report.timers) {
    out += "STAT " + name +
           StringFormat(
               " count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
               static_cast<unsigned long long>(t.count), t.mean, t.p50,
               t.p95, t.p99, t.max);
    out += kCrlf;
  }
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::ExecuteMetrics() {
  const std::string payload = obs::ExportPrometheus(MergedSnapshot());
  std::string out = StringFormat("METRICS %zu", payload.size()) +
                    std::string(kCrlf);
  out += payload;
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::ExecuteTrace(const Request& req) {
  if (options_.tracer == nullptr || !options_.tracer->enabled()) {
    return "SERVER_ERROR tracing disabled (no flight recorder configured)" +
           std::string(kCrlf);
  }
  const std::vector<obs::TraceRecord> traces = options_.tracer->Recent();
  const std::string payload = req.chrome ? obs::ExportTracesChrome(traces)
                                         : obs::ExportTracesTsv(traces);
  std::string out = StringFormat("TRACE %zu", payload.size()) +
                    std::string(kCrlf);
  out += payload;
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::ExecuteSlow() {
  if (options_.tracer == nullptr || !options_.tracer->enabled()) {
    return "SERVER_ERROR tracing disabled (no flight recorder configured)" +
           std::string(kCrlf);
  }
  const std::string payload =
      obs::ExportTracesTsv(options_.tracer->Slow());
  std::string out = StringFormat("SLOW %zu", payload.size()) +
                    std::string(kCrlf);
  out += payload;
  out += "END";
  out += kCrlf;
  return out;
}

void Server::AppendConnsTo(std::string* out, const void* self) const {
  const auto now = std::chrono::steady_clock::now();
  for (const auto& [fd, conn] : connections_) {
    *out += StringFormat(
        "CONN %llu fd=%d worker=%u age_s=%.1f idle_s=%.1f cmds=%llu "
        "last=%.*s bytes_in=%llu bytes_out=%llu inbuf=%zu outbuf=%zu "
        "flags=",
        static_cast<unsigned long long>(conn.id), conn.fd, worker_id(),
        std::chrono::duration<double>(now - conn.created).count(),
        std::chrono::duration<double>(now - conn.last_active).count(),
        static_cast<unsigned long long>(conn.cmds),
        static_cast<int>(conn.last_verb.size()), conn.last_verb.data(),
        static_cast<unsigned long long>(conn.bytes_in),
        static_cast<unsigned long long>(conn.bytes_out), conn.in.size(),
        conn.out.size());
    std::string flags;
    if (static_cast<const void*>(&conn) == self) flags += "self,";
    if (conn.replica) flags += "replica,";
    if (conn.closing) flags += "closing,";
    if (conn.out.size() >= options_.max_write_buffer_bytes) {
      flags += "backpressured,";
    }
    if (flags.empty()) {
      *out += '-';
    } else {
      flags.pop_back();  // trailing comma
      *out += flags;
    }
    *out += kCrlf;
  }
}

std::string Server::ExecuteConns(const Connection* self) {
  std::string out = StringFormat("CONNS %zu", connections_.size()) +
                    std::string(kCrlf);
  AppendConnsTo(&out, self);
  out += "END";
  out += kCrlf;
  return out;
}

std::string Server::ExecuteSnapshot(const Request& req) {
  // The target is client-supplied: never let it name an arbitrary
  // filesystem location. Disabled unless a root is configured; when it
  // is, the path must stay strictly under it.
  if (options_.snapshot_root.empty()) {
    return "SERVER_ERROR snapshot disabled (no snapshot root configured)" +
           std::string(kCrlf);
  }
  if (req.dir.empty() || req.dir.front() == '/') {
    return "CLIENT_ERROR snapshot dir must be a relative path" +
           std::string(kCrlf);
  }
  for (size_t pos = 0; pos <= req.dir.size();) {
    const size_t slash = req.dir.find('/', pos);
    const size_t comp_end = slash == std::string::npos ? req.dir.size()
                                                       : slash;
    if (std::string_view(req.dir).substr(pos, comp_end - pos) == "..") {
      return "CLIENT_ERROR snapshot dir must not contain .." +
             std::string(kCrlf);
    }
    if (slash == std::string::npos) break;
    pos = slash + 1;
  }
  const std::string base = options_.snapshot_root + "/" + req.dir;
  for (size_t s = 0; s < engine_->num_shards(); ++s) {
    const std::string dir = base + StringFormat("/shard%zu", s);
    const Status st = core::SaveEngineSnapshot(engine_->shard(s), dir);
    if (!st.ok()) {
      return "SERVER_ERROR " + st.ToString() + std::string(kCrlf);
    }
  }
  return "OK" + std::string(kCrlf);
}

std::string Server::ExecuteCheckpoint() {
  if (options_.checkpointer == nullptr || streams_.empty()) {
    return "SERVER_ERROR checkpoint disabled (no wal configured)" +
           std::string(kCrlf);
  }
  const Status st =
      options_.sharded_wal != nullptr
          ? options_.checkpointer->Checkpoint(*engine_, options_.sharded_wal,
                                              StreamNow())
          : options_.checkpointer->Checkpoint(*engine_, streams_[0],
                                              StreamNow());
  if (!st.ok()) {
    return "SERVER_ERROR " + st.ToString() + std::string(kCrlf);
  }
  last_checkpoint_ = std::chrono::steady_clock::now();
  return "OK" + std::string(kCrlf);
}

uint64_t Server::ReplCursorFloor(size_t stream) const {
  uint64_t floor = UINT64_MAX;
  for (const auto& [fd, conn] : connections_) {
    if (conn.replica && conn.repl_stream == stream) {
      floor = std::min<uint64_t>(floor, conn.repl_next_seqno);
    }
  }
  return floor;
}

std::string Server::ExecuteCompact() {
  if (streams_.empty()) {
    return "SERVER_ERROR compaction disabled (no wal configured)" +
           std::string(kCrlf);
  }
  size_t segments_in = 0;
  size_t segments_out = 0;
  uint64_t records_dropped = 0;
  uint64_t bytes_reclaimed = 0;
  for (size_t s = 0; s < num_streams(); ++s) {
    wal::delta::CompactionOptions opts;
    // Frames an attached follower has not consumed yet must survive
    // verbatim: the preserve floor is the min resume cursor across every
    // worker's replication connections on this stream.
    opts.preserve_floor = ReplCursorFloor(s);
    if (pool_mode()) {
      for (Server* srv : pool_->servers) {
        opts.preserve_floor =
            std::min(opts.preserve_floor, srv->ReplCursorFloor(s));
      }
    }
    auto report = wal::delta::CompactSealed(streams_[s], opts);
    if (!report.ok()) {
      ADREC_LOG(kError) << "serve: wal compaction failed (stream " << s
                        << "): " << report.status().ToString();
      return "SERVER_ERROR " + report.status().ToString() +
             std::string(kCrlf);
    }
    if (!report.value().ran) continue;
    segments_in += report.value().segments_in;
    segments_out += report.value().segments_out;
    records_dropped += report.value().records_dropped;
    bytes_reclaimed += report.value().bytes_in - report.value().bytes_out;
  }
  last_compact_ = std::chrono::steady_clock::now();
  if (segments_in > 0) {
    ADREC_LOG(kInfo) << "serve: compacted " << segments_in << " -> "
                     << segments_out << " sealed segments, dropped "
                     << records_dropped << " records, reclaimed "
                     << bytes_reclaimed << " bytes";
  }
  return "OK" + std::string(kCrlf);
}

std::string Server::ExecuteRepl(const Request& req, Connection* conn) {
  if (streams_.empty()) {
    return "SERVER_ERROR replication disabled (no wal configured)" +
           std::string(kCrlf);
  }
  // Stream selection: the legacy one-field handshake only makes sense
  // against a single-stream log; a sharded log requires the explicit
  // `repl <shard> <cursor>` form, one connection per stream.
  size_t stream = 0;
  if (req.repl_shard == SIZE_MAX) {
    if (num_streams() > 1) {
      return StringFormat(
                 "CLIENT_ERROR sharded log: use repl <shard> <cursor> "
                 "(shards 0..%zu)",
                 num_streams() - 1) +
             std::string(kCrlf);
    }
  } else {
    if (req.repl_shard >= num_streams()) {
      return StringFormat("CLIENT_ERROR repl shard %zu out of range (log "
                          "has %zu streams)",
                          req.repl_shard, num_streams()) +
             std::string(kCrlf);
    }
    stream = req.repl_shard;
  }
  // Handshake: from here on the connection is a one-way frame stream,
  // fed by PumpReplicas after each wave's durability barrier. The
  // follower's cursor is the last seqno it already holds.
  conn->replica = true;
  conn->repl_stream = stream;
  conn->repl_next_seqno = req.cursor + 1;
  conn->repl_hint = wal::CursorHint{};
  conn->repl_last_hb = std::chrono::steady_clock::now();
  size_t repl_conns = 0;
  for (const auto& [fd, c] : connections_) repl_conns += c.replica ? 1 : 0;
  g_repl_streams_->Set(static_cast<double>(repl_conns));
  ADREC_LOG(kInfo) << "serve: replication stream attached (stream "
                   << stream << ") at cursor " << req.cursor;
  if (req.repl_shard == SIZE_MAX) {
    return StringFormat("REPL OK %llu",
                        static_cast<unsigned long long>(req.cursor)) +
           std::string(kCrlf);
  }
  return StringFormat("REPL OK %zu %llu", stream,
                      static_cast<unsigned long long>(req.cursor)) +
         std::string(kCrlf);
}

std::string Server::ExecutePromote() {
  if (pool_mode()) {
    // Runs quiesced (barrier). Promote is pool-wide: every worker's
    // followers detach, every stream seals, every worker opens for
    // writes — a pool is promoted once, not worker by worker.
    bool any_follower = false;
    for (Server* s : pool_->servers) {
      any_follower = any_follower || !s->followers().empty();
    }
    if (!any_follower) {
      return "SERVER_ERROR not a follower (nothing to promote)" +
             std::string(kCrlf);
    }
    if (!read_only_) return "OK" + std::string(kCrlf);  // idempotent
    for (Server* s : pool_->servers) {
      for (replica::Follower* follower : s->followers()) follower->Detach();
    }
    for (wal::WalWriter* stream : streams_) {
      const Status rotate = stream->Rotate();
      const Status sync = stream->Sync();
      if (!rotate.ok() || !sync.ok()) {
        return "SERVER_ERROR promote seal failed: " +
               (!rotate.ok() ? rotate.ToString() : sync.ToString()) +
               std::string(kCrlf);
      }
    }
    for (Server* s : pool_->servers) s->set_read_only(false);
    ADREC_LOG(kInfo) << "serve: pool promoted to leader ("
                     << streams_.size() << " streams sealed), accepting "
                     << "writes";
    return "OK" + std::string(kCrlf);
  }
  if (followers_.empty()) {
    return "SERVER_ERROR not a follower (nothing to promote)" +
           std::string(kCrlf);
  }
  if (!read_only_) return "OK" + std::string(kCrlf);  // idempotent
  for (replica::Follower* follower : followers_) follower->Detach();
  // Seal the replicated history: everything applied as a follower is
  // fdatasynced and closed into an immutable segment before the first
  // write of the new epoch can land. Every stream seals — promotion is a
  // log-wide epoch boundary, not a per-stream one.
  for (wal::WalWriter* stream : streams_) {
    const Status rotate = stream->Rotate();
    const Status sync = stream->Sync();
    if (!rotate.ok() || !sync.ok()) {
      return "SERVER_ERROR promote seal failed: " +
             (!rotate.ok() ? rotate.ToString() : sync.ToString()) +
             std::string(kCrlf);
    }
  }
  read_only_ = false;
  ADREC_LOG(kInfo) << "serve: promoted to leader ("
                   << streams_.size() << " streams sealed), accepting "
                   << "writes";
  return "OK" + std::string(kCrlf);
}

void Server::PumpReplicas() {
  if (streams_.empty()) return;
  // Per-stream durability horizon, computed lazily: ship only what each
  // stream's barrier has released — flushed frames are complete on disk
  // and their replies (if any) are out, so a follower can never hold a
  // record the leader would deny. (flushed_seqno takes the stream's
  // mutex: fine, this reads at most num_streams locks per wave.)
  std::vector<uint64_t> limits(streams_.size(), 0);
  std::vector<bool> limit_known(streams_.size(), false);
  const auto now = std::chrono::steady_clock::now();
  for (auto& [fd, conn] : connections_) {
    if (!conn.replica || conn.closing) continue;
    const size_t s = conn.repl_stream;
    if (!limit_known[s]) {
      limits[s] = streams_[s]->flushed_seqno();
      limit_known[s] = true;
    }
    const uint64_t limit = limits[s];
    // Backpressure: a stream that cannot drain keeps its cursor; the
    // log is the queue, so nothing is lost while it stalls.
    if (conn.out.size() < options_.max_write_buffer_bytes &&
        conn.repl_next_seqno <= limit) {
      auto batch = wal::ReadFrames(streams_[s]->dir(),
                                   conn.repl_next_seqno, limit,
                                   options_.repl_batch_bytes,
                                   &conn.repl_hint);
      if (!batch.ok()) {
        // Cursor below retention (or log corruption): this stream can
        // never be satisfied — tell it why and hang up; the follower
        // must re-seed from a checkpoint.
        ADREC_LOG(kWarning) << "serve: replication stream failed: "
                            << batch.status().ToString();
        conn.out += "SERVER_ERROR " + batch.status().ToString();
        conn.out += kCrlf;
        conn.closing = true;
        continue;
      }
      if (!batch.value().frames.empty()) {
        conn.out += batch.value().frames;
        conn.repl_next_seqno = batch.value().next_seqno;
        ctr_repl_bytes_shipped_->Inc(batch.value().frames.size());
      }
    }
    const double since_hb =
        std::chrono::duration<double>(now - conn.repl_last_hb).count();
    if (since_hb >= options_.repl_heartbeat_interval) {
      conn.out += StringFormat("REPL HB %llu",
                               static_cast<unsigned long long>(limit));
      conn.out += kCrlf;
      conn.repl_last_hb = now;
      ctr_repl_heartbeats_->Inc();
    }
  }
}

void Server::CommitWal() {
  if (!wal_dirty_) return;
  wal_dirty_ = false;
  const auto commit_t0 = std::chrono::steady_clock::now();
  Status first_error = Status::OK();
  for (size_t s = 0; s < streams_.size(); ++s) {
    if (!stream_dirty_[s]) continue;
    stream_dirty_[s] = false;
    const Status st = streams_[s]->Commit();
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  if (!first_error.ok()) {
    // The replies for this batch were already formatted as OK; a failing
    // fdatasync here means acknowledged-but-maybe-lost. There is no way
    // to recall the replies, so make the breach loud.
    ADREC_LOG(kError) << "serve: wal commit failed: "
                      << first_error.ToString();
  }
  if (!wave_traces_.empty()) {
    // Group commit is a wave-level event: one fdatasync per dirty stream
    // covers every write of the batch. Each trace gets the same interval
    // as a retroactive span — the per-request view of the shared barrier.
    const auto commit_t1 = std::chrono::steady_clock::now();
    for (std::unique_ptr<obs::TraceBuilder>& trace : wave_traces_) {
      trace->AddSpan("wal.commit_wave", commit_t0, commit_t1);
      if (!first_error.ok()) {
        trace->SetOutcome(obs::TraceOutcome::kError);
        trace->SetReason("wal commit failed");
      }
      FinishTrace(std::move(trace));
    }
    wave_traces_.clear();
  }
}

void Server::MaybeCheckpoint() {
  if (options_.checkpointer == nullptr || streams_.empty() ||
      options_.checkpoint_interval <= 0.0) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  const double since =
      std::chrono::duration<double>(now - last_checkpoint_).count();
  if (since < options_.checkpoint_interval) return;
  last_checkpoint_ = now;
  auto do_checkpoint = [this] {
    const Status st =
        options_.sharded_wal != nullptr
            ? options_.checkpointer->Checkpoint(
                  *engine_, options_.sharded_wal, StreamNow())
            : options_.checkpointer->Checkpoint(*engine_, streams_[0],
                                                StreamNow());
    if (!st.ok()) {
      ADREC_LOG(kError) << "serve: periodic checkpoint failed: "
                        << st.ToString();
    } else {
      ADREC_LOG(kInfo) << "serve: checkpoint at wal seqno "
                       << streams_[0]->synced_seqno();
    }
  };
  if (pool_mode()) {
    // Checkpointing reads every shard: stop the world, exactly like the
    // explicit `checkpoint` verb. Only lane 0 initiates (Run gates it).
    pool_->barrier.Run(options_.lane, &pool_->mail, do_checkpoint);
  } else {
    do_checkpoint();
  }
}

void Server::MaybeCompact() {
  if (streams_.empty() || options_.compact_interval <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  const double since =
      std::chrono::duration<double>(now - last_compact_).count();
  if (since < options_.compact_interval) return;
  last_compact_ = now;
  auto do_compact = [this] {
    const std::string reply = ExecuteCompact();
    if (!StartsWith(reply, "OK")) {
      ADREC_LOG(kError) << "serve: idle compaction failed: " << reply;
    }
  };
  if (pool_mode()) {
    // Compaction rewrites every stream's sealed files and scans sibling
    // connection tables for replica cursors: stop the world, exactly
    // like the explicit `compact` verb. Only lane 0 initiates.
    pool_->barrier.Run(options_.lane, &pool_->mail, do_compact);
  } else {
    do_compact();
  }
}

obs::MetricsSnapshot Server::MergedSnapshot() const {
  if (pool_mode() && pool_->merged_snapshot) {
    // The pool-wide view. Only safe quiescent (stats/metrics run under
    // the barrier in pool mode) or after the workers stopped.
    return pool_->merged_snapshot();
  }
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.MergeFrom(engine_->MergedMetrics());
  if (cache_ != nullptr) {
    snapshot.MergeFrom(cache_->metrics().Snapshot());
  }
  if (options_.sharded_wal != nullptr) {
    snapshot.MergeFrom(options_.sharded_wal->MergedMetrics());
  } else if (options_.wal != nullptr) {
    snapshot.MergeFrom(options_.wal->metrics().Snapshot());
  }
  for (const replica::Follower* follower : followers_) {
    snapshot.MergeFrom(follower->metrics().Snapshot());
  }
  if (options_.checkpointer != nullptr) {
    snapshot.MergeFrom(options_.checkpointer->metrics().Snapshot());
  }
  if (options_.tracer != nullptr) {
    snapshot.MergeFrom(options_.tracer->metrics().Snapshot());
  }
  return snapshot;
}

bool Server::WriteTo(Connection* conn) {
  while (!conn->out.empty()) {
    const ssize_t n = ::send(conn->fd, conn->out.data(), conn->out.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      ctr_bytes_out_->Inc(static_cast<uint64_t>(n));
      conn->bytes_out += static_cast<uint64_t>(n);
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_active = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // drain signal mid-send
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    CloseConnection(conn);  // EPIPE/ECONNRESET
    return false;
  }
  // A half-closed peer may still have complete pipelined lines buffered
  // in `in` (read before its EOF); those are owed responses, so only
  // close once nothing processable remains — including forwarded ops
  // whose acks have not come back yet.
  if (conn->closing && conn->in.find('\n') == std::string::npos &&
      conn->pending.empty()) {
    CloseConnection(conn);
    return false;
  }
  return true;
}

void Server::CloseConnection(Connection* conn) {
  const int fd = conn->fd;
  const bool was_replica = conn->replica;
  ::close(fd);
  connections_.erase(fd);
  g_active_->Set(static_cast<double>(connections_.size()));
  if (was_replica) {
    size_t repl_conns = 0;
    for (const auto& [f, c] : connections_) repl_conns += c.replica ? 1 : 0;
    g_repl_streams_->Set(static_cast<double>(repl_conns));
  }
}

void Server::CloseIdle() {
  if (options_.idle_timeout <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  std::vector<int> idle;
  for (const auto& [fd, conn] : connections_) {
    // Replication streams are one-way by design: the follower never
    // sends another byte after the handshake, so "idle since last read"
    // is their steady state, not abandonment. Liveness comes from the
    // stream itself — a dead follower surfaces as EPIPE/ECONNRESET on
    // the next frame or heartbeat.
    if (conn.replica) continue;
    const double silent =
        std::chrono::duration<double>(now - conn.last_active).count();
    if (silent > static_cast<double>(options_.idle_timeout)) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    ctr_idle_closed_->Inc();
    CloseConnection(&connections_.at(fd));
  }
}

void Server::Run() {
  ADREC_CHECK(listen_fd_ >= 0 || pool_mode());
  // Pool workers skip the reporter: its merged scrape is only safe
  // quiescent, and per-worker console cadence would interleave anyway.
  // The pool view is the `stats` verb (a barrier op).
  const bool reporting = options_.report_interval > 0.0 && !pool_mode();
  PeriodicReporter reporter([this] { return MergedSnapshot(); },
                            reporting ? options_.report_interval : 1e9);
  const auto drain_deadline_never = std::chrono::steady_clock::time_point::max();
  auto drain_deadline = drain_deadline_never;
  last_checkpoint_ = std::chrono::steady_clock::now();
  last_compact_ = last_checkpoint_;

  std::vector<pollfd> fds;
  std::vector<int> conn_fds;
  std::vector<replica::Follower*> polled_followers;
  for (;;) {
    if (draining_ && connections_.empty()) break;
    if (draining_ && std::chrono::steady_clock::now() > drain_deadline) {
      // Grace expired: drop whatever could not be flushed.
      while (!connections_.empty()) {
        CloseConnection(&connections_.begin()->second);
      }
      break;
    }

    fds.clear();
    conn_fds.clear();
    polled_followers.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    const bool listen_polled =
        listen_fd_ >= 0 && !draining_ &&
        std::chrono::steady_clock::now() >= accept_pause_until_;
    if (listen_polled) fds.push_back({listen_fd_, POLLIN, 0});
    // Pool mode: sleep interruptibly on the mailbox wake pipe too, so a
    // forwarded op or a barrier arrival lands within this poll wave.
    const bool mail_polled = pool_mode();
    if (mail_polled) {
      fds.push_back({pool_->mail.wake_fd(options_.lane), POLLIN, 0});
    }
    // Follower mode: every leader connection lives in this poll set —
    // the event loop stays the engine's only mutator, replication
    // included. (A pool worker polls the followers of its own shards.)
    for (replica::Follower* follower : followers_) {
      if (follower->detached() || follower->fd() < 0) continue;
      short events = POLLIN;
      if (follower->want_write()) events |= POLLOUT;
      fds.push_back({follower->fd(), events, 0});
      polled_followers.push_back(follower);
    }
    bool has_repl_stream = false;
    for (auto& [fd, conn] : connections_) {
      short events = 0;
      // Backpressured or closing connections are not read further.
      if (!conn.closing &&
          conn.out.size() < options_.max_write_buffer_bytes &&
          conn.pending.size() < kMaxPendingForwards) {
        events |= POLLIN;
      }
      if (!conn.out.empty()) events |= POLLOUT;
      if (events == 0) events = POLLHUP;  // still notice resets
      fds.push_back({fd, events, 0});
      conn_fds.push_back(fd);
      has_repl_stream = has_repl_stream || conn.replica;
    }

    // Timeout: the finest of idle sweep, reporter cadence, drain grace.
    int timeout_ms = -1;
    if (options_.idle_timeout > 0) timeout_ms = 1000;
    if (reporting) {
      const int r = static_cast<int>(options_.report_interval * 1000 / 2);
      timeout_ms = timeout_ms < 0 ? std::max(r, 10)
                                  : std::min(timeout_ms, std::max(r, 10));
    }
    if (listen_fd_ >= 0 && !draining_ && !listen_polled) {
      // Accepts are paused (descriptor exhaustion): wake soon enough to
      // resume the listener once the backoff lapses.
      timeout_ms = timeout_ms < 0 ? 100 : std::min(timeout_ms, 100);
    }
    if (options_.checkpointer != nullptr &&
        options_.checkpoint_interval > 0.0 &&
        (!pool_mode() || options_.lane == 0)) {
      // Periodic checkpoints must fire even on an idle stream.
      timeout_ms = timeout_ms < 0 ? 1000 : std::min(timeout_ms, 1000);
    }
    for (replica::Follower* follower : followers_) {
      if (follower->detached()) continue;
      // Reconnect backoff and lag gauges are time-driven.
      const int f = follower->TickDelayMs();
      timeout_ms = timeout_ms < 0 ? f : std::min(timeout_ms, f);
    }
    if (has_repl_stream) {
      // Heartbeats to attached followers must fire on an idle stream.
      const int hb = std::max(
          50, static_cast<int>(options_.repl_heartbeat_interval * 500));
      timeout_ms = timeout_ms < 0 ? hb : std::min(timeout_ms, hb);
    }
    if (draining_) timeout_ms = 50;

    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) {
      ADREC_LOG(kError) << "poll: " << std::strerror(errno);
      break;
    }

    size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    // The wake pipe multiplexes drain requests and socket adoption; the
    // flag and the queue say which (possibly both).
    AdoptPending();
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(
                               options_.drain_timeout));
      if (listen_fd_ >= 0) {
        // Close the listening socket immediately: leaving it open would
        // let the kernel keep accepting into the backlog, stranding
        // clients that will never be served.
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      ADREC_LOG(kInfo) << "serve: drain requested, "
                       << connections_.size() << " connections open";
    }
    ++idx;
    if (listen_polled) {
      if (!draining_ && listen_fd_ >= 0 &&
          (fds[idx].revents & (POLLIN | POLLERR))) {
        AcceptNew();
      }
      ++idx;
    }
    if (mail_polled) ++idx;  // Drain() below reads the pipe itself
    // Mailbox drain: forwarded ops execute here (their WAL appends stay
    // deferred into this wave's commit barrier), acks complete reply
    // slots, barrier arrivals park this worker.
    if (pool_mode()) {
      pool_->mail.FlushRetries(options_.lane);
      pool_->mail.Drain(options_.lane);
    }
    for (replica::Follower* follower : polled_followers) {
      if (fds[idx].revents != 0) follower->OnPollEvents(fds[idx].revents);
      ++idx;
    }
    for (replica::Follower* follower : followers_) {
      follower->Tick();
      // Replicated events drive this daemon's stream clock so time-less
      // `topk` on the replica answers at the replicated position.
      BumpStreamClock(follower->max_event_time());
    }

    // Read + process every ready connection first — their WAL appends
    // stay deferred — then run ONE durability barrier for the whole wave
    // before any reply reaches a socket. This is what makes group commit
    // group: the wave shares a single fdatasync (per dirty stream)
    // instead of paying one per connection.
    for (size_t c = 0; c < conn_fds.size(); ++c, ++idx) {
      auto it = connections_.find(conn_fds[c]);
      if (it == connections_.end()) continue;  // closed earlier this round
      Connection* conn = &it->second;
      const short revents = fds[idx].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        CloseConnection(conn);
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) {
        if (!ReadFrom(conn)) continue;
      }
      ProcessLines(conn);
    }
    // Durability before visibility: every deferred WAL append of the
    // wave is committed before any of the wave's replies can be written.
    CommitWal();
    // ... and before any forwarded op executed here is acknowledged to
    // its origin worker — the ack rides behind the same barrier.
    FlushWaveAcks();
    // ... and replication before acknowledgement-chasing: the wave's
    // freshly durable frames fan out to attached followers in the same
    // pass that flushes the wave's replies.
    PumpReplicas();
    for (size_t c = 0; c < conn_fds.size(); ++c) {
      auto it = connections_.find(conn_fds[c]);
      if (it == connections_.end()) continue;
      Connection* conn = &it->second;
      // Flush-and-resume until quiescent. One pass is not enough: a
      // backpressured connection keeps complete pipelined lines in `in`,
      // and a peer waiting for those replies sends nothing more — no
      // POLLIN ever fires again. So whenever a write drains the buffer
      // back under the cap, resume consuming the pipeline right here
      // instead of waiting on poll (committing each resumed batch before
      // its replies flush).
      for (;;) {
        FlushReplySlots(conn);
        if (!conn->out.empty() || conn->closing) {
          if (!WriteTo(conn)) break;  // connection closed and erased
        }
        if (conn->out.size() >= options_.max_write_buffer_bytes) break;
        if (conn->in.find('\n') == std::string::npos) break;
        const size_t in_before = conn->in.size();
        const size_t pending_before = conn->pending.size();
        ProcessLines(conn);
        CommitWal();
        FlushWaveAcks();
        // No progress (e.g. the forward-slot cap): the resume point is
        // the acks draining the slots, not this loop.
        if (conn->in.size() == in_before &&
            conn->pending.size() == pending_before) {
          break;
        }
      }
    }

    CloseIdle();
    if (!draining_ && (!pool_mode() || options_.lane == 0)) {
      MaybeCheckpoint();
      MaybeCompact();
    }
    if (reporting && !draining_) reporter.TickIfDue();
    // Drain semantics: stop reading new requests, flush what is queued.
    if (draining_) {
      for (auto& [fd, conn] : connections_) conn.closing = true;
      std::vector<int> done;
      for (auto& [fd, conn] : connections_) {
        if (conn.out.empty() && conn.pending.empty()) done.push_back(fd);
      }
      for (int fd : done) CloseConnection(&connections_.at(fd));
    }
  }
  if (pool_mode()) {
    // Leave the rendezvous set so a sibling's in-flight barrier never
    // waits on this thread; the PoolServer syncs the streams after every
    // worker has joined.
    pool_->barrier.Deregister(options_.lane);
  } else {
    for (wal::WalWriter* stream : streams_) {
      // Final barrier: under kNone/kInterval the tail of the log may
      // still be in page cache; a clean shutdown should not lose it.
      const Status st = stream->Sync();
      if (!st.ok()) {
        ADREC_LOG(kError) << "serve: final wal sync failed: "
                          << st.ToString();
      }
    }
  }
  ADREC_LOG(kInfo) << "serve: drained, event loop exiting";
}

}  // namespace adrec::serve
