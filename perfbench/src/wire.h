// The client side of the adrecd benchmark: the daemon as a child process,
// and one generator thread driving pipelined connections over the wire
// protocol.
#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "gen.h"
#include "stats.h"

namespace perfbench {

/// Monotonic nanoseconds.
int64_t NowNs();

/// A spawned adrecd. Every instance is killed and reaped by Stop() or
/// KillHard(), and StopAllChildren() reaps any left at exit.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { KillHard(); }

  /// Spawns `argv` (stdout/stderr to `log_path`), waits for the listening
  /// line and then for a PONG. Returns the seconds from spawn to PONG, or
  /// a negative value on failure (`error` says why).
  double Start(const std::vector<std::string>& argv,
               const std::string& log_path, std::string* error);
  /// SIGTERM, then waits for exit (SIGKILL after a timeout).
  bool Stop();
  /// SIGKILL and reap.
  void KillHard();
  /// The daemon's peak resident set (VmHWM) in bytes, 0 if unreadable.
  uint64_t PeakRssBytes() const;
  /// CPU time its live threads have run, in ns (schedstat).
  int64_t CpuNs() const;
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Kills and reaps every daemon still running (exit paths).
void StopAllChildren();

/// What one op's reply told us.
enum class ReplyStatus : uint8_t { kPending, kOk, kBadShape, kError };

/// Per-op timing, indexed like the op list the phase ran.
struct OpRecord {
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  ReplyStatus status = ReplyStatus::kPending;
  uint16_t ads = 0;  // topk: ads returned
};

/// Outcome of one open-loop phase.
struct PhaseResult {
  std::vector<OpRecord> records;
  bool timed_out = false;
  /// Client-side queue depth (sent, not yet answered) at the op 20% into
  /// the schedule and at the last op.
  size_t depth_start = 0;
  size_t depth_end = 0;
  std::string first_error;
};

/// One blocking connection plus `n` pipelined load connections.
class Client {
 public:
  explicit Client(uint16_t port, size_t load_connections);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool ok() const { return ok_; }

  /// Sends one request on the control connection and returns the whole
  /// reply (all lines, CRLF kept); empty on failure or timeout.
  std::string Call(const std::string& line, double timeout_s = 60.0);

  /// Open loop: op `ops[begin + i]` is due at start + i / rate and is
  /// timed from that moment. Users stay on one connection.
  PhaseResult RunOpen(const std::vector<Op>& ops, size_t begin, size_t end,
                      double rate, double timeout_s);

  /// Closed loop with `window` requests kept in flight per connection for
  /// `seconds`, drawing ops from ops[*next...end). Returns completed ops;
  /// failures are counted in `failed`.
  uint64_t RunClosed(const std::vector<Op>& ops, size_t* next, size_t end,
                     size_t window, double seconds, uint64_t* failed);

  /// Ids the daemon may return; replies naming others fail the check.
  void SetKnownAds(const std::vector<uint32_t>& ids);

  /// While set, open-loop phases record a `wire.<verb>` span (send to
  /// reply) for every op.
  void SetSpanLog(SpanLog* log) { spans_ = log; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    std::deque<uint32_t> fifo;  // op indices awaiting replies, in order
  };
  bool Flush(Conn& c);
  // Reads what is available and completes replies; returns false when the
  // connection failed.
  bool Pump(Conn& c, const std::vector<Op>& ops, size_t base,
            std::vector<OpRecord>* recs, size_t* done, std::string* err);
  size_t ConnFor(const Op& op) const;
  // Blocks until a load connection is ready or `until_ns` (at most 1 ms).
  void Wait(int64_t until_ns);

  bool ok_ = true;
  int control_ = -1;
  std::string control_in_;
  std::vector<Conn> conns_;
  std::unordered_set<uint32_t> known_ads_;
  SpanLog* spans_ = nullptr;
};

/// Splits a complete reply into lines (CRLF stripped).
std::vector<std::string> ReplyLines(const std::string& reply);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
