#include "wire.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <thread>

namespace perfbench {

namespace {

std::vector<pid_t>& Children() {
  static std::vector<pid_t> children;
  return children;
}

void Forget(pid_t pid) {
  auto& c = Children();
  for (size_t i = 0; i < c.size(); ++i) {
    if (c[i] == pid) {
      c.erase(c.begin() + static_cast<long>(i));
      return;
    }
  }
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Length of the complete reply at the front of `buf`, 0 if incomplete.
// Multi-line replies: ADS/USERS <n> + n lines + END, METRICS <bytes> +
// payload + END.
size_t CompleteReply(std::string_view buf) {
  const size_t eol = buf.find("\r\n");
  if (eol == std::string_view::npos) return 0;
  const std::string_view head = buf.substr(0, eol);
  size_t pos = eol + 2;
  auto skip_lines = [&](size_t n) -> bool {
    for (size_t i = 0; i < n; ++i) {
      const size_t e = buf.find("\r\n", pos);
      if (e == std::string_view::npos) return false;
      pos = e + 2;
    }
    return true;
  };
  if (head.rfind("ADS ", 0) == 0 || head.rfind("USERS ", 0) == 0) {
    const size_t n = std::strtoull(head.data() + head.find(' ') + 1,
                                   nullptr, 10);
    return skip_lines(n + 1) ? pos : 0;
  }
  if (head.rfind("METRICS ", 0) == 0) {
    const size_t n = std::strtoull(head.data() + 8, nullptr, 10);
    if (buf.size() < pos + n) return 0;
    pos += n;
    return skip_lines(1) ? pos : 0;
  }
  return pos;  // single-line reply
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Daemon::Start(const std::vector<std::string>& argv,
                     const std::string& log_path, std::string* error) {
  port_ = 0;
  // A previous daemon's log would announce a stale port.
  ::unlink(log_path.c_str());
  const int64_t t0 = NowNs();
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = "fork failed";
    return -1;
  }
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
    }
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  pid_ = pid;
  Children().push_back(pid);
  // The daemon prints `adrecd listening on <host>:<port>` once serving.
  const int64_t deadline = t0 + int64_t(120e9);
  const std::string marker = "listening on 127.0.0.1:";
  while (port_ == 0) {
    std::ifstream log(log_path);
    std::stringstream ss;
    ss << log.rdbuf();
    const std::string text = ss.str();
    const size_t at = text.find(marker);
    if (at != std::string::npos) {
      const size_t eol = text.find('\n', at);
      if (eol != std::string::npos) {
        port_ = static_cast<uint16_t>(
            std::atoi(text.c_str() + at + marker.size()));
        break;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      Forget(pid_);
      pid_ = -1;
      *error = "daemon exited during start-up: " + text;
      return -1;
    }
    if (NowNs() > deadline) {
      *error = "daemon did not report a port";
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // First successful reply.
  while (NowNs() < deadline) {
    const int fd = Connect(port_);
    if (fd >= 0) {
      const char ping[] = "ping\n";
      char buf[64];
      if (::send(fd, ping, sizeof(ping) - 1, 0) == sizeof(ping) - 1) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ::close(fd);
        if (n >= 6 && std::memcmp(buf, "PONG\r\n", 6) == 0) {
          return static_cast<double>(NowNs() - t0) / 1e9;
        }
      } else {
        ::close(fd);
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "daemon never answered ping";
  return -1;
}

bool Daemon::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  const int64_t deadline = NowNs() + int64_t(15e9);
  int status = 0;
  while (NowNs() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      Forget(pid_);
      pid_ = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  KillHard();
  return false;
}

void Daemon::KillHard() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  Forget(pid_);
  pid_ = -1;
}

uint64_t Daemon::PeakRssBytes() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

int64_t Daemon::CpuNs() const {
  int64_t total = 0;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& t : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(t.path() / "schedstat");
    int64_t ns = 0;
    if (in >> ns) total += ns;
  }
  return total;
}

void StopAllChildren() {
  for (pid_t pid : Children()) {
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  Children().clear();
}

std::vector<std::string> ReplyLines(const std::string& reply) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < reply.size()) {
    size_t e = reply.find("\r\n", pos);
    if (e == std::string::npos) e = reply.size();
    lines.push_back(reply.substr(pos, e - pos));
    pos = e + 2;
  }
  return lines;
}

Client::Client(uint16_t port, size_t load_connections) {
  control_ = Connect(port);
  ok_ = control_ >= 0;
  for (size_t i = 0; i < load_connections && ok_; ++i) {
    Conn c;
    c.fd = Connect(port);
    ok_ = c.fd >= 0 && SetNonBlocking(c.fd);
    conns_.push_back(std::move(c));
  }
}

Client::~Client() {
  if (control_ >= 0) ::close(control_);
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void Client::SetKnownAds(const std::vector<uint32_t>& ids) {
  known_ads_.insert(ids.begin(), ids.end());
}

std::string Client::Call(const std::string& line, double timeout_s) {
  const std::string req = line + "\n";
  if (::send(control_, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    return "";
  }
  const int64_t deadline = NowNs() + int64_t(timeout_s * 1e9);
  char buf[65536];
  for (;;) {
    const size_t n = CompleteReply(control_in_);
    if (n > 0) {
      std::string reply = control_in_.substr(0, n);
      control_in_.erase(0, n);
      return reply;
    }
    const int64_t left_ms = (deadline - NowNs()) / 1000000;
    if (left_ms <= 0) return "";
    pollfd p{control_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left_ms)) <= 0) return "";
    const ssize_t got = ::recv(control_, buf, sizeof(buf), 0);
    if (got <= 0) return "";
    control_in_.append(buf, static_cast<size_t>(got));
  }
}

size_t Client::ConnFor(const Op& op) const {
  return op.user % conns_.size();
}

bool Client::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    c.out_off += static_cast<size_t>(n);
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

bool Client::Pump(Conn& c, const std::vector<Op>& ops, size_t base,
                  std::vector<OpRecord>* recs, size_t* done,
                  std::string* err) {
  char buf[65536];
  const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
  if (got == 0) return false;
  if (got < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  c.in.append(buf, static_cast<size_t>(got));
  const int64_t now = NowNs();
  for (;;) {
    const std::string_view rest = std::string_view(c.in).substr(c.in_off);
    const size_t n = CompleteReply(rest);
    if (n == 0 || c.fifo.empty()) break;
    const uint32_t idx = c.fifo.front();
    c.fifo.pop_front();
    OpRecord& r = (*recs)[idx];
    r.done_ns = now;
    const Op& op = ops[base + idx];
    if (spans_ != nullptr) {
      const int32_t span = spans_->Begin(
          op.kind == OpKind::kTopK ? "wire.topk" : "wire.write",
          static_cast<uint32_t>(base + idx), -1, r.send_ns);
      spans_->End(span, now);
    }
    const std::string_view reply = rest.substr(0, n);
    bool good = true;
    if (op.kind == OpKind::kTopK) {
      // ADS <n> / AD <known id> <score> ... / END, n <= k.
      good = reply.rfind("ADS ", 0) == 0;
      size_t count = good ? std::strtoull(reply.data() + 4, nullptr, 10) : 0;
      good = good && count <= 5;
      size_t pos = reply.find("\r\n") + 2;
      for (size_t i = 0; good && i < count; ++i) {
        const size_t e = reply.find("\r\n", pos);
        const std::string_view l = reply.substr(pos, e - pos);
        char* end = nullptr;
        const unsigned long id =
            l.rfind("AD ", 0) == 0 ? std::strtoul(l.data() + 3, &end, 10) : 0;
        good = end != nullptr && *end == ' ' &&
               known_ads_.count(static_cast<uint32_t>(id)) > 0 &&
               std::strtod(end + 1, nullptr) >= 0.0;
        pos = e + 2;
      }
      good = good && reply.substr(pos) == "END\r\n";
      r.ads = static_cast<uint16_t>(count);
    } else {
      good = reply == "OK\r\n";
    }
    if (good) {
      r.status = ReplyStatus::kOk;
    } else {
      const bool error = reply.rfind("SERVER_ERROR", 0) == 0 ||
                         reply.rfind("CLIENT_ERROR", 0) == 0 ||
                         reply.rfind("READONLY", 0) == 0;
      r.status = error ? ReplyStatus::kError : ReplyStatus::kBadShape;
      if (err->empty()) {
        *err = "op `" + op.line.substr(0, 60) + "` got `" +
               std::string(reply.substr(0, 80)) + "`";
      }
    }
    c.in_off += n;
    ++*done;
  }
  if (c.in_off > (1u << 16)) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
  return true;
}

PhaseResult Client::RunOpen(const std::vector<Op>& ops, size_t begin,
                            size_t end, double rate, double timeout_s) {
  PhaseResult res;
  const size_t total = end - begin;
  res.records.resize(total);
  const int64_t t0 = NowNs() + 1000000;
  const double interval = 1e9 / rate;
  const int64_t deadline =
      t0 + static_cast<int64_t>((total * interval) + timeout_s * 1e9);
  const size_t mark = total / 5;
  size_t next = 0;
  size_t done = 0;
  while (done < total) {
    const int64_t now = NowNs();
    if (now > deadline) {
      res.timed_out = true;
      break;
    }
    while (next < total) {
      const int64_t due = t0 + static_cast<int64_t>(next * interval);
      if (due > now) break;
      if (next == mark) res.depth_start = next - done;
      if (next + 1 == total) res.depth_end = next - done;
      OpRecord& r = res.records[next];
      r.sched_ns = due;
      r.send_ns = now;
      const Op& op = ops[begin + next];
      Conn& c = conns_[ConnFor(op)];
      c.out += op.line;
      c.out += '\n';
      c.fifo.push_back(static_cast<uint32_t>(next));
      ++next;
    }
    for (Conn& c : conns_) {
      if (!c.out.empty() && !Flush(c)) {
        res.first_error = "send failed";
        res.timed_out = true;
        return res;
      }
      if (!c.fifo.empty() &&
          !Pump(c, ops, begin, &res.records, &done, &res.first_error)) {
        res.first_error = "connection closed";
        res.timed_out = true;
        return res;
      }
    }
    // Sleep in the kernel until a reply arrives or shortly before the
    // next op is due. Spinning (even for the last 150 us before each
    // send) took CPU the daemon needed and inflated its latency.
    Wait(next < total ? t0 + static_cast<int64_t>(next * interval) - 20000
                      : NowNs() + 1000000);
  }
  return res;
}

void Client::Wait(int64_t until_ns) {
  const int64_t left = until_ns - NowNs();
  if (left < 20000) return;
  pollfd fds[16];
  nfds_t n = 0;
  for (const Conn& c : conns_) {
    const short events = static_cast<short>(
        (c.fifo.empty() ? 0 : POLLIN) | (c.out.empty() ? 0 : POLLOUT));
    if (events != 0 && n < 16) fds[n++] = {c.fd, events, 0};
  }
  const int64_t wait = std::min<int64_t>(left, 1000000);
  const timespec ts{0, static_cast<long>(wait)};
  ::ppoll(fds, n, &ts, nullptr);
}

uint64_t Client::RunClosed(const std::vector<Op>& ops, size_t* next,
                           size_t end, size_t window, double seconds,
                           uint64_t* failed) {
  const size_t base = *next;
  std::vector<OpRecord> recs(end - base);
  std::string err;
  const size_t max_inflight = window * conns_.size();
  const int64_t t0 = NowNs();
  const int64_t stop = t0 + static_cast<int64_t>(seconds * 1e9);
  const int64_t deadline = stop + int64_t(30e9);
  size_t sent = 0;
  size_t done = 0;
  uint64_t counted = 0;
  *failed = 0;
  while (NowNs() < deadline) {
    const int64_t now = NowNs();
    const bool sending = now < stop;
    while (sending && base + sent < end && sent - done < max_inflight) {
      const Op& op = ops[base + sent];
      Conn& c = conns_[ConnFor(op)];
      recs[sent].sched_ns = recs[sent].send_ns = now;
      c.out += op.line;
      c.out += '\n';
      c.fifo.push_back(static_cast<uint32_t>(sent));
      ++sent;
    }
    const size_t before = done;
    for (Conn& c : conns_) {
      if (!c.out.empty() && !Flush(c)) return 0;
      if (!c.fifo.empty() && !Pump(c, ops, base, &recs, &done, &err)) {
        return 0;
      }
    }
    if (done > before && NowNs() <= stop) counted += done - before;
    if (!sending && done == sent) break;
    if (done == before) {
      Wait(sending ? std::min(NowNs() + 1000000, stop) : NowNs() + 1000000);
    }
  }
  for (size_t i = 0; i < sent; ++i) {
    if (recs[i].status != ReplyStatus::kOk) ++*failed;
  }
  *next = base + sent;
  return counted;
}

}  // namespace perfbench
