// perfbench: drives adrecd over its wire protocol under one workload and
// prints the benchmark's metrics (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --run-dir <dir> --counts-dir <dir>
//
// adrecd is the binary next to this one. --run-dir is an empty directory
// for the run's inputs and logs; --counts-dir holds the exact counts of
// earlier runs of the same two binaries.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics (end-to-end metrics with --trace 0, per-layer with 1).

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gen.h"
#include "layers.h"
#include "stats.h"
#include "wire.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string adrecd;
  std::string run_dir;
  std::string counts_dir;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (v == w.name) a->workload = &w;
      }
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--run-dir") {
      a->run_dir = v;
    } else if (k == "--counts-dir") {
      a->counts_dir = v;
    } else {
      return false;
    }
  }
  std::error_code ec;
  a->adrecd = fs::read_symlink("/proc/self/exe", ec).parent_path() / "adrecd";
  return a->workload != nullptr && a->seconds > 0 && !a->run_dir.empty() &&
         !a->counts_dir.empty() && !ec;
}

void OnAlarm(int) {
  StopAllChildren();
  _exit(3);
}

// `metrics` payload (Prometheus text) as name -> value, buckets dropped.
// Timer sums and counts are exact; gauges are point values.
using Scrape = std::map<std::string, double>;

Scrape ScrapeMetrics(Client& client) {
  Scrape out;
  std::istringstream in(client.Call("metrics"));
  std::string line;
  std::getline(in, line);  // METRICS <bytes>
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line == "END") continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos || line.find('{') != std::string::npos) {
      continue;
    }
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

// Adds b - a to `sum`, key by key.
void Accumulate(const Scrape& a, const Scrape& b, Scrape* sum) {
  for (const auto& [k, v] : b) {
    auto it = a.find(k);
    (*sum)[k] += v - (it == a.end() ? 0.0 : it->second);
  }
}

double Get(const Scrape& s, const std::string& name) {
  auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second;
}

// Exact mean of a daemon timer (sum / count) in the timer's own unit;
// `scale` undoes the export's conversion to seconds.
double TimerMean(const Scrape& d, const std::string& base, double scale) {
  const double n = Get(d, "adrec_" + base + "_seconds_count");
  return n > 0 ? Get(d, "adrec_" + base + "_seconds_sum") / n * scale : 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

std::string ReadFirstMatch(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t c = line.find(':');
      std::string v = c == std::string::npos ? line : line.substr(c + 1);
      while (!v.empty() && v[0] == ' ') v.erase(0, 1);
      return v;
    }
  }
  return "unknown";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  double value;
  std::string unit;
  size_t samples;
};

// The run's bookkeeping: what was attempted, what failed and why.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  void Fail(const std::string& why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(why);
  }
};

// Latencies in us, from each op's scheduled send, in schedule order.
struct PhaseStats {
  std::vector<double> topk_us, write_us, late_us, topk_rtt_us;
  std::vector<double> fill;  // ads returned / k per topk
  uint64_t failed = 0;
};

PhaseStats Summarize(const std::vector<Op>& ops, size_t begin,
                     const std::vector<OpRecord>& recs, size_t skip,
                     size_t k) {
  PhaseStats s;
  for (size_t i = skip; i < recs.size(); ++i) {
    const OpRecord& rec = recs[i];
    const Op& op = ops[begin + i];
    if (rec.status != ReplyStatus::kOk) {
      ++s.failed;
      continue;
    }
    const double lat = (rec.done_ns - rec.sched_ns) / 1e3;
    s.late_us.push_back((rec.send_ns - rec.sched_ns) / 1e3);
    if (op.kind == OpKind::kTopK) {
      s.topk_us.push_back(lat);
      s.topk_rtt_us.push_back((rec.done_ns - rec.send_ns) / 1e3);
      s.fill.push_back(static_cast<double>(rec.ads) / k);
    } else if (IsWrite(op.kind)) {
      s.write_us.push_back(lat);
    }
  }
  return s;
}

// Change from the first to the last tenth of the measured topk ops:
// relative for p50 latency, absolute for the fill ratio.
void Drift(const PhaseStats& s, double* p50_drift, double* fill_drift) {
  const size_t n = s.topk_us.size();
  if (n < 20) return;
  const size_t t = n / 10;
  const std::vector<double> first(s.topk_us.begin(), s.topk_us.begin() + t);
  const std::vector<double> last(s.topk_us.end() - t, s.topk_us.end());
  const double m0 = Quantile(first, 0.5);
  *p50_drift = m0 > 0 ? Quantile(last, 0.5) / m0 - 1.0 : 0.0;
  *fill_drift = Mean(std::vector<double>(s.fill.end() - t, s.fill.end())) -
                Mean(std::vector<double>(s.fill.begin(), s.fill.begin() + t));
}

class Bench {
 public:
  explicit Bench(Args a) : a_(std::move(a)), spans_(a_.trace) {}
  int Run();

 private:
  std::vector<std::string> DaemonArgv(const std::string& wal_dir) const;
  bool StartDaemon(Daemon* d, const std::string& wal_dir, double* seconds);
  void RunFixed(Daemon& daemon, Client& client, size_t begin, size_t end,
                bool spans);
  bool ProbeRate(Client& client, double rate, double seconds, size_t* next,
                 double* p99);
  ProbeReplies SendProbes(Client& client);
  void CheckProbes(const ProbeReplies& want, const ProbeReplies& got,
                   const char* when);
  void CheckCounts(const std::map<std::string, double>& counts);
  void LayerMetrics(const PhaseStats& fs, const Scrape& run_start,
                    const Scrape& run_end, const std::string& wal_copy);
  void E2e(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    e2e_[name] = {value, unit, samples};
  }
  void Layer(const std::string& name, double value, const std::string& unit,
             size_t samples) {
    layer_[name] = {value, unit, samples};
  }
  void PrintResult(bool correct);

  Args a_;
  Inputs in_;
  Ledger ledger_;
  SpanLog spans_;
  std::string in_dir_, wal_dir_;
  std::vector<OpRecord> fixed_recs_;
  std::vector<OpRange> sent_;  // everything sent after the inventory
  Scrape fixed_delta_;         // daemon metrics over the fixed segments
  // Measured fixed-rate topk latencies, by whether the segment recorded
  // client spans (traced runs alternate): for trace.overhead_frac.
  std::vector<double> spanned_topk_us_, plain_topk_us_;
  // p50 of each measured fixed-rate segment's topk and write latencies.
  std::vector<double> round_topk_p50_, round_write_p50_;
  // Daemon CPU time per op of each measured fixed-rate segment.
  std::vector<double> round_cpu_us_per_op_;
  std::map<std::string, Metric> e2e_, layer_;
};

std::vector<std::string> Bench::DaemonArgv(const std::string& wal_dir) const {
  return {a_.adrecd, "--port=0", "--dir=" + in_dir_, "--wal-dir=" + wal_dir,
          "--topk-cache=" + std::to_string(kTopkCache)};
}

bool Bench::StartDaemon(Daemon* d, const std::string& wal_dir,
                        double* seconds) {
  std::string err;
  *seconds = d->Start(DaemonArgv(wal_dir), wal_dir + ".log", &err);
  ++ledger_.attempted;
  if (*seconds < 0) {
    ledger_.Fail("start: " + err);
    return false;
  }
  return true;
}

// One segment of the deterministic fixed-rate op list, with the daemon's
// metrics scraped around it. `spans` records client spans for its ops.
void Bench::RunFixed(Daemon& daemon, Client& client, size_t begin,
                     size_t end, bool spans) {
  const Scrape s0 = ScrapeMetrics(client);
  const int64_t cpu0 = daemon.CpuNs();
  client.SetSpanLog(spans ? &spans_ : nullptr);
  const PhaseResult r =
      client.RunOpen(in_.fixed, begin, end, a_.workload->rate, 30);
  client.SetSpanLog(nullptr);
  const int64_t cpu1 = daemon.CpuNs();
  const Scrape s1 = ScrapeMetrics(client);
  Accumulate(s0, s1, &fixed_delta_);
  sent_.push_back({&in_.fixed, begin, end});
  ledger_.attempted += end - begin;
  if (r.timed_out) ledger_.Fail("fixed phase: " + r.first_error);
  for (size_t i = 0; i < r.records.size(); ++i) {
    fixed_recs_[begin + i] = r.records[i];
    if (r.records[i].status != ReplyStatus::kOk) {
      ledger_.Fail("fixed phase: " + r.first_error);
    }
  }
  if (begin < in_.warmup) return;
  round_cpu_us_per_op_.push_back((cpu1 - cpu0) / 1e3 / (end - begin));
  const PhaseStats seg = Summarize(in_.fixed, begin, r.records, 0, in_.topk_k);
  std::vector<double>& topk = spans ? spanned_topk_us_ : plain_topk_us_;
  topk.insert(topk.end(), seg.topk_us.begin(), seg.topk_us.end());
  if (!seg.topk_us.empty()) {
    round_topk_p50_.push_back(Quantile(seg.topk_us, 0.5));
  }
  if (!seg.write_us.empty()) {
    round_write_p50_.push_back(Quantile(seg.write_us, 0.5));
  }
}

// One max-rate probe: open loop at `rate`; passes when every op succeeds,
// topk p99 stays within the limit, the generator kept its schedule and
// the client-side queue did not grow.
bool Bench::ProbeRate(Client& client, double rate, double seconds,
                      size_t* next, double* p99_out) {
  const size_t n = static_cast<size_t>(rate * seconds);
  *p99_out = 0;
  if (*next + n > in_.extra.size()) {
    ledger_.problems.push_back("extra ops exhausted");
    return false;
  }
  const PhaseResult r = client.RunOpen(in_.extra, *next, *next + n, rate, 20);
  sent_.push_back({&in_.extra, *next, *next + n});
  const PhaseStats s = Summarize(in_.extra, *next, r.records, 0, in_.topk_k);
  *next += n;
  ledger_.attempted += n;
  if (r.timed_out) {
    ledger_.Fail("max-rate probe timed out: " + r.first_error);
    return false;
  }
  for (uint64_t i = 0; i < s.failed; ++i) ledger_.Fail(r.first_error);
  const double p99 = Quantile(s.topk_us, 0.99);
  const double late = Quantile(s.late_us, 0.99);
  const bool growing =
      r.depth_end > r.depth_start + std::max<size_t>(16, n / 100);
  *p99_out = p99;
  std::fprintf(stderr,
               "  probe %.0f ops/s: topk p99 %.1f us, late p99 %.1f us, "
               "depth %zu -> %zu\n",
               rate, p99, late, r.depth_start, r.depth_end);
  const double limit_us = a_.workload->limit_us;
  return s.failed == 0 && p99 <= limit_us && late <= limit_us / 2 && !growing;
}

ProbeReplies Bench::SendProbes(Client& client) {
  ProbeReplies got;
  for (const std::string& line : in_.probe_topk) {
    got.topk.push_back(client.Call(line));
  }
  ++ledger_.attempted;
  const std::string r = client.Call("analyze", 120);
  if (r != "OK\r\n") ledger_.Fail("analyze replied `" + r + "`");
  for (uint32_t ad : in_.probe_match_ads) {
    got.match.push_back(client.Call("match\t" + std::to_string(ad)));
  }
  return got;
}

void Bench::CheckProbes(const ProbeReplies& want, const ProbeReplies& got,
                        const char* when) {
  auto compare = [&](const std::vector<std::string>& w,
                     const std::vector<std::string>& g, const char* what) {
    for (size_t i = 0; i < w.size(); ++i) {
      ++ledger_.attempted;
      if (i >= g.size() || g[i] != w[i]) {
        ledger_.Fail(std::string(when) + " " + what + " probe " +
                     std::to_string(i) + " differs from the reference");
      }
    }
  };
  compare(want.topk, got.topk, "topk");
  compare(want.match, got.match, "match");
}

// Counts that depend only on (workload, seed, seconds) must repeat
// exactly for the same binaries, whose identity names --counts-dir. The
// first run of a key that passed every other check records them; later
// runs compare.
void Bench::CheckCounts(const std::map<std::string, double>& counts) {
  const std::string& dir = a_.counts_dir;
  fs::create_directories(dir);
  const std::string path = dir + "/" + a_.workload->name + "-" +
                           std::to_string(a_.seed) + "-" + Num(a_.seconds) +
                           (a_.trace ? "-traced" : "") + ".tsv";
  std::ostringstream now;
  for (const auto& [k, v] : counts) now << k << '\t' << Num(v) << '\n';
  std::ifstream old(path);
  if (old) {
    std::stringstream prev;
    prev << old.rdbuf();
    if (prev.str() != now.str()) {
      ledger_.Fail("counts differ from an earlier run of this seed (" +
                   path + ")");
    }
    return;
  }
  if (ledger_.failed == 0) std::ofstream(path) << now.str();
}

int Bench::Run() {
  // Half the measured time runs the fixed-rate ops, split into rounds that
  // each add one `analyze` and a slice of the `match` calls: request and
  // reply work that leaves nothing running behind it. Interleaving makes
  // those metrics sample the whole phase, as host speed drifts over tens
  // of seconds. The closed-loop bursts and max-rate probes saturate the
  // daemon and its log, so they run in a phase of their own afterwards,
  // each round a 0.5 s burst and a 0.6 s probe. The p50 metrics are the
  // median of the rounds' p50s, so a slow host phase that covers less
  // than half of the rounds does not move them.
  const double S = a_.seconds;
  const double rate = a_.workload->rate;
  const double limit_us = a_.workload->limit_us;
  const int rounds = std::max(4, static_cast<int>(S / 2.5 + 0.5));
  const double burst_s = 0.5;
  const double probe_s = 0.6;
  const size_t fixed_ops = static_cast<size_t>(rate * 0.5 * S);
  const size_t extra_ops = static_cast<size_t>(rate * (4.0 * S + 2));
  if (!Generate(a_.workload->name, a_.seed, rate, fixed_ops, extra_ops,
                &in_)) {
    std::fprintf(stderr, "unknown workload %s\n", a_.workload->name);
    return 2;
  }
  fixed_recs_.resize(in_.fixed.size());
  in_dir_ = a_.run_dir + "/inputs";
  wal_dir_ = a_.run_dir + "/wal";
  fs::create_directories(in_dir_);
  std::string err;
  if (!WriteInputFiles(in_, in_dir_, &err)) {
    std::fprintf(stderr, "writing inputs: %s\n", err.c_str());
    return 2;
  }

  // Set-up: spawn to first reply, five times, each on an empty log; the
  // last daemon serves the run.
  std::vector<double> setup_s;
  Daemon daemon;
  for (int i = 0; i < 5; ++i) {
    fs::remove_all(wal_dir_);
    Daemon spare;
    Daemon* d = i == 4 ? &daemon : &spare;
    double s = 0;
    if (!StartDaemon(d, wal_dir_, &s)) {
      PrintResult(false);
      return 1;
    }
    setup_s.push_back(s);
    if (d == &spare) spare.Stop();
  }
  E2e("setup_s", Median(setup_s), "s", setup_s.size());

  const size_t conns =
      std::max<long>(1, std::min<long>(3, sysconf(_SC_NPROCESSORS_ONLN) - 1));
  auto client = std::make_unique<Client>(daemon.port(), conns);
  if (!client->ok()) {
    ledger_.Fail("connect failed");
    PrintResult(false);
    return 1;
  }
  client->SetKnownAds(in_.known_ads);
  for (const Op& op : in_.inventory) {
    ++ledger_.attempted;
    const std::string r = client->Call(op.line);
    if (r != "OK\r\n") ledger_.Fail("inventory: `" + r + "`");
  }

  const Scrape run_start = ScrapeMetrics(*client);
  RunFixed(daemon, *client, 0, in_.warmup, false);
  std::vector<double> analyze_s, match_us, round_match_p50;
  const size_t match_passes =
      in_.stable_ads.empty()
          ? 0
          : (1000 + in_.stable_ads.size() - 1) / in_.stable_ads.size();
  for (int r = 0; r < rounds; ++r) {
    // Traced runs record client spans in every other segment only, so
    // trace.overhead_frac can compare the two kinds.
    const size_t span = in_.fixed.size() - in_.warmup;
    RunFixed(daemon, *client, in_.warmup + span * r / rounds,
             in_.warmup + span * (r + 1) / rounds,
             spans_.enabled() && r % 2 == 0);

    int64_t t0 = NowNs();
    const std::string reply = client->Call("analyze", 120);
    analyze_s.push_back((NowNs() - t0) / 1e9);
    ++ledger_.attempted;
    if (reply != "OK\r\n") ledger_.Fail("analyze replied `" + reply + "`");

    const size_t n = in_.stable_ads.size();
    const size_t round_begin = match_us.size();
    for (size_t p = 0; p < match_passes; ++p) {
      for (size_t i = n * r / rounds; i < n * (r + 1) / rounds; ++i) {
        const uint32_t ad = in_.stable_ads[i];
        t0 = NowNs();
        const std::string m = client->Call("match\t" + std::to_string(ad));
        match_us.push_back((NowNs() - t0) / 1e3);
        ++ledger_.attempted;
        const std::vector<std::string> lines = ReplyLines(m);
        bool good = !lines.empty() && lines[0].rfind("USERS ", 0) == 0 &&
                    lines.size() == std::strtoull(lines[0].c_str() + 6,
                                                  nullptr, 10) + 2 &&
                    lines.back() == "END";
        for (size_t j = 1; good && j + 1 < lines.size(); ++j) {
          good = lines[j].rfind("USER ", 0) == 0;
        }
        if (!good) {
          ledger_.Fail("match " + std::to_string(ad) + ": `" +
                       m.substr(0, 60) + "`");
        }
      }
    }
    if (match_us.size() > round_begin) {
      round_match_p50.push_back(Quantile(
          std::vector<double>(match_us.begin() + round_begin, match_us.end()),
          0.5));
    }
  }
  // Peak memory under the offered load. The saturation phase below grows
  // it by an amount that depends on how deep each overload queued, and
  // recovery's peak varies from restart to restart; rss_saturated_mb
  // reports those.
  const uint64_t rss_fixed = daemon.PeakRssBytes();
  Layer("analyze_s", Median(analyze_s), "s", analyze_s.size());
  Layer("match_p50_us", Median(round_match_p50), "us", match_us.size());
  Layer("match_p99_us", Quantile(match_us, 0.99), "us", match_us.size());

  // Max-rate search: a ladder of rates 1.2x apart, from the fixed rate
  // up, until a probe fails; then each round probes the rate where the
  // log of topk p99 crosses the limit between the highest pass and the
  // lowest fail, narrowing that bracket. A probe that fails on backlog or
  // lateness alone counts as p99 = limit.
  std::vector<double> capacity;
  size_t next = 0;  // into in_.extra
  double pass_rate = 0, pass_p99 = 0, fail_rate = 0, fail_p99 = 0;
  auto crossing = [&] {
    const double f = (std::log(limit_us) - std::log(pass_p99)) /
                     (std::log(fail_p99) - std::log(pass_p99));
    return pass_rate + std::clamp(f, 0.0, 1.0) * (fail_rate - pass_rate);
  };
  for (int r = 0; r < rounds; ++r) {
    uint64_t failed = 0;
    const size_t begin = next;
    const uint64_t done = client->RunClosed(in_.extra, &next,
                                            in_.extra.size(), 32, burst_s,
                                            &failed);
    sent_.push_back({&in_.extra, begin, next});
    ledger_.attempted += next - begin;
    for (uint64_t i = 0; i < failed; ++i) ledger_.Fail("capacity burst");
    capacity.push_back(done / burst_s);

    const double probe = fail_rate == 0
                             ? std::max(pass_rate, rate) * 1.2
                             : (pass_rate > 0 ? crossing() : 0.8 * fail_rate);
    double p99 = 0;
    if (ProbeRate(*client, probe, probe_s, &next, &p99)) {
      pass_rate = probe;
      pass_p99 = std::max(p99, 1.0);
      if (fail_rate <= probe) fail_rate = 0;  // a noisy fail below a pass
    } else {
      fail_rate = probe;
      fail_p99 = std::max(p99, limit_us);
      if (pass_rate >= probe) pass_rate = 0;
    }
  }
  Layer("capacity_ops_s", Median(capacity), "1/s", capacity.size());

  const PhaseStats fs_ =
      Summarize(in_.fixed, 0, fixed_recs_, in_.warmup, in_.topk_k);
  Layer("topk_p50_us", Median(round_topk_p50_), "us", fs_.topk_us.size());
  Layer("topk_p99_us", ChunkedP99(fs_.topk_us), "us", fs_.topk_us.size());
  // The fixed-rate phase is the ladder's bottom rung when no probe passed.
  if (pass_rate == 0) {
    pass_rate = rate;
    pass_p99 = std::max(ChunkedP99(fs_.topk_us), 1.0);
  }
  Layer("max_rate_ops_s",
        pass_p99 > limit_us ? rate * limit_us / pass_p99
        : fail_rate == 0    ? pass_rate
                            : crossing(),
        "1/s", rounds);
  Layer("ingest_p50_us", Median(round_write_p50_), "us", fs_.write_us.size());
  E2e("cpu_us_per_op", Median(round_cpu_us_per_op_), "us",
      fixed_ops - in_.warmup);
  Layer("ingest_p99_us", ChunkedP99(fs_.write_us), "us", fs_.write_us.size());
  const double late_p99 = Quantile(fs_.late_us, 0.99);
  // A generator that fell behind its own schedule by more than the
  // workload's latency limit invalidates the run: its latencies would
  // measure the generator, not the daemon.
  const bool generator_ok = late_p99 <= limit_us;
  if (!generator_ok) {
    ledger_.problems.push_back("generator lagged: late p99 " +
                               Num(late_p99) + " us");
  }

  // Quiet daemon: the probe set, checked against the reference below.
  const ProbeReplies got_before = SendProbes(*client);
  const Scrape run_end = ScrapeMetrics(*client);

  // Crash: SIGKILL and keep a copy of the log, then restart seven times
  // with the same command line, each timed from spawn to first reply.
  const uint64_t rss_saturated = daemon.PeakRssBytes();
  client.reset();
  daemon.KillHard();
  const std::string wal_copy = a_.run_dir + "/wal-copy";
  fs::copy(wal_dir_, wal_copy, fs::copy_options::recursive);
  uint64_t acked_writes = 0;
  for (const OpRange& range : sent_) {
    for (size_t i = range.begin; i < range.end; ++i) {
      if (IsWrite((*range.ops)[i].kind)) ++acked_writes;
    }
  }
  acked_writes += in_.inventory.size();
  E2e("disk_bytes_per_event",
      static_cast<double>(DirBytes(wal_copy)) /
          static_cast<double>(std::max<uint64_t>(1, acked_writes)),
      "B", acked_writes);
  std::vector<double> recovery_s;
  for (int i = 0; i < 7; ++i) {
    if (i > 0) daemon.KillHard();
    double s = 0;
    if (!StartDaemon(&daemon, wal_dir_, &s)) {
      PrintResult(false);
      return 1;
    }
    recovery_s.push_back(s);
  }
  Layer("recovery_s", Median(recovery_s), "s", recovery_s.size());
  client = std::make_unique<Client>(daemon.port(), conns);
  const ProbeReplies got_after = SendProbes(*client);
  const uint64_t rss_restarted = daemon.PeakRssBytes();
  E2e("rss_peak_mb", rss_fixed / 1048576.0, "MB", 1);
  Layer("rss_saturated_mb",
        std::max(rss_saturated, rss_restarted) / 1048576.0, "MB", 2);
  client.reset();
  if (!daemon.Stop()) ledger_.Fail("daemon did not drain on SIGTERM");

  // Reference answers, computed with the daemon stopped.
  ProbeReplies want_before, want_after;
  if (!ReferenceProbes(in_, in_dir_, sent_, "", &want_before, &err) ||
      !ReferenceProbes(in_, in_dir_, {}, wal_copy, &want_after, &err)) {
    ledger_.Fail("reference: " + err);
  }
  CheckProbes(want_before, got_before, "pre-crash");
  CheckProbes(want_after, got_after, "post-recovery");

  std::map<std::string, double> counts;
  for (const char* verb : {"tweet", "checkin", "adput", "addel", "topk",
                           "checkpoint"}) {
    counts[std::string("ops.") + verb] =
        Get(fixed_delta_, std::string("adrec_serve_cmd_") + verb + "_total");
  }
  counts["wal.append_bytes"] = Get(fixed_delta_, "adrec_wal_append_bytes_total");

  const double error_frac = static_cast<double>(ledger_.failed) /
                            std::max<uint64_t>(1, ledger_.attempted);
  double p50_drift = 0, fill_drift = 0;
  Drift(fs_, &p50_drift, &fill_drift);
  std::printf("# error_frac %.6f (%llu of %llu ops)\n", error_frac,
              static_cast<unsigned long long>(ledger_.failed),
              static_cast<unsigned long long>(ledger_.attempted));
  std::printf("# loadgen.late_p99_us %.2f (n=%zu)%s\n", late_p99,
              fs_.late_us.size(), generator_ok ? "" : " INVALID");
  std::printf("# drift first->last tenth: topk_p50 %+.3f, fill_ratio %+.4f\n",
              p50_drift, fill_drift);

  if (a_.trace) {
    Layer("loadgen.late_p99_us", late_p99, "us", fs_.late_us.size());
    Layer("drift.topk_p50", p50_drift, "frac", fs_.topk_us.size());
    Layer("drift.fill_ratio", fill_drift, "frac", fs_.fill.size());
    LayerMetrics(fs_, run_start, run_end, wal_copy);
    counts["index.postings_scanned"] =
        layer_["index.postings_scanned_per_query"].value *
        layer_["index.postings_scanned_per_query"].samples;
    counts["tfca.triconcepts"] = layer_["tfca.triconcepts"].value;
    Layer("error_frac", error_frac, "frac", ledger_.attempted);
  }
  CheckCounts(counts);
  PrintResult(generator_ok && ledger_.failed == 0);
  return 0;
}

// Per-layer metrics: daemon-side exact sums and counts over the fixed
// segments, plus the in-process replay (layers.cc).
void Bench::LayerMetrics(const PhaseStats& fs, const Scrape& run_start,
                         const Scrape& run_end, const std::string& wal_copy) {
  const Scrape& d = fixed_delta_;
  Scrape whole;  // analyses run outside the fixed segments
  Accumulate(run_start, run_end, &whole);
  const double topks = Get(d, "adrec_serve_cmd_topk_total");
  double writes = 0, write_sum = 0;
  for (const char* v : {"tweet", "checkin", "adput", "addel"}) {
    const std::string base = std::string("adrec_serve_cmd_") + v;
    writes += Get(d, base + "_seconds_count");
    write_sum += Get(d, base + "_seconds_sum");
  }
  const double cmd_topk = TimerMean(d, "serve_cmd_topk", 1e6);
  Layer("serve.cmd_topk_us", cmd_topk, "us", topks);
  Layer("serve.cmd_write_us", writes > 0 ? write_sum / writes * 1e6 : 0, "us",
        writes);
  Layer("serve.wire_us", Mean(fs.topk_rtt_us) - cmd_topk, "us",
        fs.topk_rtt_us.size());
  Layer("serve.sheds", Get(d, "adrec_serve_sheds_total"), "count", 1);
  Layer("serve.forwarded_frac",
        topks + writes > 0
            ? Get(d, "adrec_serve_pool_forwarded_total") / (topks + writes)
            : 0,
        "frac", topks + writes);
  const double hits = Get(d, "adrec_cache_hits_total");
  const double reval = Get(d, "adrec_cache_revalidation_misses_total");
  Layer("cache.hit_ratio", topks > 0 ? hits / topks : 0, "frac", topks);
  Layer("cache.revalidation_miss_ratio",
        hits + reval > 0 ? reval / (hits + reval) : 0, "frac", hits + reval);
  Layer("cache.invalidations_per_write",
        writes > 0 ? Get(d, "adrec_cache_invalidations_total") / writes : 0,
        "count", writes);
  Layer("ads.fill_ratio", Mean(fs.fill), "frac", fs.fill.size());
  const double appends = Get(d, "adrec_wal_appends_total");
  const double commits = Get(d, "adrec_wal_commits_total");
  Layer("wal.append_us", TimerMean(d, "wal_append", 1e6), "us",
        Get(d, "adrec_wal_append_seconds_count"));
  Layer("wal.commit_us", TimerMean(d, "wal_fsync", 1e6), "us",
        Get(d, "adrec_wal_fsync_seconds_count"));
  Layer("wal.records_per_commit", commits > 0 ? appends / commits : 0,
        "count", commits);
  Layer("wal.bytes_per_record",
        appends > 0 ? Get(d, "adrec_wal_append_bytes_total") / appends : 0,
        "B", appends);
  const size_t analyses = Get(whole, "adrec_engine_analysis_seconds_count");
  Layer("tfca.build_ms", TimerMean(whole, "engine_analysis_build", 1e3), "ms",
        analyses);
  Layer("tfca.trias_location_ms",
        TimerMean(whole, "engine_analysis_trias_location", 1e3), "ms",
        analyses);
  Layer("tfca.trias_topic_ms",
        TimerMean(whole, "engine_analysis_trias_topic", 1e3), "ms", analyses);
  Layer("tfca.decode_ms", TimerMean(whole, "engine_analysis_decode", 1e3),
        "ms", analyses);

  const std::string scratch = a_.run_dir + "/replay";
  fs::create_directories(scratch);
  for (const auto& [name, v] :
       TraceLayers(in_, in_dir_, wal_copy, scratch,
                   commits > 0 ? appends / commits : 1.0, &spans_)) {
    Layer(name, v.value, v.unit, v.samples);
  }
  Layer("index.bytes", Get(run_end, "adrec_index_postings_bytes"), "B", 1);

  // Tracing overhead: fixed-rate topk p50 in the segments that recorded
  // client spans against the interleaved segments that did not.
  const double plain_p50 = Quantile(plain_topk_us_, 0.5);
  Layer("trace.overhead_frac",
        plain_p50 > 0 ? Quantile(spanned_topk_us_, 0.5) / plain_p50 - 1.0 : 0,
        "frac", spanned_topk_us_.size());

  // Each workload's stated emphasis.
  const double hit = layer_["cache.hit_ratio"].value;
  const double lookup_share = layer_["share.topk.annotate"].value +
                              layer_["share.topk.engine_self"].value;
  std::printf("# emphasis: cache.hit_ratio %.3f; annotate+engine share of "
              "topk service %.3f; wal_commit share of write service %.3f\n",
              hit, lookup_share, layer_["share.write.wal_commit"].value);
}

void Bench::PrintResult(bool correct) {
  utsname u{};
  uname(&u);
  std::string cmdline;
  for (const auto& s : DaemonArgv(wal_dir_)) {
    cmdline += (cmdline.empty() ? "" : " ") + s;
  }
  for (const auto& p : ledger_.problems) {
    std::printf("# problem: %s\n", p.c_str());
  }
  for (const auto* metrics : {&e2e_, &layer_}) {
    for (const auto& [name, m] : *metrics) {
      std::printf("%-34s %14s %-6s n=%zu\n", name.c_str(),
                  Num(m.value).c_str(), m.unit.c_str(), m.samples);
    }
  }
  std::printf(
      "# host nproc=%ld cpu=\"%s\" kernel=%s build=%s seed=%llu "
      "workload=%s seconds=%g rate=%g limit_us=%g\n# daemon: %s\n",
      sysconf(_SC_NPROCESSORS_ONLN),
      ReadFirstMatch("/proc/cpuinfo", "model name").c_str(), u.release,
      PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(a_.seed),
      a_.workload->name, a_.seconds, a_.workload->rate,
      a_.workload->limit_us, cmdline.c_str());
  if (spans_.enabled()) {
    std::ofstream out(a_.run_dir + "/../spans-" + a_.workload->name + "-" +
                      std::to_string(a_.seed) + ".tsv");
    out << "op\tname\tstart_ns\tend_ns\tparent\n";
    for (const Span& s : spans_.spans()) {
      out << s.op << '\t' << s.name << '\t' << s.start_ns << '\t' << s.end_ns
          << '\t' << s.parent << '\n';
    }
  }
  const auto& metrics = a_.trace ? layer_ : e2e_;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(std::max<uint64_t>(1, ledger_.attempted)) +
                     ", \"failed\": " + std::to_string(ledger_.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            Num(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --run-dir DIR --counts-dir DIR\n");
    return 2;
  }
  std::signal(SIGALRM, OnAlarm);
  alarm(170);
  Bench bench(a);
  const int rc = bench.Run();
  StopAllChildren();
  return rc;
}
