// Exact order statistics over raw samples, and the in-memory span log of
// the traced run.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of every sample (sorted copy; 0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// The p99 of samples in arrival order, as the median over consecutive
/// chunks (each at least 1000 samples and a tenth of the total, so at
/// least ten lie beyond each chunk's p99) of each chunk's exact p99. One
/// stalled second moves one chunk, not the result.
inline double ChunkedP99(const std::vector<double>& v) {
  const size_t chunk = std::max<size_t>(1000, v.size() / 10);
  if (v.size() < 2 * chunk) return Quantile(v, 0.99);
  std::vector<double> p99s;
  for (size_t begin = 0; begin < v.size(); begin += chunk) {
    // The last chunk takes the remainder.
    const size_t end = begin + 2 * chunk > v.size() ? v.size() : begin + chunk;
    p99s.push_back(Quantile(
        std::vector<double>(v.begin() + begin, v.begin() + end), 0.99));
    if (end == v.size()) break;
  }
  std::sort(p99s.begin(), p99s.end());
  return p99s[p99s.size() / 2];
}

inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// One timed interval. Spans of one op share `op`; `parent` is the index
/// of the enclosing span in the same log, or -1 for a root.
struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t op;
};

/// Spans kept in memory and written out when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }
  bool enabled() const { return enabled_; }
  /// Opens a span and returns its index (-1 when disabled).
  int32_t Begin(const char* name, uint32_t op, int32_t parent,
                int64_t now) {
    if (!enabled_) return -1;
    spans_.push_back({name, now, 0, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span, int64_t now) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_ns = now;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
