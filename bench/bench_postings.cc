// E23 — "Compressed inventory index at scale": builds the same synthetic
// ad inventory into the uncompressed AdIndex and the compressed
// posting-list CompressedAdIndex (DESIGN.md §15) at each requested
// inventory size, then drives the identical deterministic query stream
// through both and reports build time, topk latency, candidate pruning
// and index memory. Topics are Zipf-distributed so posting lists have
// the skewed length profile the cheapest-first conjunction exploits;
// queries mix selective and broad topics with optional location/slot
// filters.
//
// Self-gates (exit non-zero): every query must return byte-identical
// results from both indexes, and every 16th must also equal the
// exhaustive reference scorer; compressed topk p95 must not
// exceed 1.15x the uncompressed p95 at the 10k-ad scale (when run); and
// compressed index memory must be at most 0.5x the uncompressed
// estimate at the largest scale.
//
//   bench_postings [num_ads ...] [--queries=N] [--topics=N] [--seed=N]
//
// Defaults: scales {10000, 100000}, 2000 queries, 2000 topics. The full
// E23 sweep adds 1000000 (see EXPERIMENTS.md); CI runs the quick shape.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "index/ad_index.h"
#include "obs/stats_export.h"
#include "postings/compressed_index.h"
#include "text/sparse_vector.h"

namespace {

using adrec::Histogram;

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct AdSpec {
  adrec::AdId id;
  adrec::text::SparseVector topics;
  std::vector<adrec::LocationId> locations;
  std::vector<adrec::SlotId> slots;
  double bid = 1.0;
};

struct ScaleResult {
  size_t num_ads = 0;
  double build_uncompressed_us = 0.0;
  double build_compressed_us = 0.0;
  Histogram uncompressed_us;
  Histogram compressed_us;
  size_t uncompressed_bytes = 0;
  size_t compressed_bytes = 0;
  double avg_candidates = 0.0;
  double avg_scanned = 0.0;
  double avg_scanned_uncompressed = 0.0;
  size_t mismatches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> scales;
  size_t num_queries = 2000;
  uint32_t num_topics = 2000;
  uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--queries=", 10) == 0) {
      num_queries = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--topics=", 9) == 0) {
      num_topics = static_cast<uint32_t>(std::atoll(arg + 9));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else {
      scales.push_back(static_cast<size_t>(std::atoll(arg)));
    }
  }
  if (scales.empty()) scales = {10000, 100000};

  constexpr uint32_t kCells = 256;
  constexpr uint32_t kSlots = 16;
  bool gate_failed = false;
  std::vector<ScaleResult> results;

  for (const size_t num_ads : scales) {
    ScaleResult r;
    r.num_ads = num_ads;

    // Deterministic inventory: Zipf topic popularity gives the long-tail
    // posting-length profile; 60% of ads are geo-targeted, 50% slotted.
    adrec::Rng rng(seed * 1000003 + num_ads);
    adrec::ZipfSampler topic_zipf(num_topics, 1.05);
    std::vector<AdSpec> ads;
    ads.reserve(num_ads);
    for (size_t i = 0; i < num_ads; ++i) {
      AdSpec spec;
      spec.id = adrec::AdId(static_cast<uint32_t>(i));
      std::vector<adrec::text::SparseEntry> entries;
      const size_t nt = 2 + rng.NextBounded(5);
      for (size_t t = 0; t < nt; ++t) {
        entries.push_back({static_cast<uint32_t>(topic_zipf.Sample(rng)),
                           0.05 + rng.NextDouble()});
      }
      spec.topics =
          adrec::text::SparseVector::FromUnsorted(std::move(entries));
      if (rng.NextBool(0.6)) {
        const size_t nl = 1 + rng.NextBounded(3);
        for (size_t l = 0; l < nl; ++l) {
          spec.locations.push_back(adrec::LocationId(
              static_cast<uint32_t>(rng.NextBounded(kCells))));
        }
      }
      if (rng.NextBool(0.5)) {
        spec.slots.push_back(
            adrec::SlotId(static_cast<uint32_t>(rng.NextBounded(kSlots))));
      }
      spec.bid = 0.1 + rng.NextDouble() * 3.0;
      ads.push_back(std::move(spec));
    }

    // Query stream shared by both indexes: skewed topic picks (so some
    // queries hit fat lists, some hit selective tails), half filtered.
    std::vector<adrec::index::AdQuery> queries;
    queries.reserve(num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      adrec::index::AdQuery q;
      std::vector<adrec::text::SparseEntry> entries;
      const size_t nt = 1 + rng.NextBounded(4);
      for (size_t t = 0; t < nt; ++t) {
        entries.push_back({static_cast<uint32_t>(topic_zipf.Sample(rng)),
                           0.05 + rng.NextDouble()});
      }
      q.topics = adrec::text::SparseVector::FromUnsorted(std::move(entries));
      q.k = 10;
      if (rng.NextBool(0.5)) {
        q.location = adrec::LocationId(
            static_cast<uint32_t>(rng.NextBounded(kCells)));
      }
      if (rng.NextBool(0.5)) {
        q.slot =
            adrec::SlotId(static_cast<uint32_t>(rng.NextBounded(kSlots)));
      }
      queries.push_back(std::move(q));
    }

    adrec::index::AdIndex idx;
    double start = NowUs();
    for (const AdSpec& a : ads) {
      if (auto s = idx.Insert(a.id, a.topics, a.locations, a.slots, a.bid);
          !s.ok()) {
        std::fprintf(stderr, "insert: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    r.build_uncompressed_us = NowUs() - start;

    adrec::postings::CompressedAdIndex cidx;
    start = NowUs();
    for (const AdSpec& a : ads) {
      if (auto s = cidx.Insert(a.id, a.topics, a.locations, a.slots, a.bid);
          !s.ok()) {
        std::fprintf(stderr, "insert: %s\n", s.ToString().c_str());
        return 1;
      }
    }
    cidx.Seal();
    r.build_compressed_us = NowUs() - start;
    r.uncompressed_bytes = idx.approx_bytes();
    r.compressed_bytes = cidx.approx_bytes();

    // Interleave the two indexes per query rather than running two
    // separate passes, so cache-warmth drift cannot favour either side.
    uint64_t candidates = 0, scanned = 0, scanned_plain = 0;
    for (size_t i = 0; i < num_queries; ++i) {
      start = NowUs();
      const auto plain = idx.TopK(queries[i]);
      r.uncompressed_us.Record(NowUs() - start);
      scanned_plain += idx.last_postings_scanned();
      start = NowUs();
      const auto pruned = cidx.TopK(queries[i]);
      r.compressed_us.Record(NowUs() - start);
      candidates += cidx.last_candidates();
      scanned += cidx.last_postings_scanned();
      // The exhaustive scorer is the spec; the twin index alone could
      // share a defect with AdIndex.
      if (plain != pruned ||
          (i % 16 == 0 && plain != idx.TopKExhaustive(queries[i]))) {
        ++r.mismatches;
      }
    }
    const double n = static_cast<double>(num_queries);
    r.avg_candidates = static_cast<double>(candidates) / n;
    r.avg_scanned = static_cast<double>(scanned) / n;
    r.avg_scanned_uncompressed = static_cast<double>(scanned_plain) / n;

    std::printf(
        "bench_postings: ads=%-8zu build=%.0f/%.0fms topk p50=%.1f/%.1fus "
        "p95=%.1f/%.1fus mem=%.1f/%.1fMB (ratio %.2f) avg_candidates=%.0f "
        "avg_scanned=%.0f/%.0f\n",
        num_ads, r.build_uncompressed_us / 1000.0,
        r.build_compressed_us / 1000.0, r.uncompressed_us.Quantile(0.50),
        r.compressed_us.Quantile(0.50), r.uncompressed_us.Quantile(0.95),
        r.compressed_us.Quantile(0.95),
        static_cast<double>(r.uncompressed_bytes) / 1048576.0,
        static_cast<double>(r.compressed_bytes) / 1048576.0,
        static_cast<double>(r.compressed_bytes) /
            static_cast<double>(r.uncompressed_bytes),
        r.avg_candidates, r.avg_scanned_uncompressed, r.avg_scanned);

    if (r.mismatches > 0) {
      std::fprintf(stderr,
                   "bench_postings: GATE %zu queries diverged between the "
                   "indexes or from the exhaustive scorer at ads=%zu\n",
                   r.mismatches, num_ads);
      gate_failed = true;
    }
    results.push_back(std::move(r));
  }

  // --- Self-gates across scales. ---
  for (const ScaleResult& r : results) {
    if (r.num_ads == 10000) {
      const double plain_p95 = r.uncompressed_us.Quantile(0.95);
      const double pruned_p95 = r.compressed_us.Quantile(0.95);
      if (plain_p95 > 0.0 && pruned_p95 > 1.15 * plain_p95) {
        std::fprintf(stderr,
                     "bench_postings: GATE compressed topk p95 %.1fus > "
                     "1.15x uncompressed %.1fus at 10k ads\n",
                     pruned_p95, plain_p95);
        gate_failed = true;
      }
    }
  }
  const ScaleResult& largest = results.back();
  const double mem_ratio = static_cast<double>(largest.compressed_bytes) /
                           static_cast<double>(largest.uncompressed_bytes);
  if (mem_ratio > 0.5) {
    std::fprintf(stderr,
                 "bench_postings: GATE memory ratio %.3f > 0.5 at %zu ads\n",
                 mem_ratio, largest.num_ads);
    gate_failed = true;
  }

  // One machine-readable line for ci_bench_gate.sh.
  adrec::obs::StatsReport report;
  for (const ScaleResult& r : results) {
    const std::string label = "bench.n" + std::to_string(r.num_ads);
    auto add_timer = [&](const std::string& name, const Histogram& h) {
      adrec::obs::TimerStat stat;
      stat.count = h.count();
      stat.mean = h.Mean();
      stat.p50 = h.Quantile(0.50);
      stat.p95 = h.Quantile(0.95);
      stat.p99 = h.Quantile(0.99);
      stat.min = h.min();
      stat.max = h.max();
      report.timers[name] = stat;
    };
    add_timer(label + "_uncompressed_topk_us", r.uncompressed_us);
    add_timer(label + "_compressed_topk_us", r.compressed_us);
    report.gauges[label + "_uncompressed_bytes"] =
        static_cast<double>(r.uncompressed_bytes);
    report.gauges[label + "_compressed_bytes"] =
        static_cast<double>(r.compressed_bytes);
    report.gauges[label + "_memory_ratio"] =
        static_cast<double>(r.compressed_bytes) /
        static_cast<double>(r.uncompressed_bytes);
    report.gauges[label + "_avg_candidates"] = r.avg_candidates;
    report.gauges[label + "_avg_scanned"] = r.avg_scanned;
    report.gauges[label + "_avg_scanned_uncompressed"] =
        r.avg_scanned_uncompressed;
    report.gauges[label + "_build_compressed_ms"] =
        r.build_compressed_us / 1000.0;
    report.gauges[label + "_build_uncompressed_ms"] =
        r.build_uncompressed_us / 1000.0;
  }
  report.counters["bench.queries_per_scale"] = num_queries;
  report.counters["bench.topics"] = num_topics;
  std::printf("BENCH_METRICS_JSON %s\n",
              adrec::obs::ExportJson(report).c_str());

  return gate_failed ? 1 : 0;
}
