// Seeded input generation for the adrecd benchmark: the files the daemon
// loads (kb.tsv, ads.tsv, trace.tsv) and the wire operations it is sent.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "annotate/knowledge_base.h"
#include "feed/types.h"

namespace perfbench {

/// Entries in the daemon's topk cache (`--topk-cache`). feed_hot's hot set
/// fits it; feed_cold's user space is twelve times it.
inline constexpr size_t kTopkCache = 4096;

/// A workload's fixed offered rate and its topk p99 limit, set from the
/// parent commit's numbers on a 4-vCPU VM (perfbench/README.md).
struct WorkloadSpec {
  const char* name;
  double rate;      // ops/s of the fixed-rate segments
  double limit_us;  // topk p99 limit of the max-rate probes and lateness
};
inline constexpr WorkloadSpec kWorkloads[] = {
    {"feed_hot", 2000, 10000},
    {"feed_cold", 500, 20000},
    {"ingest_churn", 1000, 10000},
};

enum class OpKind : uint8_t { kTopK, kTweet, kCheckIn, kAdPut, kAdDel,
                              kCheckpoint };

inline bool IsWrite(OpKind k) {
  return k == OpKind::kTweet || k == OpKind::kCheckIn ||
         k == OpKind::kAdPut || k == OpKind::kAdDel;
}

/// One wire operation. `user` pins the op to a connection (ad and admin
/// ops use user 0, so they stay in order on one connection).
struct Op {
  OpKind kind = OpKind::kTopK;
  uint32_t user = 0;
  std::string line;  // request without the terminating newline
};

/// Everything a run sends and loads, derived from the workload, the seed
/// and the op counts alone.
struct Inputs {
  std::shared_ptr<adrec::annotate::KnowledgeBase> kb;  // as generated
  std::vector<adrec::feed::Ad> ads;                    // ads.tsv
  std::vector<adrec::feed::Tweet> tweets;              // trace.tsv
  std::vector<adrec::feed::CheckIn> check_ins;         // trace.tsv
  /// Writes sent one at a time before the fixed-rate phase.
  std::vector<Op> inventory;
  /// Deterministic fixed-rate phase; its first `warmup` ops are not
  /// measured.
  std::vector<Op> fixed;
  size_t warmup = 0;
  /// Further ops of the same mix for the capacity and max-rate phases.
  std::vector<Op> extra;
  /// Quiet-daemon probe set: explicit-time topk lines for users that no
  /// load-phase topk touched, then `match` lines.
  std::vector<std::string> probe_topk;
  std::vector<uint32_t> probe_match_ads;
  /// Every ad id the daemon may ever return (preloaded plus adput).
  std::vector<uint32_t> known_ads;
  /// Ad ids live from the first fixed-rate op to the end of the run: the
  /// `match` targets.
  std::vector<uint32_t> stable_ads;
  size_t topk_k = 5;
};

/// Builds the inputs of `workload` for `seed`. `fixed_ops` and
/// `extra_ops` size the two op lists; `rate` (the fixed-rate phase's
/// ops/s) sets how fast the feed workloads' event clock advances per op.
/// Returns false for an unknown workload name.
bool Generate(const std::string& workload, uint64_t seed, double rate,
              size_t fixed_ops, size_t extra_ops, Inputs* out);

/// Writes kb.tsv, ads.tsv and trace.tsv under `dir`.
bool WriteInputFiles(const Inputs& in, const std::string& dir,
                     std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
