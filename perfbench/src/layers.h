// In-process side of the benchmark: the reference the daemon's probe
// replies are checked against, and the traced replay that splits the
// service time into the library's layers.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "gen.h"
#include "stats.h"

namespace perfbench {

/// The probe set's replies, formatted exactly as adrecd writes them.
struct ProbeReplies {
  std::vector<std::string> topk;
  std::vector<std::string> match;
};

/// A slice of an op list, in the order the daemon was sent it.
struct OpRange {
  const std::vector<Op>* ops;
  size_t begin;
  size_t end;
};

/// Builds an engine from the files in `in_dir` as adrecd does, then
/// either applies the inventory and the writes of `sent` in order
/// (`recover_dir` empty) or runs the library's own WAL recovery on
/// `recover_dir`, and answers the probe set: topk probes, `analyze`,
/// match probes.
bool ReferenceProbes(const Inputs& in, const std::string& in_dir,
                     const std::vector<OpRange>& sent,
                     const std::string& recover_dir, ProbeReplies* out,
                     std::string* error);

/// One per-layer metric of the in-process replay.
struct LayerValue {
  double value;
  const char* unit;
  size_t samples;
};

/// Replays the fixed phase in process, timing calls into each module's
/// public functions (spans go to `log`), and returns per-layer metrics.
/// `records_per_commit` is the daemon's WAL group size, which the replay
/// commits at. `scratch` is an empty directory for the replay's WAL and
/// checkpoints; `wal_copy` is a copy of the killed daemon's log.
std::map<std::string, LayerValue> TraceLayers(const Inputs& in,
                                             const std::string& in_dir,
                                             const std::string& wal_copy,
                                             const std::string& scratch,
                                             double records_per_commit,
                                             SpanLog* log);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
