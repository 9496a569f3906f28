// adrecd — the network serving daemon: an event-driven TCP front end
// (src/serve) over a sharded recommendation engine.
//
//   adrecd [--port=N] [--shards=N] [--workers=N] [--dir=DIR] [--alpha=A]
//          [--report-interval=SEC] [--max-connections=N]
//          [--idle-timeout=SEC] [--snapshot-root=DIR]
//          [--wal-dir=DIR] [--wal-shards=N]
//          [--wal-sync=none|interval|group]
//          [--checkpoint-interval=SEC] [--checkpoint-mode=full|delta]
//          [--checkpoint-rebase-every=N] [--compact-interval=SEC]
//          [--wal-retain=SEC]
//          [--wal-append-sample=N] [--follow=HOST:PORT]
//          [--trace-ring=N] [--trace-slow-ms=MS] [--trace-sample=N]
//          [--topk-cache=N] [--topk-cache-admission=always|frequency]
//          [--compressed-index] [--postings-seal=N]
//
// The `snapshot` verb is disabled unless --snapshot-root names a base
// directory; client-supplied targets are then confined under it.
//
// With --wal-dir, every ingest verb is written ahead to a durable log
// (src/wal) before it executes, and startup runs crash recovery: the
// newest checkpoint under the log directory is restored and the log tail
// replayed (a torn final record is cut). --wal-sync picks the durability
// policy (default group: acked ingests are on disk, one fdatasync per
// event-loop batch). --checkpoint-interval takes periodic coordinated
// checkpoints (the `checkpoint` admin verb does one on demand);
// --wal-retain bounds how much replay history survives a checkpoint
// (default: keep everything — exact analysis-window recovery).
// --checkpoint-mode=delta switches to incremental delta-chain snapshots
// (DESIGN.md §17): each checkpoint writes only the shard snapshots whose
// content changed, bounding the save pause by churn rather than total
// state size; --checkpoint-rebase-every=N (default 8) forces a full
// rebase generation every N saves to bound the chain recovery resolves.
// --compact-interval=SEC periodically rewrites sealed WAL segments
// dropping superseded ad-inventory records (the `compact` admin verb
// does one on demand); segments a connected follower still needs are
// preserved.
//
// With --follow=HOST:PORT (requires --wal-dir), the daemon runs as a
// READ REPLICA of the adrecd at that address: it recovers its local log
// as usual, then streams the leader's WAL tail from where its own log
// ends, writing each record to its own log before applying it. Write
// verbs answer `READONLY`; queries serve from replicated state. The
// `promote` admin verb detaches from the leader, seals the local log and
// starts accepting writes (DESIGN.md §12).
//
// Request tracing (the flight recorder, DESIGN.md §13) is always on:
// every request gets a span tree (serve dispatch -> engine stages -> WAL
// commit wave; replica apply on a follower), retained tail-based —
// errors/sheds and requests slower than --trace-slow-ms (default 10) are
// pinned, the rest sampled 1-in---trace-sample (default 16) — in a
// --trace-ring-slot ring (default 512; 0 disables tracing). Inspect with
// the `trace` (TSV or Chrome JSON), `slow` and `conns` admin verbs, or
// `adrec_tool trace`. --wal-append-sample tunes the wal.append_us timer
// sampling rate (default 16, 0 off).
//
// --topk-cache=N turns on the stream-clock-invalidated topk result cache
// (DESIGN.md §14) with room for N entries (default 0 = off). Cached
// replies are byte-identical to recomputed ones: every ingest (local or
// replicated) evicts the entries it could influence, and hits revalidate
// and charge budgets/frequency caps through the engine. Eviction is LRU;
// --topk-cache-admission picks the fill gate (default `frequency`, a
// doorkeeper that admits a key under pressure only on repeat sighting;
// `always` admits everything). Watch cache.{hits,misses,invalidations,
// evictions} and cache.hit_ratio via the `metrics` verb.
//
// --compressed-index serves ad queries from the compressed posting-list
// inventory index (DESIGN.md §15) instead of the uncompressed AdIndex;
// results are byte-identical, memory is not. --postings-seal=N sets the
// delta-index size that triggers an epoch seal (default 1024). Watch
// postings.{bytes,lists,epochs,delta_ads,sealed_ads,pruned_ratio} and
// index.{ads,postings_bytes} via the `metrics` verb.
//
// Multi-core serving (DESIGN.md §16): --workers=N (default = the shard
// count) runs N shard-affine event-loop workers behind one acceptor
// thread — worker `w` owns the engine shards `s % N == w` and runs the
// full single-threaded machinery over its own connections; cross-shard
// ops forward through lock-free mailboxes, rare admin verbs stop the
// world. --workers=1 is the classic single-threaded server. With a WAL,
// multi-worker mode requires --wal-shards equal to --shards so every
// worker commits, checkpoints and recovers its own log streams
// (wal/<shard>/wal-<seqno>.log); --wal-shards also works with
// --workers=1 (parallel recovery, per-stream replication) and defaults
// to 1 (the flat single-stream layout). --topk-cache is incompatible
// with --workers>1. With --follow and --wal-shards=N>1, the daemon runs
// one replication stream per shard (`repl <shard> <cursor>`), each
// applied by the worker owning that shard.
//
// With --dir, the knowledge base is loaded from DIR/kb.tsv and, when
// present, DIR/ads.tsv and DIR/trace.tsv are preloaded into the engine
// (so the daemon starts warm). Without --dir, a synthetic case-study
// knowledge base is generated — enough to serve the wire protocol
// end-to-end with no files on disk.
//
// Prints `adrecd listening on <host>:<port>` once ready (the smoke test
// and the bench harness parse this line), then serves until SIGTERM or
// SIGINT, which trigger a graceful drain: stop accepting, flush pending
// responses, exit 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include <vector>

#include "annotate/kb_io.h"
#include "annotate/knowledge_base.h"
#include "core/sharded_engine.h"
#include "obs/trace.h"
#include "feed/trace_io.h"
#include "replica/follower.h"
#include "serve/pool/pool_server.h"
#include "serve/server.h"
#include "wal/checkpoint.h"
#include "wal/sharded_wal.h"
#include "wal/wal.h"

namespace {

adrec::serve::Server* g_server = nullptr;
adrec::serve::pool::PoolServer* g_pool = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->RequestDrain();
  if (g_pool != nullptr) g_pool->RequestDrain();
}

bool FlagValue(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7311;
  size_t shards = 1;
  size_t workers = 0;  // 0 = default to the shard count
  size_t wal_shards = 1;
  std::string dir;
  double alpha = -1.0;
  std::string wal_dir;
  std::string follow;
  adrec::wal::WalOptions wal_opts;
  adrec::wal::CheckpointOptions ckpt_opts;
  adrec::serve::ServerOptions options;
  adrec::obs::TraceCollectorOptions trace_opts;
  bool compressed_index = false;
  adrec::postings::PostingsOptions postings_opts;

  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (FlagValue(argv[i], "--port", &v)) {
      port = static_cast<uint16_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--shards", &v)) {
      shards = static_cast<size_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--workers", &v)) {
      workers = static_cast<size_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--wal-shards", &v)) {
      wal_shards = static_cast<size_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--dir", &v)) {
      dir = v;
    } else if (FlagValue(argv[i], "--alpha", &v)) {
      alpha = std::atof(v);
    } else if (FlagValue(argv[i], "--report-interval", &v)) {
      options.report_interval = std::atof(v);
    } else if (FlagValue(argv[i], "--max-connections", &v)) {
      options.max_connections = static_cast<size_t>(std::atoi(v));
    } else if (FlagValue(argv[i], "--idle-timeout", &v)) {
      options.idle_timeout = std::atoll(v);
    } else if (FlagValue(argv[i], "--snapshot-root", &v)) {
      options.snapshot_root = v;
    } else if (FlagValue(argv[i], "--wal-dir", &v)) {
      wal_dir = v;
    } else if (FlagValue(argv[i], "--wal-sync", &v)) {
      auto policy = adrec::wal::ParseSyncPolicy(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "--wal-sync: %s\n",
                     policy.status().ToString().c_str());
        return 2;
      }
      wal_opts.sync = policy.value();
    } else if (FlagValue(argv[i], "--checkpoint-interval", &v)) {
      options.checkpoint_interval = std::atof(v);
    } else if (FlagValue(argv[i], "--checkpoint-mode", &v)) {
      auto mode = adrec::wal::ParseCheckpointMode(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "--checkpoint-mode: %s\n",
                     mode.status().ToString().c_str());
        return 2;
      }
      ckpt_opts.mode = mode.value();
    } else if (FlagValue(argv[i], "--checkpoint-rebase-every", &v)) {
      ckpt_opts.rebase_every = static_cast<size_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--compact-interval", &v)) {
      options.compact_interval = std::atof(v);
    } else if (FlagValue(argv[i], "--wal-retain", &v)) {
      ckpt_opts.analysis_retention = std::atoll(v);
    } else if (FlagValue(argv[i], "--wal-append-sample", &v)) {
      wal_opts.append_sample_every =
          static_cast<uint64_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--follow", &v)) {
      follow = v;
    } else if (FlagValue(argv[i], "--trace-ring", &v)) {
      trace_opts.ring_slots = static_cast<size_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--trace-slow-ms", &v)) {
      trace_opts.slow_us = std::atof(v) * 1000.0;
    } else if (FlagValue(argv[i], "--trace-sample", &v)) {
      trace_opts.sample_every = static_cast<uint64_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--topk-cache", &v)) {
      options.topk_cache.capacity = static_cast<size_t>(std::atoll(v));
    } else if (FlagValue(argv[i], "--topk-cache-admission", &v)) {
      if (std::strcmp(v, "always") == 0) {
        options.topk_cache.admission =
            adrec::cache::TopkCacheOptions::Admission::kAlways;
      } else if (std::strcmp(v, "frequency") == 0) {
        options.topk_cache.admission =
            adrec::cache::TopkCacheOptions::Admission::kFrequency;
      } else {
        std::fprintf(stderr,
                     "--topk-cache-admission: want always|frequency\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--compressed-index") == 0) {
      compressed_index = true;
    } else if (FlagValue(argv[i], "--postings-seal", &v)) {
      postings_opts.seal_threshold = static_cast<size_t>(std::atoll(v));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--port=N] [--shards=N] [--workers=N] "
                   "[--dir=DIR] "
                   "[--alpha=A] [--report-interval=SEC] "
                   "[--max-connections=N] [--idle-timeout=SEC] "
                   "[--snapshot-root=DIR] [--wal-dir=DIR] "
                   "[--wal-shards=N] "
                   "[--wal-sync=none|interval|group] "
                   "[--checkpoint-interval=SEC] "
                   "[--checkpoint-mode=full|delta] "
                   "[--checkpoint-rebase-every=N] "
                   "[--compact-interval=SEC] [--wal-retain=SEC] "
                   "[--wal-append-sample=N] [--follow=HOST:PORT] "
                   "[--trace-ring=N] [--trace-slow-ms=MS] "
                   "[--trace-sample=N] [--topk-cache=N] "
                   "[--topk-cache-admission=always|frequency] "
                   "[--compressed-index] [--postings-seal=N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (shards == 0) shards = 1;
  if (workers == 0) workers = shards;  // shard-affine by default
  if (wal_shards == 0) wal_shards = 1;
  if (wal_shards != 1 && wal_shards != shards) {
    std::fprintf(stderr,
                 "--wal-shards must be 1 (single stream) or equal "
                 "--shards (%zu), got %zu\n",
                 shards, wal_shards);
    return 2;
  }
  if (workers > 1 && !wal_dir.empty() && wal_shards != shards) {
    std::fprintf(stderr,
                 "--workers=%zu with a WAL requires --wal-shards=%zu "
                 "(one log stream per shard; a single shared stream "
                 "would serialise every worker's commit barrier)\n",
                 workers, shards);
    return 2;
  }
  if (workers > 1 && options.topk_cache.capacity > 0) {
    std::fprintf(stderr,
                 "--topk-cache is incompatible with --workers>1 (the "
                 "cache is invalidated by pool-wide ingest; see "
                 "DESIGN.md §16)\n");
    return 2;
  }
  wal_opts.shards = wal_shards;
  options.port = port;

  // The flight recorder: always on unless --trace-ring=0. The collector
  // outlives the server and the follower, both of which hold a pointer.
  adrec::obs::TraceCollector tracer(trace_opts);
  options.tracer = &tracer;

  adrec::replica::FollowerOptions follow_opts;
  if (!follow.empty()) {
    if (wal_dir.empty()) {
      std::fprintf(stderr,
                   "--follow requires --wal-dir (the follower logs every "
                   "replicated record before applying it)\n");
      return 2;
    }
    const size_t colon = follow.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == follow.size()) {
      std::fprintf(stderr, "--follow wants HOST:PORT, got '%s'\n",
                   follow.c_str());
      return 2;
    }
    follow_opts.host = follow.substr(0, colon);
    follow_opts.port =
        static_cast<uint16_t>(std::atoi(follow.c_str() + colon + 1));
  }

  // Knowledge base: from --dir when given, synthetic otherwise.
  std::shared_ptr<adrec::annotate::KnowledgeBase> kb;
  auto analyzer = std::make_shared<adrec::text::Analyzer>();
  if (!dir.empty()) {
    auto loaded =
        adrec::annotate::ReadKnowledgeBase(dir + "/kb.tsv", analyzer.get());
    if (!loaded.ok()) {
      std::fprintf(stderr, "kb: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    kb = std::shared_ptr<adrec::annotate::KnowledgeBase>(
        std::move(loaded).value().release());
  } else {
    // The case-study KB GenerateWorkload builds, bound to `analyzer`: the
    // KB does not own its analyzer, so it must not come from a temporary
    // Workload (whose analyzer dies with it).
    kb = std::shared_ptr<adrec::annotate::KnowledgeBase>(
        adrec::annotate::BuildDemoKnowledgeBase(analyzer.get()));
  }

  adrec::core::EngineOptions engine_opts;
  if (alpha >= 0.0) engine_opts.alpha = alpha;
  engine_opts.compressed_index = compressed_index;
  engine_opts.postings = postings_opts;
  adrec::core::ShardedEngine engine(
      kb, adrec::timeline::TimeSlotScheme::PaperScheme(), shards,
      engine_opts);

  // Warm start: preload the inventory and trace when the files exist.
  if (!dir.empty()) {
    if (std::filesystem::exists(dir + "/ads.tsv")) {
      auto ads = adrec::feed::ReadAds(dir + "/ads.tsv");
      if (!ads.ok()) {
        std::fprintf(stderr, "ads: %s\n", ads.status().ToString().c_str());
        return 1;
      }
      for (const auto& ad : ads.value()) {
        if (auto s = engine.InsertAd(ad); !s.ok()) {
          std::fprintf(stderr, "insert ad %u: %s\n", ad.id.value,
                       s.ToString().c_str());
          return 1;
        }
      }
      std::printf("adrecd preloaded %zu ads\n", ads.value().size());
    }
    if (std::filesystem::exists(dir + "/trace.tsv")) {
      auto trace = adrec::feed::ReadTrace(dir + "/trace.tsv");
      if (!trace.ok()) {
        std::fprintf(stderr, "trace: %s\n",
                     trace.status().ToString().c_str());
        return 1;
      }
      for (const auto& c : trace.value().check_ins) engine.OnCheckIn(c);
      for (const auto& t : trace.value().tweets) engine.OnTweet(t);
      std::printf("adrecd preloaded %zu tweets, %zu check-ins\n",
                  trace.value().tweets.size(),
                  trace.value().check_ins.size());
    }
  }

  // Durability: recover from the WAL (checkpoint + tail replay), then
  // open the writer at the first unused seqno. Recovery runs after the
  // warm preload, so a preloaded inventory that was also checkpointed or
  // logged re-applies idempotently (AlreadyExists is tolerated).
  std::unique_ptr<adrec::wal::CheckpointManager> checkpointer;
  std::unique_ptr<adrec::wal::WalWriter> wal;
  std::unique_ptr<adrec::wal::ShardedWal> sharded_wal;
  adrec::Timestamp recovered_stream_time = 0;
  if (!wal_dir.empty()) {
    checkpointer =
        std::make_unique<adrec::wal::CheckpointManager>(wal_dir, ckpt_opts);
    // Sharded recovery replays every stream concurrently (one thread per
    // shard); wal_shards == 1 is the classic single-stream path.
    auto recovered = checkpointer->Recover(&engine, wal_shards);
    if (!recovered.ok()) {
      std::fprintf(stderr, "wal recover: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    const adrec::wal::RecoveryResult& r = recovered.value();
    std::printf(
        "adrecd recovered from %s: checkpoint_seqno=%llu next_seqno=%llu "
        "window_replayed=%zu live_replayed=%zu torn_bytes=%llu "
        "streams=%zu\n",
        r.from_delta ? "delta-checkpoint+wal"
                     : (r.from_checkpoint ? "checkpoint+wal" : "wal"),
        static_cast<unsigned long long>(r.checkpoint_seqno),
        static_cast<unsigned long long>(r.next_seqno), r.window_replayed,
        r.live_replayed,
        static_cast<unsigned long long>(r.torn_bytes_truncated),
        wal_shards);
    if (wal_shards > 1) {
      auto opened = adrec::wal::ShardedWal::Open(wal_dir, wal_opts,
                                                 r.stream_next_seqnos);
      if (!opened.ok()) {
        std::fprintf(stderr, "wal open: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      sharded_wal = std::move(opened).value();
      options.sharded_wal = sharded_wal.get();
    } else {
      auto opened =
          adrec::wal::WalWriter::Open(wal_dir, wal_opts, r.next_seqno);
      if (!opened.ok()) {
        std::fprintf(stderr, "wal open: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      wal = std::move(opened).value();
      options.wal = wal.get();
    }
    options.checkpointer = checkpointer.get();
    recovered_stream_time = r.max_event_time;
  }

  // Follower mode: replicate the leader's WAL tail from where the local
  // (just-recovered) log ends. The Follower runs inside the server's
  // event loop; the server starts read-only until `promote`.
  std::vector<std::unique_ptr<adrec::replica::Follower>> followers;
  if (!follow.empty()) {
    follow_opts.tracer = &tracer;
    if (wal_shards > 1) {
      // One replication stream per shard: follower `s` handshakes
      // `repl <s> <cursor>`, logs into its own stream and applies only
      // to engine shard `s` (the worker owning the shard polls it).
      options.followers.assign(wal_shards, nullptr);
      for (size_t s = 0; s < wal_shards; ++s) {
        adrec::replica::FollowerOptions fo = follow_opts;
        fo.shard = s;
        followers.push_back(std::make_unique<adrec::replica::Follower>(
            &engine, sharded_wal->stream(s), fo));
        options.followers[s] = followers.back().get();
      }
      std::printf(
          "adrecd following %s:%u with %zu shard streams (read-only)\n",
          follow_opts.host.c_str(), follow_opts.port, wal_shards);
    } else {
      followers.push_back(std::make_unique<adrec::replica::Follower>(
          &engine, wal.get(), follow_opts));
      options.follower = followers.back().get();
      std::printf("adrecd following %s:%u from cursor %llu (read-only)\n",
                  follow_opts.host.c_str(), follow_opts.port,
                  static_cast<unsigned long long>(wal->last_seqno()));
    }
  }

  std::signal(SIGPIPE, SIG_IGN);
  if (workers > 1) {
    adrec::serve::pool::PoolServer pool(&engine, options, workers);
    if (recovered_stream_time > 0) {
      pool.SeedStreamClock(recovered_stream_time);
    }
    if (auto s = pool.Start(); !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return 1;
    }
    g_pool = &pool;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    std::printf("adrecd listening on %s:%u (%zu shard%s, %zu workers)\n",
                options.host.c_str(), pool.port(), shards,
                shards == 1 ? "" : "s", workers);
    std::fflush(stdout);
    pool.Run();
    g_pool = nullptr;
  } else {
    adrec::serve::Server server(&engine, options);
    // Resume the stream clock where the recovered trace left off, so the
    // analysis window and ad expiry pick up where the crashed run was.
    if (recovered_stream_time > 0) {
      server.SeedStreamClock(recovered_stream_time);
    }
    if (auto s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return 1;
    }
    g_server = &server;
    std::signal(SIGTERM, HandleSignal);
    std::signal(SIGINT, HandleSignal);
    std::printf("adrecd listening on %s:%u (%zu shard%s)\n",
                options.host.c_str(), server.port(), shards,
                shards == 1 ? "" : "s");
    std::fflush(stdout);
    server.Run();
    g_server = nullptr;
  }
  std::printf("adrecd drained, exiting\n");
  return 0;
}
