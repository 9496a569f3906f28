#include "layers.h"

#include <cstdio>
#include <filesystem>
#include <memory>

#include "annotate/kb_io.h"
#include "cache/topk_cache.h"
#include "common/string_util.h"
#include "core/sharded_engine.h"
#include "feed/trace_io.h"
#include "serve/protocol.h"
#include "wal/checkpoint.h"
#include "wal/wal.h"
#include "wire.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using adrec::core::ShardedEngine;

// The daemon's reply grammar (serve/server.cc): scores print as %.17g.
std::string FormatTopK(const std::vector<adrec::index::ScoredAd>& ads) {
  std::string out = adrec::StringFormat("ADS %zu\r\n", ads.size());
  for (const auto& sa : ads) {
    out += adrec::StringFormat("AD %u %.17g\r\n", sa.ad.value, sa.score);
  }
  return out + "END\r\n";
}

std::string FormatMatch(
    const adrec::Result<adrec::core::MatchResult>& match) {
  if (!match.ok()) {
    if (match.status().code() == adrec::StatusCode::kNotFound) {
      return "NOT_FOUND\r\n";
    }
    return "SERVER_ERROR " + match.status().ToString() + "\r\n";
  }
  std::string out =
      adrec::StringFormat("USERS %zu\r\n", match.value().users.size());
  for (const auto& mu : match.value().users) {
    out += adrec::StringFormat("USER %u %.17g\r\n", mu.user.value, mu.score);
  }
  return out + "END\r\n";
}

double Seconds(int64_t from, int64_t to) { return (to - from) / 1e9; }

// An engine loaded from the input files exactly as adrecd's --dir
// warm start does: knowledge base, then ads, then check-ins, then tweets.
struct Loaded {
  std::shared_ptr<adrec::text::Analyzer> analyzer =
      std::make_shared<adrec::text::Analyzer>();
  std::unique_ptr<ShardedEngine> engine;
  double kb_s = 0, ads_s = 0, trace_s = 0;

  bool Load(const std::string& dir, std::string* error) {
    int64_t t0 = NowNs();
    auto kb = adrec::annotate::ReadKnowledgeBase(dir + "/kb.tsv",
                                                 analyzer.get());
    if (!kb.ok()) {
      *error = kb.status().ToString();
      return false;
    }
    engine = std::make_unique<ShardedEngine>(
        std::shared_ptr<adrec::annotate::KnowledgeBase>(
            std::move(kb).value().release()),
        adrec::timeline::TimeSlotScheme::PaperScheme(), 1);
    int64_t t1 = NowNs();
    kb_s = Seconds(t0, t1);
    auto ads = adrec::feed::ReadAds(dir + "/ads.tsv");
    if (!ads.ok()) {
      *error = ads.status().ToString();
      return false;
    }
    for (const auto& ad : ads.value()) {
      if (auto s = engine->InsertAd(ad); !s.ok()) {
        *error = s.ToString();
        return false;
      }
    }
    int64_t t2 = NowNs();
    ads_s = Seconds(t1, t2);
    auto trace = adrec::feed::ReadTrace(dir + "/trace.tsv");
    if (!trace.ok()) {
      *error = trace.status().ToString();
      return false;
    }
    for (const auto& c : trace.value().check_ins) engine->OnCheckIn(c);
    for (const auto& t : trace.value().tweets) engine->OnTweet(t);
    trace_s = Seconds(t2, NowNs());
    return true;
  }
};

bool ApplyWrite(ShardedEngine* engine, const std::string& line,
                std::string* error) {
  auto req = adrec::serve::ParseRequest(line);
  if (!req.ok()) {
    *error = req.status().ToString();
    return false;
  }
  using adrec::serve::Verb;
  switch (req.value().verb) {
    case Verb::kTweet:
      engine->OnTweet(req.value().tweet);
      return true;
    case Verb::kCheckIn:
      engine->OnCheckIn(req.value().check_in);
      return true;
    case Verb::kAdPut:
      return engine->InsertAd(req.value().ad).ok();
    case Verb::kAdDel:
      return engine->RemoveAd(req.value().ad_id).ok();
    default:
      return true;
  }
}

// Mean of a running sum.
struct Acc {
  double sum = 0;
  size_t n = 0;
  void Add(double v) {
    sum += v;
    ++n;
  }
  double mean() const { return n ? sum / n : 0.0; }
};

}  // namespace

bool ReferenceProbes(const Inputs& in, const std::string& in_dir,
                     const std::vector<OpRange>& sent,
                     const std::string& recover_dir, ProbeReplies* out,
                     std::string* error) {
  Loaded ref;
  if (!ref.Load(in_dir, error)) return false;
  if (recover_dir.empty()) {
    std::vector<OpRange> all = {{&in.inventory, 0, in.inventory.size()}};
    all.insert(all.end(), sent.begin(), sent.end());
    for (const OpRange& range : all) {
      for (size_t i = range.begin; i < range.end; ++i) {
        const Op& op = (*range.ops)[i];
        if (IsWrite(op.kind) &&
            !ApplyWrite(ref.engine.get(), op.line, error)) {
          *error = "reference apply `" + op.line.substr(0, 60) + "`: " +
                   *error;
          return false;
        }
      }
    }
  } else {
    adrec::wal::CheckpointManager manager(recover_dir);
    auto r = manager.Recover(ref.engine.get(), 1);
    if (!r.ok()) {
      *error = "reference recover: " + r.status().ToString();
      return false;
    }
  }
  for (const std::string& line : in.probe_topk) {
    auto req = adrec::serve::ParseRequest(line);
    if (!req.ok()) {
      *error = req.status().ToString();
      return false;
    }
    out->topk.push_back(FormatTopK(
        ref.engine->TopKAdsForTweet(req.value().tweet, req.value().k)));
  }
  if (auto s = ref.engine->RunAnalysis(); !s.ok()) {
    *error = "reference analysis: " + s.ToString();
    return false;
  }
  for (uint32_t ad : in.probe_match_ads) {
    out->match.push_back(FormatMatch(ref.engine->RecommendUsers(adrec::AdId(ad))));
  }
  return true;
}

std::map<std::string, LayerValue> TraceLayers(const Inputs& in,
                                             const std::string& in_dir,
                                             const std::string& wal_copy,
                                             const std::string& scratch,
                                             double records_per_commit,
                                             SpanLog* log) {
  std::map<std::string, LayerValue> m;
  std::string error;
  Loaded model;
  if (!model.Load(in_dir, &error)) {
    std::fprintf(stderr, "replay load: %s\n", error.c_str());
    return m;
  }
  m["setup.kb_load_s"] = {model.kb_s, "s", 1};
  m["setup.ads_s"] = {model.ads_s, "s", in.ads.size()};
  m["setup.trace_s"] = {model.trace_s, "s",
                        in.tweets.size() + in.check_ins.size()};

  // The daemon's serving path, rebuilt from public functions: parse,
  // cache, engine, WAL — with the daemon's cache size and WAL defaults.
  ShardedEngine& engine = *model.engine;
  const adrec::core::RecommendationEngine& shard = engine.shard(0);
  for (const Op& op : in.inventory) (void)ApplyWrite(&engine, op.line, &error);
  adrec::cache::TopkCacheOptions copts;
  copts.capacity = kTopkCache;
  adrec::cache::TopkCache cache(copts);
  auto wal_or = adrec::wal::WalWriter::Open(scratch + "/wal",
                                            adrec::wal::WalOptions{}, 1);
  if (!wal_or.ok()) {
    std::fprintf(stderr, "replay wal: %s\n",
                 wal_or.status().ToString().c_str());
    return m;
  }
  std::unique_ptr<adrec::wal::WalWriter> wal = std::move(wal_or).value();
  const size_t group = std::max<size_t>(1, size_t(records_per_commit + 0.5));

  // annotate_us covers topk and tweet texts; annotate_topk_us only the
  // former, which TopKAdsForTweet's time includes.
  Acc parse_ns, lookup_ns, insert_ns, topk_us, topk_self_us, charge_us,
      format_us, annotate_us, annotate_topk_us, mentions, postings,
      append_us, commit_us, invalidate_us, tweet_us, checkin_us, adput_us,
      addel_us;
  adrec::Timestamp stream_now = 0;
  size_t pending = 0;
  size_t writes = 0;
  for (size_t i = 0; i < in.fixed.size(); ++i) {
    const Op& op = in.fixed[i];
    if (op.kind == OpKind::kCheckpoint) continue;
    const uint32_t id = static_cast<uint32_t>(i);
    int64_t t = NowNs();
    const int32_t root = log->Begin("op", id, -1, t);
    int32_t s = log->Begin("serve.parse", id, root, t);
    auto parsed = adrec::serve::ParseRequest(op.line);
    int64_t e = NowNs();
    log->End(s, e);
    parse_ns.Add(double(e - t));
    if (!parsed.ok()) continue;
    const adrec::serve::Request& req = parsed.value();
    if (op.kind == OpKind::kTopK) {
      adrec::feed::Tweet query = req.tweet;
      if (!req.has_time) query.time = stream_now;
      adrec::cache::TopkKey key;
      key.user = query.user.value;
      key.time = query.time;
      key.k = static_cast<uint32_t>(req.k);
      key.text = query.text;
      t = NowNs();
      s = log->Begin("cache.lookup", id, root, t);
      adrec::cache::TopkCache::Entry* entry = cache.Find(key);
      e = NowNs();
      log->End(s, e);
      lookup_ns.Add(double(e - t));
      bool served = false;
      if (entry != nullptr) {
        t = NowNs();
        s = log->Begin("engine.charge", id, root, t);
        served = engine.ChargeCachedTopK(query, entry->ads);
        if (served) {
          cache.RecordHit(entry);
          if (!entry->ads.empty() && engine.frequency_cap_enabled()) {
            cache.OnUserCharged(query.user, key);
          }
        } else {
          cache.RecordRevalidationMiss(entry);
        }
        e = NowNs();
        log->End(s, e);
        charge_us.Add((e - t) / 1e3);
      } else {
        cache.RecordMiss();
      }
      if (!served) {
        t = NowNs();
        const int32_t es = log->Begin("engine.topk", id, root, t);
        const auto ads = engine.TopKAdsForTweet(query, req.k);
        e = NowNs();
        log->End(es, e);
        const double whole = (e - t) / 1e3;
        topk_us.Add(whole);
        postings.Add(double(shard.ad_index().last_postings_scanned()));
        // The annotation inside TopKAdsForTweet, timed alone on the same
        // text; the remainder is the engine's own (index + eligibility).
        t = NowNs();
        s = log->Begin("annotate", id, es, t);
        const size_t found = shard.semantic().annotator().Annotate(
            query.text).size();
        e = NowNs();
        log->End(s, e);
        annotate_us.Add((e - t) / 1e3);
        annotate_topk_us.Add((e - t) / 1e3);
        mentions.Add(double(found));
        topk_self_us.Add(whole - (e - t) / 1e3);
        t = NowNs();
        s = log->Begin("serve.format", id, root, t);
        std::string reply = FormatTopK(ads);
        e = NowNs();
        log->End(s, e);
        format_us.Add((e - t) / 1e3);
        t = NowNs();
        s = log->Begin("cache.insert", id, root, t);
        const adrec::core::TopkContext ctx = engine.TopkContextFor(query);
        std::vector<adrec::AdId> ids;
        for (const auto& sa : ads) ids.push_back(sa.ad);
        const bool charged = !ids.empty();
        cache.Insert(key, std::move(reply), std::move(ids), ctx.location,
                     ctx.slot);
        if (charged && engine.frequency_cap_enabled()) {
          cache.OnUserCharged(query.user, key);
        }
        e = NowNs();
        log->End(s, e);
        insert_ns.Add(double(e - t));
      }
    } else {
      ++writes;
      t = NowNs();
      s = log->Begin("wal.append", id, root, t);
      (void)wal->AppendDeferred(op.line);
      e = NowNs();
      log->End(s, e);
      append_us.Add((e - t) / 1e3);
      ++pending;
      // Cache fan-out first (an addel needs the ad's stored targeting).
      t = NowNs();
      s = log->Begin("cache.invalidate", id, root, t);
      switch (op.kind) {
        case OpKind::kTweet:
          cache.OnTweet(req.tweet.user);
          break;
        case OpKind::kCheckIn:
          cache.OnCheckIn(req.check_in.user, req.check_in.location);
          break;
        case OpKind::kAdPut:
          cache.OnAdPut(req.ad.target_locations, req.ad.target_slots);
          break;
        default:
          if (const auto* ad = engine.FindAd(req.ad_id)) {
            cache.OnAdRemoved(ad->ad.target_locations, ad->ad.target_slots);
          }
          break;
      }
      e = NowNs();
      log->End(s, e);
      invalidate_us.Add((e - t) / 1e3);
      t = NowNs();
      Acc* acc = &tweet_us;
      switch (op.kind) {
        case OpKind::kTweet:
          s = log->Begin("engine.tweet", id, root, t);
          engine.OnTweet(req.tweet);
          stream_now = std::max(stream_now, req.tweet.time);
          break;
        case OpKind::kCheckIn:
          s = log->Begin("engine.checkin", id, root, t);
          engine.OnCheckIn(req.check_in);
          stream_now = std::max(stream_now, req.check_in.time);
          acc = &checkin_us;
          break;
        case OpKind::kAdPut:
          s = log->Begin("engine.adput", id, root, t);
          (void)engine.InsertAd(req.ad);
          acc = &adput_us;
          break;
        default:
          s = log->Begin("engine.addel", id, root, t);
          (void)engine.RemoveAd(req.ad_id);
          acc = &addel_us;
          break;
      }
      e = NowNs();
      log->End(s, e);
      acc->Add((e - t) / 1e3);
      if (op.kind == OpKind::kTweet) {
        // The annotation inside OnTweet, timed alone on the same text.
        t = NowNs();
        const int32_t a = log->Begin("annotate", id, s, t);
        const size_t found =
            shard.semantic().annotator().Annotate(req.tweet.text).size();
        e = NowNs();
        log->End(a, e);
        annotate_us.Add((e - t) / 1e3);
        mentions.Add(double(found));
      }
      if (pending >= group) {
        t = NowNs();
        s = log->Begin("wal.commit", id, root, t);
        (void)wal->Commit();
        e = NowNs();
        log->End(s, e);
        commit_us.Add((e - t) / 1e3);
        pending = 0;
      }
    }
    log->End(root, NowNs());
  }
  (void)wal->Commit();

  m["serve.parse_ns"] = {parse_ns.mean(), "ns", parse_ns.n};
  m["cache.lookup_ns"] = {lookup_ns.mean(), "ns", lookup_ns.n};
  m["cache.insert_ns"] = {insert_ns.mean(), "ns", insert_ns.n};
  m["engine.topk_us"] = {topk_us.mean(), "us", topk_us.n};
  m["engine.topk_self_us"] = {topk_self_us.mean(), "us", topk_self_us.n};
  m["engine.tweet_us"] = {tweet_us.mean(), "us", tweet_us.n};
  m["engine.checkin_us"] = {checkin_us.mean(), "us", checkin_us.n};
  m["annotate.us_per_text"] = {annotate_us.mean(), "us", annotate_us.n};
  m["annotate.mentions_per_text"] = {mentions.mean(), "count", mentions.n};
  m["index.postings_scanned_per_query"] = {postings.mean(), "count",
                                           postings.n};

  // Where one topk's service time goes, per op (hits and misses
  // together), and the same for one acknowledged write.
  const double topks = double(lookup_ns.n);
  if (topks > 0) {
    const double parts[] = {
        parse_ns.mean() / 1e3,          lookup_ns.sum / 1e3 / topks,
        charge_us.sum / topks,          topk_self_us.sum / topks,
        annotate_topk_us.sum / topks,   format_us.sum / topks,
        insert_ns.sum / 1e3 / topks};
    const char* names[] = {"share.topk.serve_parse", "share.topk.cache_lookup",
                           "share.topk.engine_charge",
                           "share.topk.engine_self", "share.topk.annotate",
                           "share.topk.serve_format",
                           "share.topk.cache_insert"};
    double total = 0;
    for (double p : parts) total += p;
    for (size_t i = 0; i < 7; ++i) {
      m[names[i]] = {total > 0 ? parts[i] / total : 0, "frac", lookup_ns.n};
    }
  }
  if (writes > 0) {
    const double w = double(writes);
    const double engine_sum =
        tweet_us.sum + checkin_us.sum + adput_us.sum + addel_us.sum;
    const double parts[] = {parse_ns.mean() / 1e3, append_us.sum / w,
                            commit_us.sum / w, invalidate_us.sum / w,
                            engine_sum / w};
    const char* names[] = {"share.write.serve_parse", "share.write.wal_append",
                           "share.write.wal_commit",
                           "share.write.cache_invalidate",
                           "share.write.engine"};
    double total = 0;
    for (double p : parts) total += p;
    for (size_t i = 0; i < 5; ++i) {
      m[names[i]] = {total > 0 ? parts[i] / total : 0, "frac", writes};
    }
  }

  // Checkpoint of the replayed state, three times.
  adrec::wal::CheckpointManager manager(scratch + "/wal");
  std::vector<double> save_ms;
  const uint64_t bytes0 =
      manager.metrics().Snapshot().counters["checkpoint.bytes_written"];
  for (int i = 0; i < 3; ++i) {
    const int64_t t = NowNs();
    const int32_t s = log->Begin("checkpoint.save", 0, -1, t);
    (void)manager.Checkpoint(engine, wal.get(), stream_now);
    const int64_t e = NowNs();
    log->End(s, e);
    save_ms.push_back((e - t) / 1e6);
  }
  const uint64_t bytes1 =
      manager.metrics().Snapshot().counters["checkpoint.bytes_written"];
  m["checkpoint.save_ms"] = {Median(save_ms), "ms", save_ms.size()};
  m["checkpoint.bytes_written"] = {(bytes1 - bytes0) / 3.0, "B", 3};

  // A restart with the same --dir restores that checkpoint on top of the
  // warm-started inventory; 1 means the restore fails (the snapshot's ads
  // collide with ads.tsv), 0 that it succeeds.
  {
    std::error_code ec;
    fs::copy(scratch + "/wal", scratch + "/restore",
             fs::copy_options::recursive, ec);
    Loaded warm;
    bool restored = false;
    if (!ec && warm.Load(in_dir, &error)) {
      restored = adrec::wal::CheckpointManager(scratch + "/restore")
                     .Recover(warm.engine.get(), 1)
                     .ok();
    }
    m["checkpoint.restore_failures"] = {restored ? 0.0 : 1.0, "count", 1};
  }

  // Audience side: one analysis, then RecommendUsers for every live ad.
  (void)engine.RunAnalysis();
  const adrec::core::EngineStats stats = engine.Stats();
  m["tfca.triconcepts"] = {
      double(stats.location_triconcepts + stats.topic_triconcepts), "count",
      1};
  Acc match_us;
  for (uint32_t ad : in.stable_ads) {
    const int64_t t = NowNs();
    const int32_t s = log->Begin("match", ad, -1, t);
    (void)engine.RecommendUsers(adrec::AdId(ad));
    const int64_t e = NowNs();
    log->End(s, e);
    match_us.Add((e - t) / 1e3);
  }
  m["match.us"] = {match_us.mean(), "us", match_us.n};

  // Workloads without inventory churn still get an adput/addel cost:
  // remove and re-insert up to 200 live ads of the replayed state.
  if (adput_us.n == 0 || addel_us.n == 0) {
    for (size_t i = 0; i < in.stable_ads.size() && i < 200; ++i) {
      const auto* stored = engine.FindAd(adrec::AdId(in.stable_ads[i]));
      if (stored == nullptr) continue;
      const adrec::feed::Ad ad = stored->ad;
      int64_t t = NowNs();
      (void)engine.RemoveAd(ad.id);
      int64_t e = NowNs();
      addel_us.Add((e - t) / 1e3);
      t = NowNs();
      (void)engine.InsertAd(ad);
      e = NowNs();
      adput_us.Add((e - t) / 1e3);
    }
  }
  m["engine.adput_us"] = {adput_us.mean(), "us", adput_us.n};
  m["engine.addel_us"] = {addel_us.mean(), "us", addel_us.n};

  // WAL replay speed: the library's recovery on a copy of the killed
  // daemon's log, after the same warm start.
  const std::string copy = scratch + "/recover";
  std::error_code ec;
  fs::copy(wal_copy, copy, fs::copy_options::recursive, ec);
  Loaded fresh;
  if (!ec && fresh.Load(in_dir, &error)) {
    adrec::wal::CheckpointManager recover(copy);
    const int64_t t = NowNs();
    const int32_t s = log->Begin("wal.recover", 0, -1, t);
    auto r = recover.Recover(fresh.engine.get(), 1);
    const int64_t e = NowNs();
    log->End(s, e);
    if (r.ok()) {
      const double events =
          double(r.value().window_replayed + r.value().live_replayed);
      m["wal.replay_events_per_s"] = {events / Seconds(t, e), "1/s",
                                      size_t(events)};
    }
  }
  return m;
}

}  // namespace perfbench
