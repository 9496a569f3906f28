#include "gen.h"

#include <algorithm>
#include <set>

#include "annotate/kb_io.h"
#include "common/random.h"
#include "feed/trace_io.h"
#include "feed/workload.h"
#include "serve/protocol.h"

namespace perfbench {

namespace {

using adrec::AdId;
using adrec::Timestamp;
using adrec::UserId;
using adrec::feed::FeedEvent;

constexpr Timestamp kDay = 86400;

// Each workload has one world (knowledge base, users, ads, history),
// generated from a fixed seed; --seed draws the traffic over it: where
// in the held-out stream the load starts, which users act and which
// texts they send. Runs of different seeds then differ in their sample
// of the traffic, not in the size and shape of the data.
constexpr uint64_t kHotWorld = 20160516;
constexpr uint64_t kColdWorld = 20160517;
constexpr uint64_t kChurnWorld = 20160518;

// The generator's events after `split` replayed in time order, cycled
// with a time shift once exhausted so any op count can be served.
class HeldOut {
 public:
  HeldOut(std::vector<FeedEvent> events, Timestamp span)
      : events_(std::move(events)), span_(span) {}
  size_t size() const { return events_.size(); }
  void Seek(size_t pos) { pos_ = pos % events_.size(); }
  FeedEvent Next() {
    FeedEvent ev = events_[pos_];
    const Timestamp shift = static_cast<Timestamp>(cycle_) * span_;
    ev.time += shift;
    ev.tweet.time += shift;
    ev.check_in.time += shift;
    if (++pos_ == events_.size()) {
      pos_ = 0;
      ++cycle_;
    }
    return ev;
  }

 private:
  std::vector<FeedEvent> events_;
  Timestamp span_;
  size_t pos_ = 0;
  size_t cycle_ = 0;
};

Op TweetOp(uint32_t user, Timestamp time, const std::string& text) {
  adrec::feed::Tweet t;
  t.user = UserId(user);
  t.time = time;
  t.text = text;
  return {OpKind::kTweet, user, adrec::serve::FormatTweetCmd(t)};
}

Op CheckInOp(uint32_t user, Timestamp time, adrec::LocationId loc) {
  adrec::feed::CheckIn c;
  c.user = UserId(user);
  c.time = time;
  c.location = loc;
  return {OpKind::kCheckIn, user, adrec::serve::FormatCheckInCmd(c)};
}

// Splits the generated trace at `split`: earlier events are preloaded,
// later ones feed the load phase.
HeldOut SplitTrace(const adrec::feed::Workload& w, Timestamp split,
                   Inputs* out) {
  std::vector<FeedEvent> later;
  for (const FeedEvent& ev : w.MergedEvents()) {
    if (ev.time < split) {
      if (ev.kind == adrec::feed::EventKind::kTweet) {
        out->tweets.push_back(ev.tweet);
      } else {
        out->check_ins.push_back(ev.check_in);
      }
    } else {
      later.push_back(ev);
    }
  }
  const Timestamp span =
      static_cast<Timestamp>(w.options.days) * kDay - split + kDay;
  return HeldOut(std::move(later), span);
}

std::vector<std::string> HeldOutTexts(const adrec::feed::Workload& w,
                                      Timestamp split) {
  std::vector<std::string> texts;
  for (const auto& t : w.tweets) {
    if (t.time >= split) texts.push_back(t.text);
  }
  return texts;
}

// feed_hot and feed_cold: a live feed whose event clock advances one
// second per second of the fixed-rate schedule.
void GenerateFeed(bool hot, uint64_t seed, double rate, size_t fixed_ops,
                  size_t extra_ops, Inputs* out) {
  adrec::feed::WorkloadOptions wo;
  wo.seed = hot ? kHotWorld : kColdWorld;
  wo.num_users = hot ? 2000 : 4000;
  wo.num_places = hot ? 40 : 60;
  wo.num_ads = hot ? 1500 : 10000;
  wo.days = hot ? 4 : 2;
  wo.tweets_per_user_day = 3.0;
  wo.checkins_per_user_day = 1.5;
  const adrec::feed::Workload w = adrec::feed::GenerateWorkload(wo);
  out->kb = w.kb;
  out->ads = w.ads;
  const Timestamp split = (hot ? 2 : 1) * kDay;
  HeldOut held = SplitTrace(w, split, out);
  const std::vector<std::string> texts = HeldOutTexts(w, split);

  // feed_cold spreads users over 12x the topk cache; only the first
  // num_users of them have a preloaded history.
  const uint32_t user_space = static_cast<uint32_t>(
      hot ? static_cast<size_t>(wo.num_users) : 12 * kTopkCache);
  // Probe users never issue a load-phase topk, so their frequency caps
  // hold no state that depends on how connections interleave.
  auto is_probe = [](uint32_t u) { return u % 50 == 49; };
  std::vector<uint32_t> queryable;
  for (uint32_t u = 0; u < user_space; ++u) {
    if (!is_probe(u)) queryable.push_back(u);
  }
  adrec::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  const size_t text_base = rng.NextBounded(texts.size());
  const adrec::ZipfSampler zipf_all(wo.num_users, 0.99);
  const adrec::ZipfSampler zipf_query(
      hot ? queryable.size() : 1, 0.99);
  const double ingest_share = hot ? 0.05 : 0.10;
  // One event-clock second per ten seconds of the fixed-rate schedule.
  // A time-less topk is keyed by the stream clock, so each tick misses
  // every user's cached feed once; at this pace feed_hot's hit ratio sits
  // well above one half, and its p50 inside the hit mode.
  const uint64_t ops_per_tick = std::max<uint64_t>(1, uint64_t(10 * rate));
  size_t text_pos = text_base;
  // The live clock starts at 14:00 of the first held-out day, inside the
  // paper scheme's busiest slot (13:00-20:00). Extra ops run the same
  // slot a day earlier, so the bursts and probes interleaved with the
  // fixed-rate segments never move the stream clock those run under.
  auto clock = [&](size_t i) {
    const Timestamp base = split + 14 * 3600 - (i < fixed_ops ? 0 : kDay);
    const size_t pos = i < fixed_ops ? i : i - fixed_ops;
    return base + static_cast<Timestamp>(pos / ops_per_tick);
  };
  for (size_t i = 0; i < fixed_ops + extra_ops; ++i) {
    std::vector<Op>& list = i < fixed_ops ? out->fixed : out->extra;
    if (rng.NextDouble() < ingest_share) {
      // Any held-out event, re-timed: a contiguous stretch would carry
      // one hour's check-in cells, and those set how many cached feeds
      // each check-in invalidates.
      held.Seek(rng.NextBounded(held.size()));
      const FeedEvent ev = held.Next();
      const uint32_t user =
          hot ? static_cast<uint32_t>(zipf_all.Sample(rng))
              : static_cast<uint32_t>(rng.NextBounded(user_space));
      if (ev.kind == adrec::feed::EventKind::kTweet) {
        list.push_back(TweetOp(user, clock(i), ev.tweet.text));
      } else {
        list.push_back(CheckInOp(user, clock(i), ev.check_in.location));
      }
    } else if (hot) {
      const uint32_t user = queryable[zipf_query.Sample(rng)];
      list.push_back({OpKind::kTopK, user,
                      adrec::serve::FormatTopKCmd(UserId(user), 5)});
    } else {
      const uint32_t user = queryable[rng.NextBounded(queryable.size())];
      const std::string& text = texts[text_pos++ % texts.size()];
      list.push_back({OpKind::kTopK, user,
                      adrec::serve::FormatTopKCmd(UserId(user), 5, clock(i),
                                                  text)});
    }
  }
  const Timestamp probe_time = clock(fixed_ops - 1) + 60;
  for (uint32_t u = 0; u < wo.num_users; ++u) {
    if (!is_probe(u)) continue;
    out->probe_topk.push_back(adrec::serve::FormatTopKCmd(
        UserId(u), 5, probe_time,
        texts[(u * 7919u + text_base) % texts.size()]));
  }
  for (const auto& ad : w.ads) {
    out->known_ads.push_back(ad.id.value);
    out->stable_ads.push_back(ad.id.value);
  }
}

// ingest_churn: ~150 users' multi-day trace keeps its own event times;
// the load phase is mostly feed ingest plus inventory churn.
void GenerateChurn(uint64_t seed, size_t fixed_ops, size_t extra_ops,
                   Inputs* out) {
  adrec::feed::WorkloadOptions wo;
  wo.seed = kChurnWorld;
  wo.num_users = 150;
  wo.num_places = 29;
  wo.num_ads = 600;
  wo.days = 14;
  const adrec::feed::Workload w = adrec::feed::GenerateWorkload(wo);
  out->kb = w.kb;
  const Timestamp split = 7 * kDay;
  HeldOut held = SplitTrace(w, split, out);
  const size_t preloaded_ads = w.ads.size() / 2;
  // The starting inventory arrives as logged `adput`s, not ads.tsv: a
  // daemon whose --dir holds ads cannot restore a checkpoint (the
  // snapshot's ads collide with the preloaded ones), and this workload
  // checkpoints and restarts. TraceLayers reports that conflict.
  const std::vector<adrec::feed::Ad> pool(w.ads.begin() + preloaded_ads,
                                          w.ads.end());
  // Fixed ops churn `live`; extra ops only delete ads extra ops put, so
  // the ads of `stable` stay matchable all run.
  std::set<uint32_t> live, extra_live, stable;
  for (size_t i = 0; i < preloaded_ads; ++i) {
    out->inventory.push_back(
        {OpKind::kAdPut, 0, adrec::serve::FormatAdPutCmd(w.ads[i])});
    live.insert(w.ads[i].id.value);
    stable.insert(w.ads[i].id.value);
    out->known_ads.push_back(w.ads[i].id.value);
  }
  uint32_t next_id = static_cast<uint32_t>(w.ads.size());

  auto is_probe = [](uint32_t u) { return u % 10 == 9; };
  std::vector<uint32_t> queryable;
  for (uint32_t u = 0; u < wo.num_users; ++u) {
    if (!is_probe(u)) queryable.push_back(u);
  }
  adrec::Rng rng(seed ^ 0x2545f4914f6cdd1dull);
  held.Seek(rng.NextBounded(held.size()));
  size_t pool_pos = rng.NextBounded(pool.size());
  Timestamp last_time = split;
  const std::vector<std::string> texts = HeldOutTexts(w, split);
  const size_t text_base = rng.NextBounded(texts.size());
  for (size_t i = 0; i < fixed_ops + extra_ops; ++i) {
    std::vector<Op>& list = i < fixed_ops ? out->fixed : out->extra;
    if (i < fixed_ops && i > 0 && i % (fixed_ops / 4) == 0 &&
        i / (fixed_ops / 4) < 4) {
      list.push_back({OpKind::kCheckpoint, 0, "checkpoint"});
    }
    const bool fixed = i < fixed_ops;
    std::set<uint32_t>& churn = fixed ? live : extra_live;
    const double r = rng.NextDouble();
    if (r < 0.80) {
      const FeedEvent ev = held.Next();
      // Extra ops replay their time of day on the last preloaded day, so
      // they never move the stream clock of the fixed-rate segments.
      const Timestamp t =
          fixed ? ev.time : split - kDay + ev.time % kDay;
      if (fixed) last_time = t;
      if (ev.kind == adrec::feed::EventKind::kTweet) {
        list.push_back(TweetOp(ev.tweet.user.value, t, ev.tweet.text));
      } else {
        list.push_back(
            CheckInOp(ev.check_in.user.value, t, ev.check_in.location));
      }
    } else if (r < 0.95) {
      if (r < 0.90 || churn.size() <= (fixed ? 100 : 20)) {
        adrec::feed::Ad ad = pool[pool_pos++ % pool.size()];
        ad.id = AdId(next_id++);
        ad.budget_impressions = 0;
        list.push_back({OpKind::kAdPut, 0, adrec::serve::FormatAdPutCmd(ad)});
        out->known_ads.push_back(ad.id.value);
        churn.insert(ad.id.value);
      } else {
        auto it = churn.begin();
        std::advance(it, rng.NextBounded(churn.size()));
        list.push_back(
            {OpKind::kAdDel, 0, adrec::serve::FormatAdDelCmd(AdId(*it))});
        stable.erase(*it);
        churn.erase(it);
      }
    } else {
      const uint32_t user = queryable[rng.NextBounded(queryable.size())];
      list.push_back({OpKind::kTopK, user,
                      adrec::serve::FormatTopKCmd(UserId(user), 5)});
    }
  }
  out->stable_ads.assign(stable.begin(), stable.end());
  const Timestamp probe_time = last_time + 60;
  for (uint32_t u = 0; u < wo.num_users; ++u) {
    if (!is_probe(u)) continue;
    out->probe_topk.push_back(adrec::serve::FormatTopKCmd(
        UserId(u), 5, probe_time,
        texts[(u * 7919u + text_base) % texts.size()]));
  }
}

}  // namespace

bool Generate(const std::string& workload, uint64_t seed, double rate,
              size_t fixed_ops, size_t extra_ops, Inputs* out) {
  if (workload == "feed_hot" || workload == "feed_cold") {
    GenerateFeed(workload == "feed_hot", seed, rate, fixed_ops, extra_ops,
                 out);
  } else if (workload == "ingest_churn") {
    GenerateChurn(seed, fixed_ops, extra_ops, out);
  } else {
    return false;
  }
  out->warmup = out->fixed.size() / 10;
  for (size_t i = 0; i < out->stable_ads.size() && i < 10; ++i) {
    out->probe_match_ads.push_back(out->stable_ads[i]);
  }
  return true;
}

bool WriteInputFiles(const Inputs& in, const std::string& dir,
                     std::string* error) {
  adrec::Status s = adrec::annotate::WriteKnowledgeBase(dir + "/kb.tsv",
                                                        *in.kb);
  if (s.ok()) s = adrec::feed::WriteAds(dir + "/ads.tsv", in.ads);
  if (s.ok()) {
    s = adrec::feed::WriteTrace(dir + "/trace.tsv", in.tweets, in.check_ins);
  }
  if (!s.ok()) *error = s.ToString();
  return s.ok();
}

}  // namespace perfbench
