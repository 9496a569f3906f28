#include "core/snapshot.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <tuple>

#include "common/fs_util.h"
#include "common/string_util.h"
#include "feed/trace_io.h"

namespace adrec::core {

namespace {

constexpr std::string_view kProfilesFile = "snapshot_profiles.tsv";
constexpr std::string_view kAdsFile = "snapshot_ads.tsv";
constexpr std::string_view kImpressionsFile = "snapshot_impressions.tsv";
constexpr std::string_view kFreqCapFile = "snapshot_freqcap.tsv";
constexpr std::string_view kManifestFile = "snapshot_manifest.tsv";

std::string ProfilesPath(const std::string& dir) {
  return dir + "/" + std::string(kProfilesFile);
}
std::string AdsPath(const std::string& dir) {
  return dir + "/" + std::string(kAdsFile);
}
std::string ImpressionsPath(const std::string& dir) {
  return dir + "/" + std::string(kImpressionsFile);
}
std::string FreqCapPath(const std::string& dir) {
  return dir + "/" + std::string(kFreqCapFile);
}
std::string ManifestPath(const std::string& dir) {
  return dir + "/" + std::string(kManifestFile);
}

// %.17g round-trips IEEE doubles exactly through strtod, so a restored
// engine is *bit-identical* to the saved one — the property the testkit
// differential checker (single vs snapshot-restored engine) relies on.
std::string EncodeVector(const text::SparseVector& v) {
  std::string out;
  for (const text::SparseEntry& e : v.entries()) {
    if (!out.empty()) out += ';';
    out += StringFormat("%u:%.17g", e.id, e.weight);
  }
  return out.empty() ? "-" : out;
}

Result<text::SparseVector> DecodeVector(std::string_view field) {
  std::vector<text::SparseEntry> entries;
  if (field != "-") {
    for (std::string_view piece : SplitString(field, ';')) {
      const size_t colon = piece.find(':');
      if (colon == std::string_view::npos) {
        return Status::InvalidArgument("bad sparse entry");
      }
      const std::string id_str(piece.substr(0, colon));
      const std::string w_str(piece.substr(colon + 1));
      char* end = nullptr;
      const unsigned long id = std::strtoul(id_str.c_str(), &end, 10);
      if (end == id_str.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad sparse id");
      }
      end = nullptr;
      const double w = std::strtod(w_str.c_str(), &end);
      if (end == w_str.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad sparse weight");
      }
      entries.push_back({static_cast<uint32_t>(id), w});
    }
  }
  return text::SparseVector::FromUnsorted(std::move(entries));
}

}  // namespace

Result<std::vector<SnapshotFile>> SerializeEngineSnapshot(
    const RecommendationEngine& engine) {
  // Emission order is canonicalized everywhere below (sorted by id):
  // the underlying stores iterate hash maps or insertion order, and a
  // snapshot's bytes must not depend on either — byte-identical state
  // must produce byte-identical snapshot files (testkit determinism,
  // and the delta-checkpoint diff: an unchanged store must hash equal).

  std::vector<SnapshotFile> files;

  // --- Profiles + current locations. ---
  {
    std::ostringstream out;
    std::vector<std::pair<UserId, const profile::UserState*>> states;
    engine.profiles().ForEachState(
        [&](UserId user, const profile::UserState& state) {
          states.emplace_back(user, &state);
        });
    std::sort(states.begin(), states.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [user, state] : states) {
      out << "P\t" << user.value << '\t' << state->as_of << '\n';
      out << "I\t" << user.value << '\t' << EncodeVector(state->interests)
          << '\n';
      for (size_t slot = 0; slot < state->visits.size(); ++slot) {
        if (state->visits[slot].empty()) continue;
        std::vector<std::pair<uint32_t, double>> visits(
            state->visits[slot].begin(), state->visits[slot].end());
        std::sort(visits.begin(), visits.end());
        out << "V\t" << user.value << '\t' << slot << '\t';
        bool first = true;
        for (const auto& [loc, mass] : visits) {
          if (!first) out << ';';
          first = false;
          out << loc << ':' << StringFormat("%.17g", mass);
        }
        out << '\n';
      }
    }
    std::vector<std::pair<uint32_t, uint32_t>> locations;
    for (const auto& [user, loc] : engine.current_locations()) {
      locations.emplace_back(user, loc.value);
    }
    std::sort(locations.begin(), locations.end());
    for (const auto& [user, loc] : locations) {
      out << "L\t" << user << '\t' << loc << '\n';
    }
    files.push_back({std::string(kProfilesFile), out.str()});
  }

  // --- Ads + impressions. The ads file is byte-for-byte the
  // feed::WriteAds format so feed::ReadAds loads it unchanged. ---
  std::vector<feed::Ad> ads;
  std::vector<std::pair<uint32_t, int64_t>> impressions;
  engine.ad_store().ForEach([&](const ads::StoredAd& stored) {
    ads.push_back(stored.ad);
    impressions.emplace_back(stored.ad.id.value, stored.impressions_served);
  });
  std::sort(ads.begin(), ads.end(),
            [](const feed::Ad& a, const feed::Ad& b) { return a.id < b.id; });
  std::sort(impressions.begin(), impressions.end());
  {
    std::ostringstream out;
    for (const feed::Ad& ad : ads) {
      out << "A\t" << feed::FormatAdFields(ad) << '\n';
    }
    files.push_back({std::string(kAdsFile), out.str()});
  }
  {
    std::ostringstream out;
    for (const auto& [ad, served] : impressions) {
      out << "M\t" << ad << '\t' << served << '\n';
    }
    files.push_back({std::string(kImpressionsFile), out.str()});
  }

  // --- Frequency-cap state. Without it a restored engine re-serves ads
  // the saved engine would cap, breaking save→load→continue equivalence.
  {
    std::ostringstream out;
    struct CapRow {
      uint32_t user;
      uint32_t ad;
      std::string times;
    };
    std::vector<CapRow> rows;
    engine.frequency_capper().ForEach(
        [&](UserId user, AdId ad, std::span<const Timestamp> times) {
          CapRow row{user.value, ad.value, {}};
          for (Timestamp t : times) {
            if (!row.times.empty()) row.times += ';';
            row.times += StringFormat("%lld", static_cast<long long>(t));
          }
          rows.push_back(std::move(row));
        });
    std::sort(rows.begin(), rows.end(), [](const CapRow& a, const CapRow& b) {
      return std::tie(a.user, a.ad) < std::tie(b.user, b.ad);
    });
    for (const CapRow& row : rows) {
      if (row.times.empty()) continue;
      out << "F\t" << row.user << '\t' << row.ad << '\t' << row.times << '\n';
    }
    files.push_back({std::string(kFreqCapFile), out.str()});
  }

  // --- Integrity manifest, derived from the in-memory byte counts
  // (identical to what file_size reports after an untranslated write). ---
  std::string manifest;
  for (const SnapshotFile& f : files) {
    manifest += StringFormat("S\t%s\t%llu\n", f.name.c_str(),
                             static_cast<unsigned long long>(f.contents.size()));
  }
  files.push_back({std::string(kManifestFile), std::move(manifest)});
  return files;
}

Status WriteSnapshotFiles(const std::string& dir,
                          const std::vector<SnapshotFile>& files) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir);

  // Each file is written to a `.tmp` sibling, fsynced and renamed into
  // place — a crash mid-save never leaves a half-written file under its
  // final name. The manifest (file sizes) is renamed LAST, so a crash
  // between renames of the data files is detectable at load time: the
  // surviving manifest's sizes no longer match the mixed file set.
  if (files.empty() || files.back().name != kManifestFile) {
    return Status::InvalidArgument("snapshot files must end with manifest");
  }
  for (const SnapshotFile& f : files) {
    const std::string tmp = dir + "/" + f.name + ".tmp";
    std::ofstream out(tmp);
    if (!out) return Status::IoError("cannot open " + tmp);
    out << f.contents;
    out.flush();
    if (!out) return Status::IoError("write failed on " + tmp);
    out.close();
    ADREC_RETURN_NOT_OK(FsyncFile(tmp));
  }
  for (size_t i = 0; i + 1 < files.size(); ++i) {
    ADREC_RETURN_NOT_OK(RenamePath(dir + "/" + files[i].name + ".tmp",
                                   dir + "/" + files[i].name));
  }
  ADREC_RETURN_NOT_OK(RenamePath(dir + "/" + files.back().name + ".tmp",
                                 dir + "/" + files.back().name));
  return FsyncDir(dir);
}

Status SaveEngineSnapshot(const RecommendationEngine& engine,
                          const std::string& dir) {
  Result<std::vector<SnapshotFile>> files = SerializeEngineSnapshot(engine);
  if (!files.ok()) return files.status();
  return WriteSnapshotFiles(dir, files.value());
}

Status LoadEngineSnapshot(const std::string& dir,
                          RecommendationEngine* engine) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }

  // --- Manifest integrity gate. When present (every snapshot written by
  // the atomic save path has one), each listed file must exist with
  // exactly the recorded byte count: a truncated file — even one cut at
  // a line boundary, which the per-record parsers below cannot see — is
  // rejected here. Manifest-less snapshots (pre-durability format) are
  // still loaded on parser trust alone.
  {
    std::ifstream mf(ManifestPath(dir));
    std::string mline;
    size_t mline_no = 0;
    while (mf && std::getline(mf, mline)) {
      ++mline_no;
      if (mline.empty()) continue;
      const auto fields = SplitString(mline, '\t', /*keep_empty=*/true);
      if (fields.size() != 3 || fields[0] != "S") {
        return Status::InvalidArgument(
            StringFormat("%s:%zu: bad manifest record",
                         ManifestPath(dir).c_str(), mline_no));
      }
      const std::string name(fields[1]);
      char* end = nullptr;
      const std::string bytes_str(fields[2]);
      const unsigned long long want =
          std::strtoull(bytes_str.c_str(), &end, 10);
      if (end == bytes_str.c_str() || *end != '\0') {
        return Status::InvalidArgument(
            StringFormat("%s:%zu: bad manifest size",
                         ManifestPath(dir).c_str(), mline_no));
      }
      const std::string path = dir + "/" + name;
      std::error_code ec;
      const uintmax_t have = std::filesystem::file_size(path, ec);
      if (ec) {
        return Status::IoError("snapshot file missing: " + path);
      }
      if (have != want) {
        return Status::IoError(StringFormat(
            "snapshot file truncated or altered: %s is %llu bytes, "
            "manifest records %llu",
            path.c_str(), static_cast<unsigned long long>(have), want));
      }
    }
  }

  // --- Ads first (they define the index). ---
  Result<std::vector<feed::Ad>> ads = feed::ReadAds(AdsPath(dir));
  if (!ads.ok()) return ads.status();

  // --- Parse profiles fully before mutating the engine. ---
  std::ifstream in(ProfilesPath(dir));
  if (!in) return Status::IoError("cannot open " + ProfilesPath(dir));
  struct PendingState {
    UserId user;
    profile::UserState state;
  };
  std::vector<PendingState> states;
  std::vector<std::pair<UserId, LocationId>> locations;
  std::unordered_map<uint32_t, size_t> row_of;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument(StringFormat(
          "%s:%zu: %s", ProfilesPath(dir).c_str(), line_no, why.c_str()));
    };
    const auto fields = SplitString(line, '\t', /*keep_empty=*/true);
    if (fields.size() < 3) return bad("record needs >= 3 fields");
    char* end = nullptr;
    const std::string user_str(fields[1]);
    const unsigned long user_raw = std::strtoul(user_str.c_str(), &end, 10);
    if (end == user_str.c_str() || *end != '\0') return bad("bad user id");
    const UserId user(static_cast<uint32_t>(user_raw));

    if (fields[0] == "P") {
      PendingState ps;
      ps.user = user;
      const std::string as_of_str(fields[2]);
      ps.state.as_of = std::strtoll(as_of_str.c_str(), nullptr, 10);
      row_of[user.value] = states.size();
      states.push_back(std::move(ps));
    } else if (fields[0] == "I") {
      auto it = row_of.find(user.value);
      if (it == row_of.end()) return bad("I before P");
      Result<text::SparseVector> v = DecodeVector(fields[2]);
      if (!v.ok()) return bad(v.status().ToString());
      states[it->second].state.interests = std::move(v).value();
    } else if (fields[0] == "V") {
      if (fields.size() < 4) return bad("V needs 4 fields");
      auto it = row_of.find(user.value);
      if (it == row_of.end()) return bad("V before P");
      const std::string slot_str(fields[2]);
      const size_t slot = std::strtoul(slot_str.c_str(), nullptr, 10);
      auto& visits = states[it->second].state.visits;
      if (slot >= visits.size()) visits.resize(slot + 1);
      for (std::string_view piece : SplitString(fields[3], ';')) {
        const size_t colon = piece.find(':');
        if (colon == std::string_view::npos) return bad("bad visit entry");
        const std::string loc_str(piece.substr(0, colon));
        const std::string mass_str(piece.substr(colon + 1));
        visits[slot][static_cast<uint32_t>(
            std::strtoul(loc_str.c_str(), nullptr, 10))] =
            std::strtod(mass_str.c_str(), nullptr);
      }
    } else if (fields[0] == "L") {
      const std::string loc_str(fields[2]);
      locations.emplace_back(
          user, LocationId(static_cast<uint32_t>(
                    std::strtoul(loc_str.c_str(), nullptr, 10))));
    } else {
      return bad("unknown record tag");
    }
  }

  // --- Impressions. ---
  std::vector<std::pair<uint32_t, int64_t>> impressions;
  {
    std::ifstream imp(ImpressionsPath(dir));
    if (!imp) return Status::IoError("cannot open " + ImpressionsPath(dir));
    size_t imp_line = 0;
    while (std::getline(imp, line)) {
      ++imp_line;
      if (line.empty()) continue;
      const auto fields = SplitString(line, '\t', true);
      if (fields.size() != 3 || fields[0] != "M") {
        return Status::InvalidArgument(
            StringFormat("%s:%zu: bad impression record",
                         ImpressionsPath(dir).c_str(), imp_line));
      }
      impressions.emplace_back(
          static_cast<uint32_t>(
              std::strtoul(std::string(fields[1]).c_str(), nullptr, 10)),
          std::strtoll(std::string(fields[2]).c_str(), nullptr, 10));
    }
  }

  // --- Frequency-cap histories. The file is optional: snapshots written
  // before the format carried cap state simply restore with an empty
  // capper (the pre-existing behaviour).
  struct CapEntry {
    UserId user;
    AdId ad;
    std::vector<Timestamp> times;
  };
  std::vector<CapEntry> cap_entries;
  {
    std::ifstream cap(FreqCapPath(dir));
    size_t cap_line = 0;
    while (cap && std::getline(cap, line)) {
      ++cap_line;
      if (line.empty()) continue;
      const auto fields = SplitString(line, '\t', true);
      if (fields.size() != 4 || fields[0] != "F") {
        return Status::InvalidArgument(
            StringFormat("%s:%zu: bad freqcap record",
                         FreqCapPath(dir).c_str(), cap_line));
      }
      CapEntry entry;
      entry.user = UserId(static_cast<uint32_t>(
          std::strtoul(std::string(fields[1]).c_str(), nullptr, 10)));
      entry.ad = AdId(static_cast<uint32_t>(
          std::strtoul(std::string(fields[2]).c_str(), nullptr, 10)));
      for (std::string_view piece : SplitString(fields[3], ';')) {
        entry.times.push_back(static_cast<Timestamp>(
            std::strtoll(std::string(piece).c_str(), nullptr, 10)));
      }
      if (entry.times.empty()) {
        return Status::InvalidArgument(
            StringFormat("%s:%zu: empty freqcap history",
                         FreqCapPath(dir).c_str(), cap_line));
      }
      cap_entries.push_back(std::move(entry));
    }
  }

  // --- Everything parsed: apply. ---
  for (const feed::Ad& ad : ads.value()) {
    ADREC_RETURN_NOT_OK(engine->InsertAd(ad));
  }
  for (const auto& [ad, served] : impressions) {
    ADREC_RETURN_NOT_OK(
        engine->mutable_ad_store()->RestoreImpressions(AdId(ad), served));
  }
  for (PendingState& ps : states) {
    engine->mutable_profiles()->RestoreState(ps.user, std::move(ps.state));
  }
  for (const auto& [user, loc] : locations) {
    engine->RestoreCurrentLocation(user, loc);
  }
  for (CapEntry& entry : cap_entries) {
    engine->RestoreFrequencyCapHistory(entry.user, entry.ad,
                                       std::move(entry.times));
  }
  return Status::OK();
}

}  // namespace adrec::core
