#include "workload.h"

#include <algorithm>
#include <cmath>

#include "common/errors.h"
#include "telemetry/trace.h"

namespace maabe::e2e {

namespace {

using Clock = gauge::Clock;

/// Sizes are chosen so one run of each workload, with its setups, fits
/// the benchmark's time budget on the paper curve; README.md gives the
/// reason for each workload.
std::vector<WorkloadSpec> make_specs() {
  std::vector<WorkloadSpec> specs;

  // Crypto-bound reads: every file is the AND of all 10 attributes
  // (n_A = 2, l = 10, the left end of Fig. 3), and the clients keep no
  // decrypt cache, so each download pays 2l + n_A Miller loops and one
  // final exponentiation.
  WorkloadSpec wide;
  wide.name = "read-wide";
  wide.authorities = 2;
  wide.attributes = 5;
  wide.users = 8;
  wide.users_per_class = 8;
  wide.user_attributes = 5;
  wide.files = 32;
  wide.wide_files = 32;
  wide.wide_attributes = 5;
  wide.payload_bytes = 256;
  wide.zipf_s = 0.8;
  wide.decrypt_cache = 0;
  wide.deck = {9, 1, 0, 0};
  specs.push_back(wide);

  // Transport- and cluster-bound reads: single-attribute files whose
  // working set fits the per-user decrypt cache. A re-upload costs each
  // of the file's 8 readers one miss; 3.5% re-uploads put about 30% of
  // downloads in misses, so the p50 sits inside the hits and the p90
  // inside the misses, each with a margin.
  WorkloadSpec hot;
  hot.name = "read-hot";
  hot.authorities = 2;
  hot.attributes = 2;
  hot.users = 16;
  hot.users_per_class = 2;
  hot.user_attributes = 1;
  hot.files = 16;
  hot.payload_bytes = 4096;
  hot.zipf_s = 1.1;
  hot.deck = {193, 7, 0, 0};
  specs.push_back(hot);

  // The paper's revocation path beside enrolment and reads: half the
  // files need one attribute, half a two-authority AND of four. With no
  // decrypt cache every download decrypts, so a revocation gain that
  // moves cost onto reads shows. Zipf 0.6 gives the wide files 31% of the
  // downloads, so the p50 sits inside the one-attribute reads and the
  // p90 inside the wide ones, each with a margin; at Zipf 1.1 the wide
  // share was 17% and the p90 rested on about 30 wide reads.
  WorkloadSpec member;
  member.name = "membership";
  member.authorities = 2;
  member.attributes = 4;
  member.users = 12;
  member.users_per_class = 2;
  member.user_attributes = 2;
  member.files = 16;
  member.wide_files = 8;
  member.wide_attributes = 2;
  member.payload_bytes = 256;
  member.zipf_s = 0.6;
  member.decrypt_cache = 0;
  member.deck = {34, 5, 6, 5};
  specs.push_back(member);
  return specs;
}

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = make_specs();
  return all;
}

const char* root_span_name(OpClass c) {
  switch (c) {
    case OpClass::kDownload: return "bench.download";
    case OpClass::kUpload: return "bench.upload";
    case OpClass::kRevoke: return "bench.revoke";
    case OpClass::kEnrol: return "bench.enrol";
  }
  return "bench.op";
}

/// Index in [0, bound) from a uniform draw in [0, 1).
size_t pick_index(double u, size_t bound) {
  if (bound <= 1) return 0;
  return std::min(bound - 1, static_cast<size_t>(u * static_cast<double>(bound)));
}

/// Draws of file i, rank i + 1, in one pass of a file deck of about
/// `total`: proportional to 1 / rank^s, at least one.
std::vector<size_t> zipf_counts(size_t files, double s, size_t total) {
  std::vector<double> w;
  double sum = 0;
  for (size_t rank = 1; rank <= files; ++rank) {
    w.push_back(1 / std::pow(static_cast<double>(rank), s));
    sum += w.back();
  }
  std::vector<size_t> counts;
  for (const double x : w) {
    counts.push_back(std::max<size_t>(1, static_cast<size_t>(std::lround(total * x / sum))));
  }
  return counts;
}

/// Draws in one pass of a file deck.
constexpr size_t kFileDeck = 200;

}  // namespace

const char* class_name(OpClass c) {
  switch (c) {
    case OpClass::kDownload: return "download";
    case OpClass::kUpload: return "upload";
    case OpClass::kRevoke: return "revoke";
    case OpClass::kEnrol: return "enrol";
  }
  return "op";
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadSpec& s : specs()) out.push_back(s.name);
  return out;
}

void OpLog::add(OpClass c, const Sample& s, bool ok) {
  samples[static_cast<size_t>(c)].push_back(s);
  ++attempted;
  if (!ok) ++failed;
}

std::vector<double> OpLog::latencies(OpClass c) const {
  std::vector<double> out;
  for (const Sample& s : samples[static_cast<size_t>(c)])
    out.push_back(s.ms * gauge::scale(s.start, s.end));
  return out;
}

double OpLog::throughput() const {
  double ms = 0;
  size_t ops = 0;
  for (const OpClass c : kClasses) {
    for (const double x : latencies(c)) ms += x;
    ops += samples[static_cast<size_t>(c)].size();
  }
  return ms > 0 ? 1e3 * static_cast<double>(ops) / ms : 0;
}

// ------------------------------------------------------------- World --

World::World(std::shared_ptr<const pairing::Group> grp, const WorkloadSpec& spec,
             uint64_t seed)
    : grp_(std::move(grp)),
      spec_(spec),
      rng_("e2e-traffic/" + spec.name + "/" + std::to_string(seed)),
      classes_{{spec.deck.begin(), spec.deck.end()}, {}, 0},
      download_files_{zipf_counts(spec.files, spec.zipf_s, kFileDeck), {}, 0},
      upload_files_{download_files_.counts, {}, 0} {
  cloud::ClusterConfig cluster;
  cluster.nodes = 3;
  cluster.replication = 2;
  sys_ = std::make_unique<cloud::CloudSystem>(
      grp_, "e2e-system/" + spec_.name + "/" + std::to_string(seed),
      std::make_unique<cloud::LoopbackTransport>(), cloud::RetryPolicy(), cluster);

  const size_t k = spec_.attributes;
  for (size_t f = 0; f < spec_.files; ++f) {
    FileModel fm;
    const size_t j = f % k;
    if (f + spec_.wide_files >= spec_.files) {
      for (size_t i = 0; i < spec_.authorities; ++i) {
        for (size_t t = 0; t < spec_.wide_attributes; ++t)
          fm.needs.emplace_back(i, (j + t) % k);
      }
    } else {
      fm.needs.emplace_back((f / k) % spec_.authorities, j);
    }
    for (const auto& [i, a] : fm.needs) {
      if (!fm.policy.empty()) fm.policy += " AND ";
      fm.policy += attribute(a) + "@" + aid(i);
    }
    files_.push_back(std::move(fm));
  }
}

std::string World::aid(size_t i) const { return "A" + std::to_string(i); }
std::string World::attribute(size_t j) const { return "a" + std::to_string(j); }
std::string World::file_id(size_t f) const { return "file" + std::to_string(f); }

double World::uniform() {
  const Bytes raw = rng_.bytes(8);
  uint64_t u = 0;
  for (const uint8_t b : raw) u = (u << 8) | b;
  return static_cast<double>(u >> 11) / 9007199254740992.0;
}

size_t World::deal(Deck& deck) {
  if (deck.pos == deck.order.size()) {
    deck.order.clear();
    for (size_t item = 0; item < deck.counts.size(); ++item)
      deck.order.insert(deck.order.end(), deck.counts[item], item);
    for (size_t i = deck.order.size(); i > 1; --i)
      std::swap(deck.order[i - 1], deck.order[pick_index(uniform(), i)]);
    deck.pos = 0;
  }
  return deck.order[deck.pos++];
}

bool World::can_open(const UserModel& u, const FileModel& f) const {
  for (const auto& [i, a] : f.needs) {
    if (!u.attrs[i].contains(a)) return false;
  }
  return true;
}

template <typename Fn>
Sample World::timed(OpClass c, Fn&& fn, bool* ok) {
  if (observer_ != nullptr) observer_->before(c);
  Sample s;
  const auto taken = gauge::taken();
  s.start = Clock::now();
  {
    telemetry::Span root = telemetry::Tracer::global().start_span(root_span_name(c));
    try {
      *ok = fn();
    } catch (const Error&) {
      *ok = false;
    }
  }
  s.end = Clock::now();
  s.ms = std::chrono::duration<double, std::milli>(s.end - s.start - (gauge::taken() - taken))
             .count();
  if (observer_ != nullptr) observer_->after(c);
  return s;
}

void World::build() {
  std::set<std::string> universe;
  for (size_t j = 0; j < spec_.attributes; ++j) universe.insert(attribute(j));
  for (size_t i = 0; i < spec_.authorities; ++i) sys_->add_authority(aid(i), universe);
  sys_->add_owner(kOwner);
  for (size_t i = 0; i < spec_.authorities; ++i)
    sys_->publish_authority_keys(aid(i), kOwner);
  for (size_t u = 0; u < spec_.users; ++u) enrol_user(nullptr);
  for (size_t f = 0; f < spec_.files; ++f) upload(f, rng_.bytes(32), nullptr);
}

bool World::enrol_user(OpLog* log) {
  const size_t index = next_user_++;
  UserModel um;
  um.uid = "u" + std::to_string(index);
  um.attrs.resize(spec_.authorities);
  const size_t cls = index / spec_.users_per_class;
  std::set<std::string> names;
  for (size_t t = 0; t < spec_.user_attributes; ++t) {
    const size_t a = (cls + t) % spec_.attributes;
    names.insert(attribute(a));
    for (auto& held : um.attrs) held.insert(a);
  }
  const auto op = [&] {
    sys_->add_user(um.uid);
    for (size_t i = 0; i < spec_.authorities; ++i) {
      sys_->assign_attributes(aid(i), um.uid, names);
      sys_->issue_user_key(aid(i), um.uid, kOwner);
    }
    return true;
  };
  bool ok = true;
  if (log == nullptr) {
    op();
  } else {
    const Sample s = timed(OpClass::kEnrol, op, &ok);
    log->add(OpClass::kEnrol, s, ok);
  }
  if (!ok) return false;
  sys_->user(um.uid).set_decrypt_cache_capacity(spec_.decrypt_cache);
  users_.push_back(std::move(um));
  return true;
}

void World::upload(size_t f, const Bytes& salt, OpLog* log) {
  FileModel& fm = files_[f];
  const uint64_t rev = ++fm.revision;
  // Owner-side records are keyed by (file, component), so every
  // revision needs its own component name.
  const std::string slot = rev == 1 ? "data" : "data#r" + std::to_string(rev);
  Bytes payload(spec_.payload_bytes);
  for (size_t b = 0; b < payload.size(); ++b)
    payload[b] = static_cast<uint8_t>(salt[b % salt.size()] ^ (b >> 5));
  const std::vector<cloud::DataComponent> comps{{slot, payload, fm.policy}};
  const auto op = [&] {
    sys_->upload(kOwner, file_id(f), comps);
    return true;
  };
  bool ok = true;
  if (log == nullptr) {
    op();
  } else {
    const Sample s = timed(OpClass::kUpload, op, &ok);
    log->add(OpClass::kUpload, s, ok);
  }
  // A failed upload may or may not have reached the store: either
  // revision is then an acceptable read.
  if (ok) {
    fm.content = std::move(payload);
    fm.alt_content.clear();
  } else {
    fm.alt_content = std::move(payload);
  }
}

void World::download(size_t f, double pick, OpLog& log) {
  const FileModel& fm = files_[f];
  std::vector<size_t> eligible, others;
  for (size_t u = 0; u < users_.size(); ++u) {
    if (!users_[u].probe) (can_open(users_[u], fm) ? eligible : others).push_back(u);
  }
  const bool expect_open = !eligible.empty();
  const std::vector<size_t>& pool = expect_open ? eligible : others;
  const std::string& uid = users_[pool[pick_index(pick, pool.size())]].uid;

  cloud::CloudSystem::DownloadReport rep;
  bool ok = true;
  const Sample s = timed(
      OpClass::kDownload,
      [&] {
        rep = sys_->download_report(uid, file_id(f));
        return true;
      },
      &ok);
  if (ok) {
    using State = cloud::CloudSystem::SlotState;
    ok = !rep.slots.empty();
    for (const auto& slot : rep.slots) {
      if (slot.state == State::kCorrupt) {
        violations_.push_back(uid + " read a corrupt slot of " + file_id(f) + ": " +
                              slot.detail);
      } else if (slot.state == State::kOk) {
        if (!expect_open) {
          violations_.push_back(uid + " opened " + file_id(f) +
                                " without the attributes its policy needs");
        } else if (slot.plaintext != fm.content && slot.plaintext != fm.alt_content) {
          violations_.push_back(uid + " read bytes of " + file_id(f) +
                                " that are not its latest upload");
        }
      } else {
        ok = false;  // kNoKey for an authorized reader, or kError
      }
    }
    if (!expect_open) ok = true;  // a denial is the correct outcome
  }
  log.add(OpClass::kDownload, s, ok);
}

bool World::revoke(double pick, OpLog& log) {
  // Victim: the newest traffic user holding such an attribute.
  for (size_t u = users_.size(); u-- > 0;) {
    if (!users_[u].probe && revoke_from(u, pick, log)) return true;
  }
  return false;
}

bool World::revoke_from(size_t u, double pick, OpLog& log) {
  UserModel& victim = users_[u];
  const size_t offset = pick_index(pick, spec_.authorities * spec_.attributes);
  for (size_t step = 0; step < spec_.authorities * spec_.attributes; ++step) {
    const size_t slot = (offset + step) % (spec_.authorities * spec_.attributes);
    const size_t i = slot / spec_.attributes;
    const size_t a = slot % spec_.attributes;
    if (!victim.attrs[i].contains(a)) continue;
    victim.attrs[i].erase(a);
    bool keeps_readers = true;
    for (const FileModel& fm : files_) {
      bool readable = false;
      for (const UserModel& other : users_)
        readable = readable || (!other.probe && can_open(other, fm));
      keeps_readers = keeps_readers && readable;
    }
    if (!keeps_readers) {
      victim.attrs[i].insert(a);
      continue;
    }
    bool ok = true;
    const Sample s = timed(
        OpClass::kRevoke,
        [&] {
          sys_->revoke_attribute(aid(i), victim.uid, attribute(a));
          return true;
        },
        &ok);
    log.add(OpClass::kRevoke, s, ok);
    // The model keeps the attribute removed even when the call failed:
    // the user is never again treated as an authorized reader of it.
    if (ok) deny_check(victim, i, a);
    return true;
  }
  return false;
}

void World::deny_check(const UserModel& victim, size_t authority, size_t attr) {
  for (size_t f = 0; f < files_.size(); ++f) {
    const auto& needs = files_[f].needs;
    if (std::find(needs.begin(), needs.end(), std::make_pair(authority, attr)) ==
        needs.end())
      continue;
    telemetry::Span root = telemetry::Tracer::global().start_span("bench.deny_check");
    try {
      const auto rep = sys_->download_report(victim.uid, file_id(f));
      for (const auto& slot : rep.slots) {
        if (slot.state == cloud::CloudSystem::SlotState::kOk)
          violations_.push_back(victim.uid + " opened " + file_id(f) + " after losing " +
                                attribute(attr) + "@" + aid(authority));
      }
    } catch (const Error&) {
      // A fail-closed read also keeps the revoked user out.
    }
    break;
  }
}

void World::probe(OpLog& log) {
  for (size_t p = 0; p < kProbePairs; ++p) {
    if (!enrol_user(&log)) continue;
    users_.back().probe = true;
    revoke_from(users_.size() - 1, uniform(), log);
  }
}

TrafficResult World::traffic(double seconds) {
  TrafficResult r;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  while (Clock::now() < end) {
    switch (static_cast<OpClass>(deal(classes_))) {
      case OpClass::kDownload:
        download(deal(download_files_), uniform(), r.log);
        break;
      case OpClass::kUpload:
        upload(deal(upload_files_), rng_.bytes(32), &r.log);
        break;
      case OpClass::kRevoke:
        if (!revoke(uniform(), r.log)) download(deal(download_files_), uniform(), r.log);
        break;
      case OpClass::kEnrol:
        enrol_user(&r.log);
        break;
    }
    ++r.ops;
  }
  return r;
}

// ---------------------------------------------------- ladder inputs --

size_t World::widest_file() const {
  size_t best = 0;
  for (size_t f = 1; f < files_.size(); ++f) {
    if (files_[f].needs.size() > files_[best].needs.size()) best = f;
  }
  return best;
}

size_t World::narrowest_file() const {
  size_t best = 0;
  for (size_t f = 1; f < files_.size(); ++f) {
    if (files_[f].needs.size() < files_[best].needs.size()) best = f;
  }
  return best;
}

std::string World::reader_of(size_t f) const {
  for (const UserModel& u : users_) {
    if (can_open(u, files_[f])) return u.uid;
  }
  throw SchemeError("e2e: no reader for " + file_id(f));
}

std::set<std::string> World::user_attribute_names() const {
  std::set<std::string> names;
  for (size_t t = 0; t < spec_.user_attributes; ++t)
    names.insert(attribute(t % spec_.attributes));
  return names;
}

void World::reupload(size_t f) { upload(f, rng_.bytes(32), nullptr); }

}  // namespace maabe::e2e
