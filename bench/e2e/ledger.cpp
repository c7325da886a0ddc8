#include "ledger.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "abe/scheme.h"
#include "cloud/hybrid.h"
#include "crypto/authenc.h"
#include "crypto/sha256.h"
#include "lsss/parser.h"

namespace maabe::e2e {

// ------------------------------------------------------- SpanCapture --

void SpanCapture::start() {
  spans_->clear();
  // The tracer serializes sink calls, so the vector needs no lock.
  telemetry::Tracer::global().enable(
      [spans = spans_](const telemetry::SpanRecord& rec) { spans->push_back(rec); });
}

void SpanCapture::stop() { telemetry::Tracer::global().disable(); }

void SpanCapture::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const telemetry::SpanRecord& rec : *spans_) out << rec.to_json_line() << '\n';
}

// --------------------------------------------------------- self time --

double SelfTimes::per_op_ns(const std::string& cls, const std::string& name,
                            uint64_t ops) const {
  if (ops == 0) return 0;
  const auto c = ns.find(cls);
  if (c == ns.end()) return 0;
  const auto n = c->second.find(name);
  return n == c->second.end() ? 0 : n->second / static_cast<double>(ops);
}

SelfTimes self_times(const std::vector<telemetry::SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  std::unordered_map<uint64_t, std::string> trace_class;
  for (size_t i = 0; i < spans.size(); ++i) {
    const telemetry::SpanRecord& s = spans[i];
    if (s.parent_id != 0) {
      children[s.parent_id].push_back(i);
    } else if (s.name.starts_with("bench.")) {
      trace_class[s.trace_id] = s.name.substr(6);
    }
  }
  SelfTimes out;
  std::vector<std::pair<uint64_t, uint64_t>> cover;
  for (const telemetry::SpanRecord& s : spans) {
    const auto cls = trace_class.find(s.trace_id);
    if (cls == trace_class.end()) continue;
    // Children may run in parallel on pool threads, so subtract the
    // union of their intervals, clipped to this span.
    cover.clear();
    if (const auto kids = children.find(s.span_id); kids != children.end()) {
      for (const size_t k : kids->second) {
        const uint64_t a = std::max(spans[k].start_ns, s.start_ns);
        const uint64_t b = std::min(spans[k].end_ns, s.end_ns);
        if (a < b) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0, reach = 0;
    for (const auto& [a, b] : cover) {
      const uint64_t from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    const uint64_t duration = s.end_ns - s.start_ns;
    out.ns[cls->second][s.name] += static_cast<double>(duration - std::min(covered, duration));
    ++out.spans[cls->second][s.name];
  }
  return out;
}

// ----------------------------------------------------- CounterLedger --

namespace {

// Registry names of the Series, in enum order.
constexpr const char* kSeriesNames[kSeriesCount] = {
    "maabe_transport_frames_total",         "maabe_transport_frame_bytes_total",
    "maabe_transport_retries_total",        "maabe_server_fetches_total",
    "maabe_server_reencrypted_slots_total", "maabe_cluster_quorum_reads_total",
    "maabe_cluster_quorum_failures_total",  "maabe_cluster_epochs_2pc_total",
    "maabe_cluster_epoch_aborts_total",     "maabe_decrypt_cache_hits_total",
    "maabe_decrypt_cache_misses_total",
};

}  // namespace

CounterLedger::CounterLedger(const pairing::Group& grp)
    : engine_(engine::CryptoEngine::for_group(grp)) {
  for (const char* name : kSeriesNames)
    counters_.push_back(&telemetry::MetricsRegistry::global().counter(name));
}

CounterLedger::Counts CounterLedger::sample() const {
  Counts c;
  c.engine = engine_.stats();
  for (size_t s = 0; s < kSeriesCount; ++s) c.series[s] = counters_[s]->value();
  return c;
}

void CounterLedger::before(OpClass) { at_start_ = sample(); }

void CounterLedger::after(OpClass cls) {
  const Counts now = sample();
  Counts& acc = by_class_[static_cast<size_t>(cls)];
  ++acc.ops;
  acc.engine += now.engine - at_start_.engine;
  for (size_t s = 0; s < kSeriesCount; ++s) acc.series[s] += now.series[s] - at_start_.series[s];
}

CounterLedger::Counts CounterLedger::total() const {
  Counts t;
  for (const Counts& c : by_class_) {
    t.ops += c.ops;
    t.engine += c.engine;
    for (size_t s = 0; s < kSeriesCount; ++s) t.series[s] += c.series[s];
  }
  return t;
}

// ------------------------------------------------------------ ladder --

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

/// Per-call ns of `fn`: the batch doubles until it takes `batch_ms`, then
/// the median of `reps` batches is reported.
template <typename Fn>
double per_call_ns(Fn&& fn, double batch_ms = 8, int reps = 5) {
  const auto run = [&](size_t n) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) fn();
    return elapsed_ns(t0);
  };
  size_t batch = 1;
  while (run(batch) < batch_ms * 1e6 && batch < (size_t{1} << 24)) batch *= 2;
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) per.push_back(run(batch) / static_cast<double>(batch));
  return median(per);
}

std::shared_ptr<const cloud::StoredFile> stored(World& w, size_t f) {
  cloud::Cluster& cluster = w.system().cluster();
  for (const std::string& node : cluster.replicas_for(w.file_id(f))) {
    if (auto file = cluster.node_store(node).fetch(w.file_id(f))) return file;
  }
  throw std::runtime_error("e2e ladder: " + w.file_id(f) + " is not stored");
}

std::map<std::string, abe::UserSecretKey> keys_of(World& w, const std::string& uid) {
  std::map<std::string, abe::UserSecretKey> keys;
  cloud::Consumer& c = w.system().user(uid);
  for (size_t i = 0; i < w.spec().authorities; ++i)
    keys.emplace(w.aid(i), c.key(kOwner, w.aid(i)));
  return keys;
}

}  // namespace

MetricList ladder(World& w) {
  MetricList out;
  const auto put = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, Metric{value, unit}});
  };
  const pairing::Group& grp = w.group();
  crypto::Drbg rng(std::string_view("e2e-ladder/" + w.spec().name));

  // ---- math: F_q on the group's base field -------------------------------
  const pairing::FpCtx& fq = grp.ctx().fq();
  {
    math::Bignum x = fq.random(rng);
    const math::Bignum y = fq.random(rng);
    put("math.fq_mul_ns", per_call_ns([&] { x = fq.mul(x, y); }), "ns");
    put("math.fq_inv_us", per_call_ns([&] { x = fq.inv(x); }) / 1e3, "us");
  }

  // ---- pairing: the workload's widest stored ciphertext and its reader ---
  const size_t wide = w.widest_file();
  const std::shared_ptr<const cloud::StoredFile> wide_file = stored(w, wide);
  const abe::Ciphertext& ct = wide_file->slots.front().key_ct;
  const std::string reader = w.reader_of(wide);
  const abe::UserPublicKey& reader_pk = w.system().user(reader).public_key();
  const std::map<std::string, abe::UserSecretKey> reader_keys = keys_of(w, reader);
  const pairing::G1& kx = reader_keys.begin()->second.kx.begin()->second;
  const pairing::Zr k = grp.zr_nonzero_random(rng);
  {
    pairing::MillerVal m;
    put("pairing.miller_us", per_call_ns([&] { m = grp.miller(ct.c_prime, kx); }) / 1e3, "us");
    const auto pre = grp.pair_precompute(reader_pk.pk);
    put("pairing.miller_precomp_us",
        per_call_ns([&] { m = grp.miller_with(*pre, ct.ci.front()); }) / 1e3, "us");
    pairing::GT g;
    put("pairing.final_exp_us", per_call_ns([&] { g = grp.miller_reduce(m); }) / 1e3, "us");
    pairing::G1 p;
    put("pairing.g1_exp_us", per_call_ns([&] { p = ct.c_prime.mul(k); }) / 1e3, "us");
    std::unique_ptr<pairing::G1FixedBase> table;
    put("pairing.g1_table_build_ms",
        per_call_ns([&] { table = grp.g1_precompute(ct.c_prime); }, 8, 3) / 1e6, "ms");
    put("pairing.g1_exp_table_us",
        per_call_ns([&] { p = grp.g1_pow_with(*table, k); }) / 1e3, "us");
    put("pairing.gt_exp_us", per_call_ns([&] { g = ct.c.pow(k); }) / 1e3, "us");
    uint64_t n = 0;
    put("pairing.hash_to_g1_ms",
        per_call_ns([&] { p = grp.hash_to_g1("e2e-ladder/" + std::to_string(n++)); }) / 1e6,
        "ms");
    const Bytes enc = ct.c_prime.to_bytes();
    put("pairing.g1_decode_us", per_call_ns([&] { p = grp.g1_from_bytes(enc); }) / 1e3, "us");
  }

  // ---- abe: decrypt on real keys, the rest on a mirror of the world -------
  {
    const size_t narrow = w.narrowest_file();
    const std::shared_ptr<const cloud::StoredFile> narrow_file = stored(w, narrow);
    const std::string narrow_reader = w.reader_of(narrow);
    const std::map<std::string, abe::UserSecretKey> narrow_keys = keys_of(w, narrow_reader);
    const abe::UserPublicKey& narrow_pk = w.system().user(narrow_reader).public_key();
    pairing::GT m;
    put("abe.decrypt_wide_ms",
        per_call_ns([&] { m = abe::decrypt(grp, ct, reader_pk, reader_keys); }) / 1e6, "ms");
    put("abe.decrypt_narrow_ms", per_call_ns([&] {
          m = abe::decrypt(grp, narrow_file->slots.front().key_ct, narrow_pk, narrow_keys);
        }) / 1e6,
        "ms");

    // Mirror: the same authorities, attributes and policies under keys
    // the bench holds, so encrypt and re-key can run without the
    // owner's private state.
    const abe::OwnerMasterKey mk = abe::owner_gen(grp, kOwner, rng);
    const abe::OwnerSecretShare sk_o = abe::owner_share(grp, mk);
    std::map<std::string, abe::AuthorityVersionKey> vks;
    std::map<std::string, abe::AuthorityPublicKey> apks;
    std::map<std::string, abe::PublicAttributeKey> attr_pks;
    for (size_t i = 0; i < w.spec().authorities; ++i) {
      const abe::AuthorityVersionKey vk = abe::aa_setup(grp, w.aid(i), rng);
      apks.emplace(w.aid(i), abe::aa_public_key(grp, vk));
      for (size_t j = 0; j < w.spec().attributes; ++j) {
        const abe::PublicAttributeKey pk = abe::aa_attribute_key(grp, vk, w.attribute(j));
        attr_pks.emplace(pk.attr.qualified(), pk);
      }
      vks.emplace(w.aid(i), vk);
    }
    const lsss::LsssMatrix policy =
        lsss::LsssMatrix::from_policy(lsss::parse_policy(w.policy(wide)));
    const pairing::GT message = grp.gt_random(rng);
    abe::EncryptionResult enc;
    put("abe.encrypt_wide_ms", per_call_ns([&] {
          enc = abe::encrypt(grp, mk, "ladder-ct", message, policy, apks, attr_pks, rng);
        }) / 1e6,
        "ms");

    // KeyGen for fresh users: an enrolment meets a new PK_UID every time.
    const std::set<std::string> names = w.user_attribute_names();
    std::vector<double> keygen_ns;
    for (int r = 0; r < 3; ++r) {
      const abe::UserPublicKey user =
          abe::ca_register_user(grp, "ladder-user-" + std::to_string(r), rng);
      const auto t0 = Clock::now();
      abe::aa_keygen(grp, vks.at(w.aid(0)), sk_o, user, names);
      keygen_ns.push_back(elapsed_ns(t0));
    }
    put("abe.keygen_ms", median(keygen_ns) / 1e6, "ms");

    const std::string aid = w.aid(0);
    const abe::AuthorityVersionKey new_vk = abe::aa_rekey(grp, vks.at(aid), rng).new_vk;
    const abe::UpdateKey uk = abe::aa_make_update_key(grp, vks.at(aid), new_vk, sk_o);
    std::map<std::string, abe::PublicAttributeKey> new_pks = attr_pks;
    for (auto& [handle, pk] : new_pks) {
      if (pk.attr.aid == aid) pk = abe::apply_update_to_attribute_pk(grp, pk, uk);
    }
    abe::UpdateInfo ui;
    put("abe.update_info_ms", per_call_ns([&] {
          ui = abe::owner_update_info(grp, mk, enc.record, enc.ct, attr_pks, new_pks, aid);
        }) / 1e6,
        "ms");
    put("abe.reencrypt_ms", per_call_ns([&] {
          abe::Ciphertext copy = enc.ct;
          abe::reencrypt(grp, &copy, uk, ui);
        }) / 1e6,
        "ms");
  }

  // ---- lsss, crypto, hybrid ------------------------------------------------
  {
    lsss::LsssMatrix compiled;
    put("lsss.compile_wide_us", per_call_ns([&] {
          compiled = lsss::LsssMatrix::from_policy(lsss::parse_policy(w.policy(wide)));
        }) / 1e3,
        "us");
    const Bytes key = rng.bytes(crypto::kContentKeySize);
    const Bytes data = rng.bytes(4096);
    const Bytes aad = bytes_of("e2e-ladder");
    Bytes box;
    put("crypto.seal_4k_us",
        per_call_ns([&] { box = crypto::seal(key, data, aad, rng); }) / 1e3, "us");
    Bytes opened;
    put("crypto.open_4k_us", per_call_ns([&] { opened = crypto::open(key, box, aad); }) / 1e3,
        "us");
    Bytes digest;
    put("crypto.sha256_4k_us",
        per_call_ns([&] { digest = crypto::Sha256::digest(data); }) / 1e3, "us");
    Bytes wire;
    put("hybrid.serialize_us",
        per_call_ns([&] { wire = cloud::serialize(grp, *wide_file); }) / 1e3, "us");
    cloud::StoredFile decoded;
    put("hybrid.deserialize_us",
        per_call_ns([&] { decoded = cloud::deserialize_stored_file(grp, wire); }) / 1e3, "us");
  }

  // ---- recovery: node:1 misses a quarter of the files, then rejoins --------
  {
    cloud::CloudSystem& sys = w.system();
    std::vector<double> rejoin_ms, moved, ratio;
    for (int r = 0; r < 3; ++r) {
      sys.cluster().kill_node("node:1");
      for (size_t f = 0; f < std::max<size_t>(1, w.spec().files / 4); ++f) w.reupload(f);
      const cloud::RecoveryStats before = sys.cluster().recovery().stats();
      const auto t0 = Clock::now();
      sys.cluster().restart_node("node:1");
      sys.flush_pending();
      rejoin_ms.push_back(elapsed_ns(t0) / 1e6);
      const uint64_t bytes =
          sys.cluster().recovery().stats().bytes_transferred - before.bytes_transferred;
      const size_t snapshot = sys.cluster().snapshot("node:1").size();
      moved.push_back(static_cast<double>(bytes));
      ratio.push_back(snapshot ? static_cast<double>(bytes) / static_cast<double>(snapshot) : 0);
    }
    put("recovery.rejoin_ms", median(rejoin_ms), "ms");
    put("recovery.bytes_moved", median(moved), "bytes");
    put("recovery.transfer_ratio", median(ratio), "ratio");
  }
  return out;
}

}  // namespace maabe::e2e
