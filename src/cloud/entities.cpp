#include "cloud/entities.h"

#include "abe/serial.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "lsss/parser.h"
#include "telemetry/trace.h"

namespace maabe::cloud {

using abe::AuthorityPublicKey;
using abe::EncryptionRecord;
using abe::PublicAttributeKey;
using abe::UpdateInfo;
using abe::UpdateKey;
using abe::UserPublicKey;
using abe::UserSecretKey;
using pairing::GT;

// ------------------------------------------------ CertificateAuthority --

CertificateAuthority::CertificateAuthority(std::shared_ptr<const pairing::Group> grp,
                                           crypto::Drbg rng)
    : grp_(std::move(grp)), rng_(std::move(rng)) {}

const UserPublicKey& CertificateAuthority::register_user(const std::string& uid) {
  if (users_.contains(uid)) throw SchemeError("CA: UID '" + uid + "' already registered");
  pairing::Zr u;
  const UserPublicKey pk = abe::ca_register_user(*grp_, uid, rng_, &u);
  user_secrets_.emplace(uid, u);
  return users_.emplace(uid, pk).first->second;
}

void CertificateAuthority::register_authority(const std::string& aid) {
  if (aid.empty()) throw SchemeError("CA: empty AID");
  if (!authorities_.insert(aid).second)
    throw SchemeError("CA: AID '" + aid + "' already registered");
}

const UserPublicKey& CertificateAuthority::user_public_key(const std::string& uid) const {
  const auto it = users_.find(uid);
  if (it == users_.end()) throw SchemeError("CA: unknown UID '" + uid + "'");
  return it->second;
}

// -------------------------------------------------- AttributeAuthority --

AttributeAuthority::AttributeAuthority(std::shared_ptr<const pairing::Group> grp,
                                       std::string aid, crypto::Drbg rng)
    : grp_(std::move(grp)), aid_(std::move(aid)), rng_(std::move(rng)) {
  vk_ = abe::aa_setup(*grp_, aid_, rng_);
}

void AttributeAuthority::define_attribute(const std::string& name) {
  if (name.empty()) throw SchemeError("AA: empty attribute name");
  universe_.insert(name);
}

void AttributeAuthority::accept_owner_share(const abe::OwnerSecretShare& share) {
  owners_.insert_or_assign(share.owner_id, share);
}

AuthorityPublicKey AttributeAuthority::public_key() const {
  return abe::aa_public_key(*grp_, vk_);
}

std::map<std::string, PublicAttributeKey> AttributeAuthority::attribute_public_keys()
    const {
  std::map<std::string, PublicAttributeKey> out;
  for (const std::string& name : universe_) {
    PublicAttributeKey pk = abe::aa_attribute_key(*grp_, vk_, name);
    out.emplace(pk.attr.qualified(), std::move(pk));
  }
  return out;
}

void AttributeAuthority::assign(const std::string& uid, const std::set<std::string>& names) {
  for (const std::string& name : names) {
    if (!universe_.contains(name))
      throw SchemeError("AA '" + aid_ + "': does not manage attribute '" + name + "'");
  }
  assignments_[uid].insert(names.begin(), names.end());
}

const std::set<std::string>& AttributeAuthority::assignment(const std::string& uid) const {
  static const std::set<std::string> kEmpty;
  const auto it = assignments_.find(uid);
  return it == assignments_.end() ? kEmpty : it->second;
}

UserSecretKey AttributeAuthority::issue_key(const UserPublicKey& user,
                                            const std::string& owner_id) {
  const auto owner = owners_.find(owner_id);
  if (owner == owners_.end())
    throw SchemeError("AA '" + aid_ + "': owner '" + owner_id + "' not onboarded");
  return abe::aa_keygen(*grp_, vk_, owner->second, user, assignment(user.uid));
}

AttributeAuthority::RevocationBundle AttributeAuthority::rekey_for(
    const UserPublicKey& user, const std::set<std::string>& remaining) {
  const abe::AuthorityVersionKey old_vk = vk_;
  vk_ = abe::aa_rekey(*grp_, old_vk, rng_).new_vk;

  RevocationBundle bundle;
  bundle.new_version = vk_.version;
  for (const auto& [owner_id, share] : owners_) {
    bundle.regenerated_keys.emplace(
        owner_id, abe::aa_regenerate_key(*grp_, vk_, share, user, remaining));
    bundle.update_keys.emplace(owner_id,
                               abe::aa_make_update_key(*grp_, old_vk, vk_, share));
  }
  return bundle;
}

AttributeAuthority::RevocationBundle AttributeAuthority::revoke(
    const UserPublicKey& user, const std::string& name) {
  auto it = assignments_.find(user.uid);
  if (it == assignments_.end() || it->second.erase(name) == 0)
    throw SchemeError("AA '" + aid_ + "': user '" + user.uid +
                      "' does not hold attribute '" + name + "'");
  return rekey_for(user, it->second);
}

AttributeAuthority::RevocationBundle AttributeAuthority::revoke_all(
    const UserPublicKey& user) {
  auto it = assignments_.find(user.uid);
  if (it == assignments_.end() || it->second.empty())
    throw SchemeError("AA '" + aid_ + "': user '" + user.uid +
                      "' holds no attributes to revoke");
  it->second.clear();
  return rekey_for(user, {});
}

// ---------------------------------------------------------- DataOwner --

DataOwner::DataOwner(std::shared_ptr<const pairing::Group> grp, std::string owner_id,
                     crypto::Drbg rng)
    : grp_(std::move(grp)), owner_id_(std::move(owner_id)), rng_(std::move(rng)) {
  mk_ = abe::owner_gen(*grp_, owner_id_, rng_);
  share_ = abe::owner_share(*grp_, mk_);
}

void DataOwner::learn_authority_key(const AuthorityPublicKey& pk) {
  authority_pks_.insert_or_assign(pk.aid, pk);
}

void DataOwner::learn_attribute_key(const PublicAttributeKey& pk) {
  attribute_pks_.insert_or_assign(pk.attr.qualified(), pk);
}

StoredFile DataOwner::protect(const std::string& file_id,
                              const std::vector<DataComponent>& components) {
  if (components.empty()) throw SchemeError("DataOwner: no components to protect");
  StoredFile file;
  file.file_id = file_id;
  file.owner_id = owner_id_;
  for (const DataComponent& comp : components) {
    const std::string ct_id = slot_ct_id(file_id, comp.name);
    if (records_.contains(ct_id))
      throw SchemeError("DataOwner: duplicate component id '" + ct_id + "'");

    // KEM: random GT seed -> content key.
    const GT seed = grp_->gt_random(rng_);
    const Bytes content_key = content_key_from_gt(seed);

    const lsss::LsssMatrix policy =
        lsss::LsssMatrix::from_policy(lsss::parse_policy(comp.policy));
    abe::EncryptionResult enc =
        abe::encrypt(*grp_, mk_, ct_id, seed, policy, authority_pks_, attribute_pks_, rng_);

    SealedSlot slot;
    slot.component_name = comp.name;
    slot.sealed_data =
        crypto::seal(content_key, comp.data, slot_aad(file_id, comp.name), rng_);
    slot.key_ct = std::move(enc.ct);

    records_.emplace(ct_id, std::move(enc.record));
    file.slots.push_back(std::move(slot));
  }
  return file;
}

bool DataOwner::apply_update(const UpdateKey& uk) {
  if (uk.owner_id != owner_id_) return false;
  const auto apk = authority_pks_.find(uk.aid);
  if (apk == authority_pks_.end()) return false;
  // Every attribute key of the authority in one batch (they share UK2),
  // which checks UK1 before any key changes.
  std::vector<PublicAttributeKey*> keys;
  std::vector<PublicAttributeKey> current;
  for (auto& [handle, pk] : attribute_pks_) {
    if (pk.attr.aid != uk.aid) continue;
    keys.push_back(&pk);
    current.push_back(pk);
  }
  const std::vector<PublicAttributeKey> updated =
      abe::apply_update_to_attribute_pks(*grp_, current, uk);
  apk->second = abe::apply_update_to_authority_pk(*grp_, apk->second, uk);
  for (size_t i = 0; i < keys.size(); ++i) *keys[i] = updated[i];
  return true;
}

std::vector<UpdateInfo> DataOwner::update_infos(const UpdateKey& uk) {
  std::vector<const EncryptionRecord*> records;
  records.reserve(records_.size());
  for (const auto& [ct_id, record] : records_) records.push_back(&record);
  std::vector<UpdateInfo> out = abe::owner_update_infos(*grp_, mk_, records, uk);
  for (const UpdateInfo& ui : out) records_.at(ui.ct_id).versions.at(uk.aid) = ui.to_version;
  return out;
}

const EncryptionRecord& DataOwner::record(const std::string& ct_id) const {
  const auto it = records_.find(ct_id);
  if (it == records_.end())
    throw SchemeError("DataOwner: no record of ciphertext '" + ct_id + "'");
  return it->second;
}

// ----------------------------------------------------------- Consumer --

struct Consumer::DecryptCache {
  mutable std::mutex mu;
  size_t capacity = 64;
  std::list<std::pair<Bytes, Bytes>> order;  // (key, plaintext); front = MRU
  std::map<Bytes, std::list<std::pair<Bytes, Bytes>>::iterator> index;
  telemetry::CounterSeries hits, misses;
};

Consumer::Consumer(std::shared_ptr<const pairing::Group> grp, UserPublicKey pk,
                   const std::string& instance)
    : grp_(std::move(grp)), pk_(std::move(pk)),
      cache_(std::make_unique<DecryptCache>()) {
  auto& reg = telemetry::MetricsRegistry::global();
  const telemetry::Labels l{{"instance", instance}, {"user", pk_.uid}};
  cache_->hits = reg.counter("maabe_decrypt_cache_hits_total", l);
  cache_->misses = reg.counter("maabe_decrypt_cache_misses_total", l);
}

Consumer::Consumer(Consumer&&) noexcept = default;
Consumer& Consumer::operator=(Consumer&&) noexcept = default;
Consumer::~Consumer() = default;

namespace {
std::string key_slot(const std::string& owner_id, const std::string& aid) {
  return owner_id + '\0' + aid;
}
}  // namespace

void Consumer::add_key(const UserSecretKey& sk) {
  if (sk.uid != pk_.uid)
    throw SchemeError("Consumer '" + pk_.uid + "': key issued to '" + sk.uid + "'");
  keys_.insert_or_assign(key_slot(sk.owner_id, sk.aid), sk);
  // Any key change (first issuance, regenerated key after revocation)
  // could alter what — and whether — a cached slot decrypts to.
  invalidate_decrypt_cache();
}

bool Consumer::has_key(const std::string& owner_id, const std::string& aid) const {
  return keys_.contains(key_slot(owner_id, aid));
}

const UserSecretKey& Consumer::key(const std::string& owner_id,
                                   const std::string& aid) const {
  const auto it = keys_.find(key_slot(owner_id, aid));
  if (it == keys_.end())
    throw SchemeError("Consumer '" + pk_.uid + "': no key for owner '" + owner_id +
                      "' authority '" + aid + "'");
  return it->second;
}

std::map<std::string, UserSecretKey> Consumer::keys_for_owner(
    const std::string& owner_id) const {
  std::map<std::string, UserSecretKey> out;
  const std::string prefix = owner_id + '\0';
  for (const auto& [slot, sk] : keys_) {
    if (slot.starts_with(prefix)) out.emplace(sk.aid, sk);
  }
  return out;
}

std::optional<abe::DecryptionPlan> Consumer::decryption_plan(const SealedSlot& slot) const {
  return abe::decryption_plan(*grp_, slot.key_ct, keys_for_owner(slot.key_ct.owner_id));
}

std::map<std::string, Bytes> Consumer::open_file(const StoredFile& file) const {
  std::map<std::string, Bytes> out;
  for (const SealedSlot& slot : file.slots) {
    const auto plan = decryption_plan(slot);
    if (!plan) continue;
    const Bytes key_ct = abe::serialize(*grp_, slot.key_ct);
    const Bytes cache_key = decrypt_cache_key(
        file.file_id, {slot.component_name, key_ct, slot.sealed_data});
    out.emplace(slot.component_name, open_slot(file.file_id, slot, *plan, cache_key));
  }
  return out;
}

Bytes Consumer::open_slot(const std::string& file_id, const SealedSlot& slot,
                          const abe::DecryptionPlan& plan, const Bytes& cache_key) const {
  if (!cache_key.empty()) {
    if (std::optional<Bytes> plaintext = cached_plaintext(cache_key)) return *plaintext;
    cache_->misses->inc();
  }
  const GT seed = abe::decrypt(*grp_, slot.key_ct, pk_, plan);
  const Bytes key = content_key_from_gt(seed);
  Bytes plaintext =
      crypto::open(key, slot.sealed_data, slot_aad(file_id, slot.component_name));
  if (!cache_key.empty()) {
    // Only a fully authenticated decrypt reaches this point — failures
    // threw above and are never cached.
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (!cache_->index.contains(cache_key)) {
      cache_->order.emplace_front(cache_key, plaintext);
      cache_->index[cache_key] = cache_->order.begin();
      while (cache_->index.size() > cache_->capacity) {
        cache_->index.erase(cache_->order.back().first);
        cache_->order.pop_back();
      }
    }
  }
  return plaintext;
}

size_t Consumer::key_storage_bytes() const {
  size_t total = 0;
  for (const auto& [slot, sk] : keys_) total += abe::serialize(*grp_, sk).size();
  return total;
}

namespace {
ByteView view_of(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}
}  // namespace

// The key covers the slot's complete ciphertext bytes: the ABE key-ct
// serialization embeds every per-authority version, and a revocation
// epoch rewrites C / C_i, so a re-encrypted slot can never collide with
// its pre-epoch plaintext. It hashes the bytes as they arrived, in the
// layout str(file_id) || str(component) || var_bytes(key_ct) ||
// var_bytes(sealed); because the encoding is canonical these are the
// bytes the decoded slot would re-serialize to. The consumer's own key
// state is handled by wholesale invalidation in add_key (which key
// updates install through) instead of being folded into the key —
// cheaper than hashing every held key per read.
Bytes Consumer::decrypt_cache_key(std::string_view file_id, const SlotView& slot) const {
  {
    std::lock_guard<std::mutex> lock(cache_->mu);
    if (cache_->capacity == 0) return {};
  }
  crypto::Sha256 h;
  for (const ByteView field : {view_of(file_id), view_of(slot.component_name), slot.key_ct,
                               slot.sealed_data}) {
    h.update(var_bytes_prefix(field));
    h.update(field);
  }
  return h.finish();
}

bool Consumer::decrypt_cached(const Bytes& cache_key) const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->index.contains(cache_key);
}

std::optional<Bytes> Consumer::cached_plaintext(const Bytes& cache_key) const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  const auto it = cache_->index.find(cache_key);
  if (it == cache_->index.end()) return std::nullopt;
  cache_->order.splice(cache_->order.begin(), cache_->order, it->second);
  cache_->hits->inc();
  return cache_->order.front().second;
}

void Consumer::invalidate_decrypt_cache() {
  std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->order.clear();
  cache_->index.clear();
}

void Consumer::set_decrypt_cache_capacity(size_t entries) {
  std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->capacity = entries;
  while (cache_->index.size() > cache_->capacity) {
    cache_->index.erase(cache_->order.back().first);
    cache_->order.pop_back();
  }
}

size_t Consumer::decrypt_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  return cache_->index.size();
}

uint64_t Consumer::decrypt_cache_hits() const { return cache_->hits->value(); }

uint64_t Consumer::decrypt_cache_misses() const { return cache_->misses->value(); }

void apply_key_updates(const pairing::Group& grp,
                       std::span<const KeyUpdateDelivery> deliveries) {
  // A copy of each (user, owner, authority) key the deliveries name,
  // updated in place by its deliveries in order, then installed.
  std::vector<std::pair<Consumer*, UserSecretKey>> keys;
  keys.reserve(deliveries.size());
  std::map<std::pair<Consumer*, std::string>, size_t> key_of;
  std::vector<abe::SecretKeyUpdate> jobs;
  jobs.reserve(deliveries.size());
  for (const KeyUpdateDelivery& d : deliveries) {
    if (!d.user->has_key(d.uk.owner_id, d.uk.aid)) continue;
    const auto [it, fresh] =
        key_of.try_emplace({d.user, key_slot(d.uk.owner_id, d.uk.aid)}, keys.size());
    if (fresh) keys.emplace_back(d.user, d.user->key(d.uk.owner_id, d.uk.aid));
    jobs.push_back({&keys[it->second].second, &d.uk});
  }
  if (jobs.empty()) return;
  telemetry::Span span = telemetry::Tracer::global().start_span("entities.key_updates");
  const size_t update_keys = abe::apply_updates_to_secret_keys(grp, jobs);
  if (span.active()) {
    span.attr("keys", static_cast<uint64_t>(jobs.size()));
    span.attr("update_keys", static_cast<uint64_t>(update_keys));
  }
  // Each key's version advanced: every plaintext its user cached
  // predates this revocation epoch (add_key drops the cache).
  for (const auto& [user, sk] : keys) user->add_key(sk);
}

}  // namespace maabe::cloud
