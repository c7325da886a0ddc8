#include "abe/scheme.h"

#include <algorithm>
#include <map>

#include "abe/serial.h"
#include "common/errors.h"
#include "engine/engine.h"

namespace maabe::abe {

using engine::CryptoEngine;
using lsss::Attribute;
using lsss::LsssMatrix;
using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

namespace {

const PublicAttributeKey& require_attribute_pk(
    const std::map<std::string, PublicAttributeKey>& pks, const std::string& handle) {
  const auto it = pks.find(handle);
  if (it == pks.end())
    throw SchemeError("encrypt: missing public attribute key for '" + handle + "'");
  return it->second;
}

// The owner's record of `ct`, encrypted with exponent s.
EncryptionRecord record_of(const Ciphertext& ct, const Zr& s) {
  const std::vector<Attribute>& rows = ct.policy.row_attributes();
  return {ct.id, s, {rows.begin(), rows.end()}, ct.versions};
}

}  // namespace

UserPublicKey ca_register_user(const Group& grp, const std::string& uid,
                               crypto::Drbg& rng, Zr* u_out) {
  if (uid.empty()) throw SchemeError("ca_register_user: empty UID");
  const Zr u = grp.zr_nonzero_random(rng);
  if (u_out != nullptr) *u_out = u;
  return {uid, grp.g_pow(u)};
}

OwnerMasterKey owner_gen(const Group& grp, const std::string& owner_id,
                         crypto::Drbg& rng) {
  if (owner_id.empty()) throw SchemeError("owner_gen: empty owner id");
  return {owner_id, grp.zr_nonzero_random(rng), grp.zr_nonzero_random(rng)};
}

OwnerSecretShare owner_share(const Group& grp, const OwnerMasterKey& mk) {
  const Zr beta_inv = mk.beta.inverse();
  return {mk.owner_id, grp.g_pow(beta_inv), mk.r * beta_inv};
}

AuthorityVersionKey aa_setup(const Group& grp, const std::string& aid,
                             crypto::Drbg& rng) {
  if (aid.empty()) throw SchemeError("aa_setup: empty AID");
  return {aid, 1, grp.zr_nonzero_random(rng)};
}

PublicAttributeKey aa_attribute_key(const Group& grp, const AuthorityVersionKey& vk,
                                    const std::string& name) {
  const Attribute attr{name, vk.aid};
  const Zr hx = grp.hash_to_zr(attribute_handle(attr));
  return {attr, vk.version, grp.g_pow(vk.alpha * hx)};
}

AuthorityPublicKey aa_public_key(const Group& grp, const AuthorityVersionKey& vk) {
  return {vk.aid, vk.version, grp.egg_pow(vk.alpha)};
}

UserSecretKey aa_keygen(const Group& grp, const AuthorityVersionKey& vk,
                        const OwnerSecretShare& owner, const UserPublicKey& user,
                        const std::set<std::string>& attribute_names) {
  UserSecretKey sk;
  sk.uid = user.uid;
  sk.aid = vk.aid;
  sk.owner_id = owner.owner_id;
  sk.version = vk.version;
  // All exponentiations go through the engine in one batch; the PK_UID
  // base repeats across every K_x row (and across keygen calls), so the
  // engine's table cache amortizes it.
  CryptoEngine& eng = CryptoEngine::for_group(grp);
  std::vector<CryptoEngine::G1Term> terms;
  terms.reserve(attribute_names.size() + 2);
  // K = PK_UID^{r/beta} * g^{alpha/beta} = (g^u)^{r/beta} * (g^{1/beta})^alpha.
  terms.push_back({user.pk, owner.r_over_beta});
  terms.push_back({owner.g_inv_beta, vk.alpha});
  std::vector<std::string> handles;
  handles.reserve(attribute_names.size());
  for (const std::string& name : attribute_names) {
    const Attribute attr{name, vk.aid};
    const std::string handle = attribute_handle(attr);
    const Zr hx = grp.hash_to_zr(handle);
    // K_x = PK_UID^{alpha * H(x)}.
    terms.push_back({user.pk, vk.alpha * hx});
    handles.push_back(handle);
  }
  const std::vector<G1> powers = eng.multi_exp_g1(terms);
  sk.k = powers[0] + powers[1];
  for (size_t i = 0; i < handles.size(); ++i)
    sk.kx.emplace(handles[i], powers[i + 2]);
  return sk;
}

EncryptionResult encrypt(const Group& grp, const OwnerMasterKey& mk,
                         const std::string& ct_id, const GT& message,
                         const LsssMatrix& policy,
                         const std::map<std::string, AuthorityPublicKey>& authority_pks,
                         const std::map<std::string, PublicAttributeKey>& attribute_pks,
                         crypto::Drbg& rng) {
  if (policy.rows() == 0) throw SchemeError("encrypt: empty policy");

  // Resolve involved authorities and check key-version coherence.
  std::set<std::string> involved;
  for (const Attribute& a : policy.row_attributes()) involved.insert(a.aid);

  Ciphertext ct;
  ct.id = ct_id;
  ct.owner_id = mk.owner_id;
  ct.policy = policy;

  GT blind = grp.gt_one();
  for (const std::string& aid : involved) {
    const auto it = authority_pks.find(aid);
    if (it == authority_pks.end())
      throw SchemeError("encrypt: missing authority public key for '" + aid + "'");
    blind = blind * it->second.e_gg_alpha;
    ct.versions.emplace(aid, it->second.version);
  }

  const Zr s = grp.zr_nonzero_random(rng);
  const std::vector<Zr> lambda = policy.share(grp, s, rng);
  CryptoEngine& eng = CryptoEngine::for_group(grp);

  // C = m * (prod_k e(g,g)^{alpha_k})^s. The blind is fixed per
  // authority set, so its table is cached across encryptions.
  ct.c = message * eng.multi_exp_gt({{blind, s}})[0];
  const Zr beta_s = mk.beta * s;

  // C_i = g^{r*lambda_i} * PK_{rho(i)}^{-beta*s}: validate and collect
  // the per-row exponents serially, then submit one batch: the l
  // g-powers, C' = g^{beta*s}, then the l PK-powers. Its g terms walk
  // g's table and the PK terms their cached ones, in shared passes.
  const size_t l = static_cast<size_t>(policy.rows());
  std::vector<CryptoEngine::G1Term> terms(2 * l + 1, {grp.g(), beta_s});
  for (size_t i = 0; i < l; ++i) {
    const Attribute& attr = policy.row_attribute(static_cast<int>(i));
    const PublicAttributeKey& pk = require_attribute_pk(attribute_pks, attr.qualified());
    if (pk.version != ct.versions.at(attr.aid))
      throw SchemeError("encrypt: attribute key version mismatch for '" +
                        attr.qualified() + "'");
    terms[i].exp = mk.r * lambda[i];
    terms[l + 1 + i].base = pk.key;
  }
  const std::vector<G1> parts = eng.multi_exp_g1(terms);
  ct.c_prime = parts[l];
  // All l differences go to affine with one inversion.
  std::vector<std::vector<G1>> pairs;
  pairs.reserve(l);
  for (size_t i = 0; i < l; ++i) pairs.push_back({parts[i], parts[l + 1 + i].neg()});
  ct.ci = grp.g1_sums(pairs);

  EncryptionRecord record = record_of(ct, s);
  return {std::move(ct), std::move(record)};
}

namespace {

// Shared precondition checks for decrypt / can_decrypt /
// decryption_plan. Returns the reconstruction coefficients, or nullopt
// with `error` filled in.
std::optional<std::vector<lsss::ReconCoeff>> reconstruction_for(
    const Group& grp, const Ciphertext& ct,
    const std::map<std::string, UserSecretKey>& secret_keys, std::string* error) {
  std::set<Attribute> have;
  for (const std::string& aid : ct.involved_authorities()) {
    const auto it = secret_keys.find(aid);
    if (it == secret_keys.end()) {
      *error = "decrypt: no secret key from involved authority '" + aid + "'";
      return std::nullopt;
    }
    const UserSecretKey& sk = it->second;
    if (sk.aid != aid) {
      *error = "decrypt: secret key map mislabeled for '" + aid + "'";
      return std::nullopt;
    }
    if (sk.owner_id != ct.owner_id) {
      *error = "decrypt: secret key issued for owner '" + sk.owner_id +
               "' cannot decrypt ciphertext of owner '" + ct.owner_id + "'";
      return std::nullopt;
    }
    if (sk.version != ct.versions.at(aid)) {
      *error = "decrypt: key version " + std::to_string(sk.version) +
               " does not match ciphertext version " +
               std::to_string(ct.versions.at(aid)) + " for authority '" + aid + "'";
      return std::nullopt;
    }
    for (const Attribute& a : sk.attributes()) have.insert(a);
  }

  auto coeffs = ct.policy.reconstruction(grp, have);
  if (!coeffs) {
    *error = "decrypt: attribute set does not satisfy the access structure";
    return std::nullopt;
  }
  return coeffs;
}

GT decrypt_with(const Group& grp, const Ciphertext& ct, const UserPublicKey& user,
                const std::map<std::string, UserSecretKey>& secret_keys,
                const std::vector<lsss::ReconCoeff>& coeffs) {
  const std::set<std::string> involved = ct.involved_authorities();
  const Zr n_a = grp.zr_from_u64(involved.size());
  CryptoEngine& eng = CryptoEngine::for_group(grp);

  // The whole decryption is ONE multi-pairing product: the denominator
  // rows (e(PK_UID, C_i) * e(C', K_{rho(i)}))^{w_i * n_A} and the
  // numerator terms prod_k e(C', K_{UID,AID_k}) folded with a negated
  // argument (e(a, -b) is exactly e(a, b)^{-1}). Every one of the
  // 2l + N_A pairings — the decryption bottleneck (DESIGN.md sections 5,
  // 12) — has PK_UID or C' as its first argument, and the engine folds
  // every small exponent into the second argument: an AND policy
  // (every w_i = 1) runs 2 loops, e(PK_UID, n_A * sum C_i) and
  // e(C', n_A * sum K_x - sum K), with no Miller-value power, and the
  // product shares one final exponentiation. A threshold policy's
  // full-size w_i keep a (first argument, exponent) class each.
  std::vector<CryptoEngine::PairTerm> terms;
  std::vector<Zr> exps;
  terms.reserve(2 * coeffs.size() + involved.size());
  exps.reserve(2 * coeffs.size() + involved.size());
  for (const auto& [row, w] : coeffs) {
    const Attribute& attr = ct.policy.row_attribute(row);
    const UserSecretKey& sk = secret_keys.at(attr.aid);
    const auto kx = sk.kx.find(attr.qualified());
    if (kx == sk.kx.end())
      throw SchemeError("decrypt: secret key lacks K_x for '" + attr.qualified() + "'");
    const Zr e = w * n_a;
    terms.push_back({user.pk, ct.ci[row]});
    terms.push_back({ct.c_prime, kx->second});
    exps.push_back(e);
    exps.push_back(e);
  }
  const Zr one = grp.zr_one();
  for (const std::string& aid : involved) {
    terms.push_back({ct.c_prime, secret_keys.at(aid).k.neg()});
    exps.push_back(one);
  }
  // C * denominator / numerator = m.
  return ct.c * eng.pairing_power_product(terms, exps);
}

}  // namespace

bool can_decrypt(const Group& grp, const Ciphertext& ct,
                 const std::map<std::string, UserSecretKey>& secret_keys) {
  std::string error;
  return reconstruction_for(grp, ct, secret_keys, &error).has_value();
}

std::optional<DecryptionPlan> decryption_plan(const Group& grp, const Ciphertext& ct,
                                              std::map<std::string, UserSecretKey> secret_keys) {
  std::string error;
  auto coeffs = reconstruction_for(grp, ct, secret_keys, &error);
  if (!coeffs) return std::nullopt;
  return DecryptionPlan{std::move(*coeffs), std::move(secret_keys)};
}

GT decrypt(const Group& grp, const Ciphertext& ct, const UserPublicKey& user,
           const std::map<std::string, UserSecretKey>& secret_keys) {
  std::string error;
  const auto coeffs = reconstruction_for(grp, ct, secret_keys, &error);
  if (!coeffs) throw SchemeError(error);
  return decrypt_with(grp, ct, user, secret_keys, *coeffs);
}

GT decrypt(const Group& grp, const Ciphertext& ct, const UserPublicKey& user,
           const DecryptionPlan& plan) {
  return decrypt_with(grp, ct, user, plan.secret_keys, plan.coeffs);
}

ReKeyResult aa_rekey(const Group& grp, const AuthorityVersionKey& vk,
                     crypto::Drbg& rng) {
  Zr fresh = grp.zr_nonzero_random(rng);
  while (fresh == vk.alpha) fresh = grp.zr_nonzero_random(rng);
  return {AuthorityVersionKey{vk.aid, vk.version + 1, fresh}};
}

UserSecretKey aa_regenerate_key(const Group& grp, const AuthorityVersionKey& new_vk,
                                const OwnerSecretShare& owner, const UserPublicKey& user,
                                const std::set<std::string>& remaining_attribute_names) {
  return aa_keygen(grp, new_vk, owner, user, remaining_attribute_names);
}

UpdateKey aa_make_update_key(const Group& grp, const AuthorityVersionKey& old_vk,
                             const AuthorityVersionKey& new_vk,
                             const OwnerSecretShare& owner) {
  (void)grp;
  if (old_vk.aid != new_vk.aid)
    throw SchemeError("aa_make_update_key: authority mismatch");
  if (new_vk.version != old_vk.version + 1)
    throw SchemeError("aa_make_update_key: non-consecutive versions");
  UpdateKey uk;
  uk.aid = old_vk.aid;
  uk.owner_id = owner.owner_id;
  uk.from_version = old_vk.version;
  uk.to_version = new_vk.version;
  // UK1 = (g^{1/beta})^{alpha' - alpha}, UK2 = alpha'/alpha.
  uk.uk1 = owner.g_inv_beta.mul(new_vk.alpha - old_vk.alpha);
  uk.uk2 = new_vk.alpha * old_vk.alpha.inverse();
  return uk;
}

size_t apply_updates_to_secret_keys(const Group& grp, std::span<const SecretKeyUpdate> jobs) {
  // Follow each key along its jobs, in job order: the version each job
  // must find, the K it leaves and the product of its UK2s. In the
  // order-r subgroup K_x^{a} then ^{b} is K_x^{ab mod r}, so a key's
  // jobs take one exponent.
  struct Chain {
    UserSecretKey* key;
    uint32_t version;
    G1 k;
    Zr uk2;
  };
  std::vector<Chain> chains;
  std::map<const UserSecretKey*, size_t> chain_of;
  std::vector<G1> uk1s;  // distinct, in first-appearance order
  for (const SecretKeyUpdate& job : jobs) {
    const UserSecretKey& sk = *job.key;
    const UpdateKey& uk = *job.uk;
    const auto [it, fresh] = chain_of.try_emplace(job.key, chains.size());
    if (fresh) chains.push_back({job.key, sk.version, sk.k, uk.uk2});
    Chain& c = chains[it->second];
    if (sk.aid != uk.aid) throw SchemeError("key update: authority mismatch");
    if (sk.owner_id != uk.owner_id) throw SchemeError("key update: owner mismatch");
    if (c.version != uk.from_version)
      throw SchemeError("key update: key at version " + std::to_string(c.version) +
                        ", update expects " + std::to_string(uk.from_version));
    c.version = uk.to_version;
    c.k = c.k + uk.uk1;
    if (!fresh) c.uk2 = c.uk2 * uk.uk2;
    if (std::find(uk1s.begin(), uk1s.end(), uk.uk1) == uk1s.end()) uk1s.push_back(uk.uk1);
  }
  if (chains.empty()) return 0;
  // Every K_x^{UK2} in one uncached engine batch, where it is counted,
  // with each distinct UK1's subgroup check as one more term: UK1^{r-1}
  // is -UK1 exactly when r*UK1 = 0, and every job's UK1 is one of them.
  // The terms run as lanes of 8-lane passes, each with its own scalar,
  // and the batch goes to affine with one inversion. A UK1 outside the
  // subgroup throws before any key changes.
  std::vector<CryptoEngine::G1Term> terms;
  for (const Chain& c : chains)
    for (const auto& [handle, key] : c.key->kx) terms.push_back({key, c.uk2});
  const size_t first_check = terms.size();
  const Zr minus_one = grp.zr_one().neg();
  for (const G1& uk1 : uk1s) terms.push_back({uk1, minus_one});
  const std::vector<G1> powers = CryptoEngine::for_group(grp).multi_exp_g1(terms, false);
  for (size_t i = 0; i < uk1s.size(); ++i)
    if (powers[first_check + i] != uk1s[i].neg()) throw WireError(kOutsideSubgroup);
  auto next = powers.begin();
  for (Chain& c : chains) {
    c.key->version = c.version;
    c.key->k = std::move(c.k);
    for (auto& [handle, key] : c.key->kx) key = *next++;
  }
  return uk1s.size();
}

UserSecretKey apply_update_to_secret_key(const Group& grp, const UserSecretKey& sk,
                                         const UpdateKey& uk) {
  UserSecretKey out = sk;
  const SecretKeyUpdate job{&out, &uk};
  apply_updates_to_secret_keys(grp, std::span(&job, 1));
  return out;
}

AuthorityPublicKey apply_update_to_authority_pk(const Group& grp,
                                                const AuthorityPublicKey& pk,
                                                const UpdateKey& uk) {
  (void)grp;
  if (pk.aid != uk.aid) throw SchemeError("authority pk update: authority mismatch");
  if (pk.version != uk.from_version)
    throw SchemeError("authority pk update: version mismatch");
  return {pk.aid, uk.to_version, pk.e_gg_alpha.pow(uk.uk2)};
}

PublicAttributeKey apply_update_to_attribute_pk(const Group& grp,
                                                const PublicAttributeKey& pk,
                                                const UpdateKey& uk) {
  return apply_update_to_attribute_pks(grp, {pk}, uk).front();
}

std::vector<PublicAttributeKey> apply_update_to_attribute_pks(
    const Group& grp, const std::vector<PublicAttributeKey>& pks, const UpdateKey& uk) {
  std::vector<CryptoEngine::G1Term> terms;
  terms.reserve(pks.size() + 1);
  for (const PublicAttributeKey& pk : pks) {
    if (pk.attr.aid != uk.aid) throw SchemeError("attribute pk update: authority mismatch");
    if (pk.version != uk.from_version)
      throw SchemeError("attribute pk update: version mismatch");
    terms.push_back({pk.key, uk.uk2});
  }
  // UK1's subgroup check rides as the last lane, as in a user's update.
  terms.push_back({uk.uk1, grp.zr_one().neg()});
  const std::vector<G1> updated = CryptoEngine::for_group(grp).multi_exp_g1(terms, false);
  if (updated.back() != uk.uk1.neg()) throw WireError(kOutsideSubgroup);
  std::vector<PublicAttributeKey> out;
  out.reserve(pks.size());
  for (size_t i = 0; i < pks.size(); ++i) out.push_back({pks[i].attr, uk.to_version, updated[i]});
  return out;
}

std::vector<UpdateInfo> owner_update_infos(const Group& grp, const OwnerMasterKey& mk,
                                           const std::vector<const EncryptionRecord*>& records,
                                           const UpdateKey& uk) {
  if (uk.owner_id != mk.owner_id)
    throw SchemeError("owner_update_infos: update key for owner '" + uk.owner_id + "'");
  // PK_x / PK~_x = g^{(alpha - alpha~)H(x)} = UK1^{-beta*H(x)}, so every
  // UI_x = (PK_x / PK~_x)^{beta*s} = UK1^{-beta^2*s*H(x)} is a power of
  // the epoch's one base UK1: no attribute key, no subtraction and no
  // per-row inversion. Exact for UK1 in the order-r subgroup, which the
  // owner's deserialize_update_key checks.
  const Zr neg_beta_sq = (mk.beta * mk.beta).neg();
  std::map<std::string, Zr> hx;  // H(x), once per attribute per pass
  std::vector<UpdateInfo> out;
  // One exponent per (record, attribute of uk.aid): its UI's index in
  // `out` and its handle.
  std::vector<size_t> info_of;
  std::vector<std::string> handles;
  std::vector<Zr> exps;
  for (const EncryptionRecord* record : records) {
    const auto version = record->versions.find(uk.aid);
    if (version == record->versions.end() || version->second != uk.from_version) continue;
    UpdateInfo& ui = out.emplace_back();
    ui.aid = uk.aid;
    ui.owner_id = mk.owner_id;
    ui.ct_id = record->ct_id;
    ui.from_version = uk.from_version;
    ui.to_version = uk.to_version;
    const Zr k = neg_beta_sq * record->s;
    for (const Attribute& attr : record->attributes) {
      if (attr.aid != uk.aid) continue;
      const std::string handle = attribute_handle(attr);
      auto it = hx.find(handle);
      if (it == hx.end()) it = hx.emplace(handle, grp.hash_to_zr(handle)).first;
      info_of.push_back(out.size() - 1);
      handles.push_back(handle);
      exps.push_back(k * it->second);
    }
  }
  const std::vector<G1> powers = CryptoEngine::for_group(grp).base_pow_batch(uk.uk1, exps);
  for (size_t j = 0; j < powers.size(); ++j) out[info_of[j]].ui.emplace(handles[j], powers[j]);
  return out;
}

UpdateInfo owner_update_info(const Group& grp, const OwnerMasterKey& mk,
                             const EncryptionRecord& record, const Ciphertext& ct,
                             const std::map<std::string, PublicAttributeKey>& old_attribute_pks,
                             const std::map<std::string, PublicAttributeKey>& new_attribute_pks,
                             const std::string& aid) {
  (void)grp;
  if (record.ct_id != ct.id) throw SchemeError("owner_update_info: record/ciphertext mismatch");
  if (ct.owner_id != mk.owner_id) throw SchemeError("owner_update_info: foreign ciphertext");
  const auto version = ct.versions.find(aid);
  if (version == ct.versions.end())
    throw SchemeError("owner_update_info: ciphertext '" + ct.id +
                      "' does not involve authority '" + aid + "'");

  UpdateInfo ui;
  ui.aid = aid;
  ui.owner_id = mk.owner_id;
  ui.ct_id = ct.id;
  ui.from_version = version->second;
  ui.to_version = ui.from_version + 1;

  const Zr beta_s = mk.beta * record.s;
  for (const Attribute& attr : record_of(ct, record.s).attributes) {
    if (attr.aid != aid) continue;
    const std::string handle = attr.qualified();
    const auto old_it = old_attribute_pks.find(handle);
    const auto new_it = new_attribute_pks.find(handle);
    if (old_it == old_attribute_pks.end() || new_it == new_attribute_pks.end())
      throw SchemeError("owner_update_info: missing attribute key for '" + handle + "'");
    if (new_it->second.version != ui.to_version)
      throw SchemeError("owner_update_info: new attribute key has wrong version");
    // UI_x = (PK_x / PK'_x)^{beta*s}, the paper's formula.
    ui.ui.emplace(handle, (old_it->second.key - new_it->second.key).mul(beta_s));
  }
  return ui;
}

void reencrypt(const Group& grp, Ciphertext* ct, const UpdateKey& uk,
               const UpdateInfo& ui) {
  const UpdateInfo* info = &ui;
  reencrypt_batch(grp, std::span(&ct, 1), uk, std::span(&info, 1));
}

void reencrypt_batch(const Group& grp, std::span<Ciphertext* const> cts, const UpdateKey& uk,
                     std::span<const UpdateInfo* const> infos,
                     const std::function<void(size_t)>& before_write) {
  if (infos.size() != cts.size())
    throw SchemeError("reencrypt: one update info per ciphertext");
  // Check everything before computing anything. Each ciphertext's rows
  // labeled by this authority get C_i + UI_{rho(i)}: collected as
  // (ciphertext, row) with their point pair, for one g1_sums.
  std::vector<G1> c_primes;
  std::vector<std::pair<size_t, int>> rows;
  std::vector<std::vector<G1>> pairs;
  c_primes.reserve(cts.size());
  for (size_t k = 0; k < cts.size(); ++k) {
    const Ciphertext* ct = cts[k];
    const UpdateInfo& ui = *infos[k];
    if (ct == nullptr) throw SchemeError("reencrypt: null ciphertext");
    if (uk.aid != ui.aid || uk.to_version != ui.to_version)
      throw SchemeError("reencrypt: update key / update info mismatch");
    if (ui.ct_id != ct->id) throw SchemeError("reencrypt: update info for another ciphertext");
    if (uk.owner_id != ct->owner_id) throw SchemeError("reencrypt: owner mismatch");
    const auto ver = ct->versions.find(uk.aid);
    if (ver == ct->versions.end())
      throw SchemeError("reencrypt: ciphertext does not involve authority '" + uk.aid + "'");
    if (ver->second != uk.from_version)
      throw SchemeError("reencrypt: ciphertext at version " + std::to_string(ver->second) +
                        ", update expects " + std::to_string(uk.from_version));
    for (int i = 0; i < ct->policy.rows(); ++i) {
      const lsss::Attribute& attr = ct->policy.row_attribute(i);
      if (attr.aid != uk.aid) continue;
      const auto it = ui.ui.find(attr.qualified());
      if (it == ui.ui.end())
        throw SchemeError("reencrypt: update info lacks UI for '" + attr.qualified() + "'");
      rows.emplace_back(k, i);
      pairs.push_back({ct->ci[i], it->second});
    }
    c_primes.push_back(ct->c_prime);
  }
  // C~ = C * e(UK1, C'): every slot against the epoch's one UK1, as one
  // engine batch on UK1's line table (CloudServer warms it first).
  const std::vector<GT> factors = CryptoEngine::for_group(grp).pair_batch(uk.uk1, c_primes);
  const std::vector<G1> sums = grp.g1_sums(pairs);
  size_t row = 0;
  for (size_t k = 0; k < cts.size(); ++k) {
    if (before_write) before_write(k);
    Ciphertext& ct = *cts[k];
    ct.c = ct.c * factors[k];
    for (; row < rows.size() && rows[row].first == k; ++row)
      ct.ci[rows[row].second] = sums[row];
    ct.versions.at(uk.aid) = uk.to_version;
  }
}

}  // namespace maabe::abe
