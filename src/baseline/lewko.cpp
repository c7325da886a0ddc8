#include "baseline/lewko.h"

#include "common/errors.h"
#include "engine/engine.h"

namespace maabe::baseline {

using engine::CryptoEngine;
using lsss::Attribute;
using lsss::LsssMatrix;
using pairing::G1;
using pairing::Group;
using pairing::GT;
using pairing::Zr;

std::set<Attribute> LewkoUserKey::attributes() const {
  std::set<Attribute> out;
  for (const auto& [handle, key] : k) {
    const size_t at = handle.rfind('@');
    if (at == std::string::npos)
      throw SchemeError("LewkoUserKey: malformed attribute handle '" + handle + "'");
    out.insert(Attribute{handle.substr(0, at), handle.substr(at + 1)});
  }
  return out;
}

LewkoAuthorityKeys lewko_authority_setup(const Group& grp, const std::string& aid,
                                         const std::set<std::string>& attribute_names,
                                         crypto::Drbg& rng) {
  if (aid.empty()) throw SchemeError("lewko_authority_setup: empty AID");
  LewkoAuthorityKeys out;
  out.aid = aid;
  for (const std::string& name : attribute_names) {
    const Attribute attr{name, aid};
    out.secrets.emplace(attr.qualified(),
                        std::make_pair(grp.zr_nonzero_random(rng),
                                       grp.zr_nonzero_random(rng)));
  }
  return out;
}

LewkoAttributePublicKey lewko_attribute_pk(const Group& grp,
                                           const LewkoAuthorityKeys& authority,
                                           const std::string& name) {
  const Attribute attr{name, authority.aid};
  const auto it = authority.secrets.find(attr.qualified());
  if (it == authority.secrets.end())
    throw SchemeError("lewko_attribute_pk: authority does not manage '" +
                      attr.qualified() + "'");
  const auto& [alpha, y] = it->second;
  return {attr, grp.egg_pow(alpha), grp.g_pow(y)};
}

G1 lewko_hash_gid(const Group& grp, const std::string& gid) {
  return grp.hash_to_g1(std::string("lewko/gid/" + gid));
}

void lewko_keygen(const Group& grp, const LewkoAuthorityKeys& authority,
                  const std::string& gid, const std::set<std::string>& attribute_names,
                  LewkoUserKey* key) {
  if (key == nullptr) throw SchemeError("lewko_keygen: null key");
  if (key->gid.empty()) {
    key->gid = gid;
  } else if (key->gid != gid) {
    throw SchemeError("lewko_keygen: key belongs to another GID");
  }
  const G1 h_gid = lewko_hash_gid(grp, gid);
  // Validate + collect serially, then batch: g^{alpha_x} over the fixed
  // base and H(GID)^{y_x} over the per-user base (cached across the
  // attributes of one call and across calls for the same GID).
  std::vector<std::string> handles;
  std::vector<CryptoEngine::G1Term> g_terms, h_terms;
  for (const std::string& name : attribute_names) {
    const Attribute attr{name, authority.aid};
    const auto it = authority.secrets.find(attr.qualified());
    if (it == authority.secrets.end())
      throw SchemeError("lewko_keygen: authority does not manage '" + attr.qualified() + "'");
    const auto& [alpha, y] = it->second;
    handles.push_back(attr.qualified());
    g_terms.push_back({grp.g(), alpha});
    h_terms.push_back({h_gid, y});
  }
  CryptoEngine& eng = CryptoEngine::for_group(grp);
  const std::vector<G1> g_parts = eng.multi_exp_g1(g_terms);
  const std::vector<G1> h_parts = eng.multi_exp_g1(h_terms);
  // K_x = g^{alpha_x} * H(GID)^{y_x}.
  for (size_t i = 0; i < handles.size(); ++i)
    key->k.insert_or_assign(handles[i], g_parts[i] + h_parts[i]);
}

LewkoCiphertext lewko_encrypt(const Group& grp, const GT& message,
                              const LsssMatrix& policy,
                              const std::map<std::string, LewkoAttributePublicKey>& pks,
                              crypto::Drbg& rng) {
  if (policy.rows() == 0) throw SchemeError("lewko_encrypt: empty policy");

  const Zr s = grp.zr_nonzero_random(rng);
  const std::vector<Zr> lambda = policy.share(grp, s, rng);
  const std::vector<Zr> omega = policy.share(grp, grp.zr_zero(), rng);

  LewkoCiphertext ct;
  ct.policy = policy;
  ct.c0 = message * grp.egg_pow(s);
  // Serial pass: validation and the rng draws (sequence is part of the
  // deterministic contract). Parallel pass: the five exponentiation
  // batches; the per-attribute pk bases recur across encryptions and hit
  // the engine's table cache.
  std::vector<CryptoEngine::GtTerm> lambda_terms, alpha_terms;
  std::vector<CryptoEngine::G1Term> r_terms, y_terms, omega_terms;
  for (int i = 0; i < policy.rows(); ++i) {
    const std::string handle = policy.row_attribute(i).qualified();
    const auto it = pks.find(handle);
    if (it == pks.end())
      throw SchemeError("lewko_encrypt: missing public key for '" + handle + "'");
    const Zr r = grp.zr_nonzero_random(rng);
    lambda_terms.push_back({grp.gt_generator(), lambda[i]});
    alpha_terms.push_back({it->second.e_gg_alpha, r});
    r_terms.push_back({grp.g(), r});
    y_terms.push_back({it->second.g_y, r});
    omega_terms.push_back({grp.g(), omega[i]});
  }
  CryptoEngine& eng = CryptoEngine::for_group(grp);
  const std::vector<GT> egg_lambda = eng.multi_exp_gt(lambda_terms);
  const std::vector<GT> alpha_r = eng.multi_exp_gt(alpha_terms);
  const std::vector<G1> g_r = eng.multi_exp_g1(r_terms);
  const std::vector<G1> y_r = eng.multi_exp_g1(y_terms);
  const std::vector<G1> g_omega = eng.multi_exp_g1(omega_terms);
  ct.c1.reserve(policy.rows());
  ct.c2.reserve(policy.rows());
  ct.c3.reserve(policy.rows());
  for (int i = 0; i < policy.rows(); ++i) {
    ct.c1.push_back(egg_lambda[i] * alpha_r[i]);
    ct.c2.push_back(g_r[i]);
    ct.c3.push_back(y_r[i] + g_omega[i]);
  }
  return ct;
}

GT lewko_decrypt(const Group& grp, const LewkoCiphertext& ct, const LewkoUserKey& key) {
  const auto coeffs = ct.policy.reconstruction(grp, key.attributes());
  if (!coeffs)
    throw SchemeError("lewko_decrypt: attributes do not satisfy the access structure");

  const G1 h_gid = lewko_hash_gid(grp, key.gid);
  // The 2l pairings go through the shared-final-exp kernel:
  // (e(H(GID), C3_i) / e(K_x, C2_i))^{w_i} becomes two kernel terms with
  // exponent w_i, the divisor's point negated (e(K_x, -C2_i) is exactly
  // e(K_x, C2_i)^{-1}). H(GID) repeats as first argument, so the engine
  // merges its terms into one Miller loop per full-size w_i, plus one
  // for all the small w_i it folds into C3_i. The C1_i^{w_i}
  // factors stay a GT multi-exponentiation.
  CryptoEngine& eng = CryptoEngine::for_group(grp);
  std::vector<CryptoEngine::PairTerm> pair_terms;
  std::vector<CryptoEngine::GtTerm> pows;
  std::vector<Zr> exps;
  pair_terms.reserve(2 * coeffs->size());
  exps.reserve(2 * coeffs->size());
  pows.reserve(coeffs->size());
  for (const auto& [row, w] : *coeffs) {
    const std::string handle = ct.policy.row_attribute(row).qualified();
    const auto kx = key.k.find(handle);
    if (kx == key.k.end())
      throw SchemeError("lewko_decrypt: key lacks '" + handle + "'");
    // C1_i * e(H(GID), C3_i) / e(K_x, C2_i) = e(g,g)^{lambda_i} e(H,g)^{omega_i}.
    pair_terms.push_back({h_gid, ct.c3[row]});
    pair_terms.push_back({kx->second, ct.c2[row].neg()});
    exps.push_back(w);
    exps.push_back(w);
    pows.push_back({ct.c1[row], w});
  }
  GT acc = eng.pairing_power_product(pair_terms, exps);
  for (const GT& t : eng.multi_exp_gt(pows, /*cache_bases=*/false)) acc = acc * t;
  return ct.c0 / acc;
}

}  // namespace maabe::baseline
