#include "baseline/waters.h"

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

std::set<Attribute> WatersSecretKey::attributes() const {
  std::set<Attribute> out;
  for (const auto& [handle, key] : kx) {
    const size_t at = handle.rfind('@');
    if (at == std::string::npos)
      throw SchemeError("WatersSecretKey: malformed attribute handle '" + handle + "'");
    out.insert(Attribute{handle.substr(0, at), handle.substr(at + 1)});
  }
  return out;
}

WatersSetupResult waters_setup(const Group& grp, crypto::Drbg& rng) {
  const Zr alpha = grp.zr_nonzero_random(rng);
  const Zr a = grp.zr_nonzero_random(rng);
  WatersSetupResult out;
  out.pk.e_gg_alpha = grp.egg_pow(alpha);
  out.pk.g_a = grp.g_pow(a);
  out.msk.g_alpha = grp.g_pow(alpha);
  return out;
}

G1 waters_hash_attribute(const Group& grp, const Attribute& attr) {
  return grp.hash_to_g1(std::string("waters/attr/" + attr.qualified()));
}

WatersSecretKey waters_keygen(const Group& grp, const WatersPublicKey& pk,
                              const WatersMasterKey& msk,
                              const std::set<Attribute>& attrs, crypto::Drbg& rng) {
  const Zr t = grp.zr_nonzero_random(rng);
  WatersSecretKey sk;
  sk.l = grp.g_pow(t);
  // One engine batch: g_a^t plus H(x)^t per attribute. The attribute
  // hashes (try-and-increment, expensive) are computed as a parallel
  // sweep first; their bases recur across keygen calls, so they cache.
  CryptoEngine& eng = CryptoEngine::for_group(grp);
  const std::vector<Attribute> ordered(attrs.begin(), attrs.end());
  std::vector<G1> hashes(ordered.size());
  eng.parallel_for(ordered.size(), [&](size_t i) {
    hashes[i] = waters_hash_attribute(grp, ordered[i]);
  });
  std::vector<CryptoEngine::G1Term> terms;
  terms.reserve(ordered.size() + 1);
  terms.push_back({pk.g_a, t});
  for (const G1& hx : hashes) terms.push_back({hx, t});
  const std::vector<G1> powers = eng.multi_exp_g1(terms);
  sk.k = msk.g_alpha + powers[0];
  for (size_t i = 0; i < ordered.size(); ++i)
    sk.kx.emplace(ordered[i].qualified(), powers[i + 1]);
  return sk;
}

WatersCiphertext waters_encrypt(const Group& grp, const WatersPublicKey& pk,
                                const GT& message, const LsssMatrix& policy,
                                crypto::Drbg& rng) {
  if (policy.rows() == 0) throw SchemeError("waters_encrypt: empty policy");
  const Zr s = grp.zr_nonzero_random(rng);
  const std::vector<Zr> lambda = policy.share(grp, s, rng);

  WatersCiphertext ct;
  ct.policy = policy;
  ct.c_prime = grp.g_pow(s);
  // Draw all per-row randomness serially first (the rng sequence is part
  // of the deterministic contract), then batch everything else.
  std::vector<Zr> ri;
  ri.reserve(policy.rows());
  for (int i = 0; i < policy.rows(); ++i) ri.push_back(grp.zr_nonzero_random(rng));

  CryptoEngine& eng = CryptoEngine::for_group(grp);
  ct.c = message * eng.multi_exp_gt({{pk.e_gg_alpha, s}})[0];
  std::vector<G1> hashes(policy.rows());
  eng.parallel_for(static_cast<size_t>(policy.rows()), [&](size_t i) {
    hashes[i] = waters_hash_attribute(grp, policy.row_attribute(static_cast<int>(i)));
  });
  std::vector<CryptoEngine::G1Term> terms, g_terms;
  terms.reserve(2 * policy.rows());
  g_terms.reserve(policy.rows());
  for (int i = 0; i < policy.rows(); ++i) {
    terms.push_back({pk.g_a, lambda[i]});
    terms.push_back({hashes[i], ri[i]});
    g_terms.push_back({grp.g(), ri[i]});
  }
  const std::vector<G1> powers = eng.multi_exp_g1(terms);
  const std::vector<G1> di = eng.multi_exp_g1(g_terms);
  ct.ci.reserve(policy.rows());
  ct.di.reserve(policy.rows());
  for (int i = 0; i < policy.rows(); ++i) {
    ct.ci.push_back(powers[2 * i] + powers[2 * i + 1].neg());
    ct.di.push_back(di[i]);
  }
  return ct;
}

GT waters_decrypt(const Group& grp, const WatersCiphertext& ct,
                  const WatersSecretKey& sk) {
  const auto coeffs = ct.policy.reconstruction(grp, sk.attributes());
  if (!coeffs)
    throw SchemeError("waters_decrypt: attributes do not satisfy the access structure");

  // One multi-pairing product for the 2l + 1 pairings: row terms raised
  // to w_i on the unreduced Miller values, the blinding pairing folded
  // with a negated argument (e(C', -K) = e(C', K)^{-1}), a single
  // shared final exponentiation. L repeats across rows as the first
  // argument, so the engine merges the L terms into one Miller loop per
  // full-size w_i, plus one for all the small w_i it folds into C_i;
  // each D_i is its own.
  CryptoEngine& eng = CryptoEngine::for_group(grp);
  std::vector<CryptoEngine::PairTerm> pair_terms;
  std::vector<Zr> exps;
  pair_terms.reserve(2 * coeffs->size() + 1);
  exps.reserve(2 * coeffs->size() + 1);
  for (const auto& [row, w] : *coeffs) {
    const std::string handle = ct.policy.row_attribute(row).qualified();
    const auto kx = sk.kx.find(handle);
    if (kx == sk.kx.end())
      throw SchemeError("waters_decrypt: key lacks '" + handle + "'");
    pair_terms.push_back({sk.l, ct.ci[row]});
    pair_terms.push_back({ct.di[row], kx->second});
    exps.push_back(w);
    exps.push_back(w);
  }
  pair_terms.push_back({ct.c_prime, sk.k.neg()});
  exps.push_back(grp.zr_one());
  // C * denom / e(C', K) = m.
  return ct.c * eng.pairing_power_product(pair_terms, exps);
}

}  // namespace maabe::baseline
