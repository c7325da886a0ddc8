// Key material and ciphertext types of the Yang-Jia multi-authority
// CP-ABE scheme (ICDCS 2012).
//
// Notation mapping to the paper (Section V-B):
//   UserPublicKey         PK_UID = g^u              (issued by the CA)
//   OwnerMasterKey        MK_o = {beta, r}
//   OwnerSecretShare      SK_o = {g^{1/beta}, r/beta}  (owner -> each AA)
//   AuthorityVersionKey   VK_AID = alpha_AID        (secret, versioned)
//   AuthorityPublicKey    PK_{o,AID} = e(g,g)^{alpha_AID}
//   PublicAttributeKey    PK_{x,AID} = g^{alpha_AID * H(x)}
//   UserSecretKey         SK_{UID,AID} = (K, {K_x})
//   Ciphertext            CT = (C, C', {C_i}) + access structure
//   UpdateKey             UK_AID = (UK1 = g^{(a'-a)/beta}, UK2 = a'/a)
//   UpdateInfo            UI_{x,AID} = (PK_x / PK'_x)^{beta*s}
//
// Keys carry explicit version numbers so that the revocation protocol
// (ReKey / ReEncrypt) can detect stale material instead of silently
// failing to decrypt.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lsss/matrix.h"
#include "pairing/group.h"

namespace maabe::abe {

/// The string fed to the random oracle H(.) for attribute x managed by
/// authority aid — the qualified "name@aid" form, so that same-named
/// attributes of different authorities stay distinguishable (Section V-A).
inline std::string attribute_handle(const lsss::Attribute& attr) {
  return attr.qualified();
}

/// CA-issued user credential. The exponent u stays with the CA; everyone
/// else (AAs, owners, the decryption algorithm) only sees g^u.
struct UserPublicKey {
  std::string uid;
  pairing::G1 pk;  // g^u
};

/// Owner's master key MK_o. Never leaves the owner.
struct OwnerMasterKey {
  std::string owner_id;
  pairing::Zr beta;
  pairing::Zr r;
};

/// SK_o — what the owner hands each AA over a secure channel so the AA
/// can issue per-owner user secret keys without learning beta or r.
struct OwnerSecretShare {
  std::string owner_id;
  pairing::G1 g_inv_beta;    // g^{1/beta}
  pairing::Zr r_over_beta;   // r / beta
};

/// VK_AID — the authority's current version key. Bumping the version
/// (attribute revocation) replaces alpha wholesale.
struct AuthorityVersionKey {
  std::string aid;
  uint32_t version = 1;
  pairing::Zr alpha;
};

/// PK_{o,AID} = e(g,g)^{alpha_AID}: used by owners during encryption.
struct AuthorityPublicKey {
  std::string aid;
  uint32_t version = 1;
  pairing::GT e_gg_alpha;
};

/// PK_{x,AID} = g^{alpha_AID * H(x)} for one attribute.
struct PublicAttributeKey {
  lsss::Attribute attr;
  uint32_t version = 1;
  pairing::G1 key;
};

/// SK_{UID,AID} — per (user, authority, owner) decryption key.
struct UserSecretKey {
  std::string uid;
  std::string aid;
  std::string owner_id;
  uint32_t version = 1;
  pairing::G1 k;  // (g^u)^{r/beta} * g^{alpha/beta}
  /// Keyed by the qualified attribute handle ("name@aid").
  std::map<std::string, pairing::G1> kx;  // (g^u)^{alpha * H(x)}

  std::set<lsss::Attribute> attributes() const;
};

/// CT — encrypts a GT element under an LSSS access structure.
struct Ciphertext {
  std::string id;  ///< Owner-chosen identifier (revocation bookkeeping).
  std::string owner_id;
  lsss::LsssMatrix policy;
  pairing::GT c;               // m * (prod_k e(g,g)^{alpha_k})^s
  pairing::G1 c_prime;         // g^{beta*s}
  std::vector<pairing::G1> ci; // g^{r*lambda_i} * PK_{rho(i)}^{-beta*s}
  /// Version of each involved authority's keys at encryption time.
  std::map<std::string, uint32_t> versions;

  /// The involved authority set I_A.
  std::set<std::string> involved_authorities() const;
};

/// The owner's per-ciphertext revocation state, and all it keeps of
/// ciphertext `ct_id`: UI_x = (PK_x/PK'_x)^{beta*s} = UK1^{-beta^2*s*H(x)}
/// needs s, the row attributes x of the re-keyed authority and that
/// authority's current version, and nothing else of the ciphertext (the
/// paper implicitly assumes owners can recompute it). Each epoch
/// advances `versions`.
struct EncryptionRecord {
  std::string ct_id;
  pairing::Zr s;
  std::set<lsss::Attribute> attributes;      ///< Distinct policy row attributes.
  std::map<std::string, uint32_t> versions;  ///< AID -> version, as in Ciphertext.
};

/// UK_AID for one owner. UK1 depends on the owner's beta, so each owner
/// (and its users' keys) gets its own UK1; UK2 = alpha'/alpha is shared.
struct UpdateKey {
  std::string aid;
  std::string owner_id;
  uint32_t from_version = 0;
  uint32_t to_version = 0;
  pairing::G1 uk1;  // g^{(alpha' - alpha)/beta}
  pairing::Zr uk2;  // alpha' / alpha
};

/// UI_AID for one ciphertext: per-attribute correction factors the cloud
/// server multiplies into the affected C_i rows.
struct UpdateInfo {
  std::string aid;
  std::string owner_id;
  std::string ct_id;
  uint32_t from_version = 0;
  uint32_t to_version = 0;
  /// Keyed by qualified attribute handle; value (PK_x / PK'_x)^{beta*s}.
  std::map<std::string, pairing::G1> ui;
};

}  // namespace maabe::abe
