// The Yang-Jia multi-authority CP-ABE scheme (ICDCS 2012, Section V).
//
// Stateless algorithm layer: every function is a pure mapping from keys
// to keys/ciphertexts. Entity state (who holds which key, channels,
// storage) lives in the cloud/ layer.
//
// Algorithm inventory (paper Definition 3):
//   Setup      -> ca_register_user / (AIDs are plain strings)
//   OwnerGen   -> owner_gen + owner_share
//   AAGen      -> aa_setup + aa_attribute_key
//   KeyGen     -> aa_public_key (owner side) + aa_keygen (user side)
//   Encrypt    -> encrypt
//   Decrypt    -> decrypt
//   ReKey      -> aa_rekey + aa_make_update_key + apply_update_* +
//                 owner_update_infos
//   ReEncrypt  -> reencrypt
#pragma once

#include <functional>
#include <span>

#include "abe/types.h"
#include "crypto/drbg.h"

namespace maabe::abe {

// ------------------------------------------------------------ Setup --

/// CA side of Setup: authenticates a user, assigns the global UID and
/// creates PK_UID = g^u. The secret exponent u is returned through
/// `u_out` for the CA's archive; it is not needed for decryption.
UserPublicKey ca_register_user(const pairing::Group& grp, const std::string& uid,
                               crypto::Drbg& rng, pairing::Zr* u_out = nullptr);

// --------------------------------------------------------- OwnerGen --

/// Owner's master key MK_o = {beta, r}.
OwnerMasterKey owner_gen(const pairing::Group& grp, const std::string& owner_id,
                         crypto::Drbg& rng);

/// SK_o = {g^{1/beta}, r/beta}, shared with every AA.
OwnerSecretShare owner_share(const pairing::Group& grp, const OwnerMasterKey& mk);

// ------------------------------------------------------------ AAGen --

/// Authority setup: fresh version key alpha_AID (version 1).
AuthorityVersionKey aa_setup(const pairing::Group& grp, const std::string& aid,
                             crypto::Drbg& rng);

/// PK_{x,AID} = g^{alpha * H(x)} for attribute `name` under this AA.
PublicAttributeKey aa_attribute_key(const pairing::Group& grp,
                                    const AuthorityVersionKey& vk,
                                    const std::string& name);

// ----------------------------------------------------------- KeyGen --

/// PK_{o,AID} = e(g,g)^{alpha_AID}, sent to owners for encryption.
AuthorityPublicKey aa_public_key(const pairing::Group& grp,
                                 const AuthorityVersionKey& vk);

/// SK_{UID,AID}: issues keys for `attribute_names` (names local to this
/// AA) to the user, bound to the owner via SK_o.
UserSecretKey aa_keygen(const pairing::Group& grp, const AuthorityVersionKey& vk,
                        const OwnerSecretShare& owner, const UserPublicKey& user,
                        const std::set<std::string>& attribute_names);

// ---------------------------------------------------------- Encrypt --

struct EncryptionResult {
  Ciphertext ct;
  EncryptionRecord record;  ///< Owner keeps this for future re-keying.
};

/// Encrypts GT element `message` under `policy`.
/// `authority_pks` is keyed by AID and must cover every authority in the
/// policy; `attribute_pks` is keyed by qualified attribute handle and
/// must cover every row attribute. All keys must share one version per
/// authority. Throws SchemeError on missing/mismatched material.
EncryptionResult encrypt(const pairing::Group& grp, const OwnerMasterKey& mk,
                         const std::string& ct_id, const pairing::GT& message,
                         const lsss::LsssMatrix& policy,
                         const std::map<std::string, AuthorityPublicKey>& authority_pks,
                         const std::map<std::string, PublicAttributeKey>& attribute_pks,
                         crypto::Drbg& rng);

// ---------------------------------------------------------- Decrypt --

/// Decrypts with the user's per-authority secret keys (keyed by AID).
/// Requires a key from every involved authority, version agreement with
/// the ciphertext, and an attribute set satisfying the access structure.
/// Throws SchemeError otherwise.
pairing::GT decrypt(const pairing::Group& grp, const Ciphertext& ct,
                    const UserPublicKey& user,
                    const std::map<std::string, UserSecretKey>& secret_keys);

/// True when `secret_keys` can decrypt `ct` (without doing the pairings).
bool can_decrypt(const pairing::Group& grp, const Ciphertext& ct,
                 const std::map<std::string, UserSecretKey>& secret_keys);

/// Everything Decrypt needs besides the ciphertext and PK_UID: the LSSS
/// reconstruction coefficients w_i and the keys they were checked
/// against. A reader that first asks "can I open this?" and then opens
/// builds the plan once and hands it to decrypt.
struct DecryptionPlan {
  std::vector<lsss::ReconCoeff> coeffs;
  std::map<std::string, UserSecretKey> secret_keys;  ///< keyed by AID
};

/// The plan for `ct`, or nullopt when the keys cannot decrypt it (the
/// checks decrypt would throw a SchemeError for).
std::optional<DecryptionPlan> decryption_plan(const pairing::Group& grp, const Ciphertext& ct,
                                              std::map<std::string, UserSecretKey> secret_keys);

/// Decrypt with a plan that decryption_plan built for this `ct`.
pairing::GT decrypt(const pairing::Group& grp, const Ciphertext& ct,
                    const UserPublicKey& user, const DecryptionPlan& plan);

// ------------------------------------------------------------ ReKey --

struct ReKeyResult {
  AuthorityVersionKey new_vk;  ///< alpha', version+1.
};

/// Phase 1 step 1 (AA): draw the fresh version key alpha'.
ReKeyResult aa_rekey(const pairing::Group& grp, const AuthorityVersionKey& vk,
                     crypto::Drbg& rng);

/// Regenerates the revoked user's key under alpha' with its reduced
/// attribute set `remaining_attribute_names` (S-tilde, a subset of the
/// previous set).
UserSecretKey aa_regenerate_key(const pairing::Group& grp,
                                const AuthorityVersionKey& new_vk,
                                const OwnerSecretShare& owner,
                                const UserPublicKey& user,
                                const std::set<std::string>& remaining_attribute_names);

/// UK_AID for one owner: UK1 = (g^{1/beta})^{alpha'-alpha}, UK2 = alpha'/alpha.
UpdateKey aa_make_update_key(const pairing::Group& grp,
                             const AuthorityVersionKey& old_vk,
                             const AuthorityVersionKey& new_vk,
                             const OwnerSecretShare& owner);

/// Non-revoked user's key update: K *= UK1, K_x ^= UK2.
UserSecretKey apply_update_to_secret_key(const pairing::Group& grp,
                                         const UserSecretKey& sk,
                                         const UpdateKey& uk);

/// Owner-side public-key updates: PK_{o,AID} ^= UK2, PK_{x,AID} ^= UK2.
AuthorityPublicKey apply_update_to_authority_pk(const pairing::Group& grp,
                                                const AuthorityPublicKey& pk,
                                                const UpdateKey& uk);
/// apply_update_to_attribute_pks of one.
PublicAttributeKey apply_update_to_attribute_pk(const pairing::Group& grp,
                                                const PublicAttributeKey& pk,
                                                const UpdateKey& uk);
/// Every PK_{x,AID} ^= UK2 in one engine pow_batch_g1, in input order.
/// Throws SchemeError (before any exponentiation) when a key is another
/// authority's or at another version.
std::vector<PublicAttributeKey> apply_update_to_attribute_pks(
    const pairing::Group& grp, const std::vector<PublicAttributeKey>& pks,
    const UpdateKey& uk);

/// Owner-side UpdateInfo pass for one epoch, from the owner's records
/// and the applied update key alone: one UpdateInfo, in input order, for
/// each record of `records` at uk.from_version of uk.aid (others are
/// skipped), with UI_x = UK1^{-beta^2*s*H(x)} for every row attribute x
/// of uk.aid. That is the paper's (PK_x/PK'_x)^{beta*s} for UK1 in the
/// order-r subgroup; every exponentiation shares the base UK1, so the
/// pass is one engine batch. The caller advances the records. Throws
/// SchemeError when `uk` is another owner's.
std::vector<UpdateInfo> owner_update_infos(const pairing::Group& grp, const OwnerMasterKey& mk,
                                           const std::vector<const EncryptionRecord*>& records,
                                           const UpdateKey& uk);

/// The paper's formula, UI_x = (PK_x/PK'_x)^{beta*s}, for one ciphertext
/// from the old and new attribute keys: the reference owner_update_infos
/// is checked against. Requires `record` to be ct's and ct to be this
/// owner's, and uses ct's rows and versions. Throws SchemeError when ct
/// does not involve `aid` or an attribute key is missing or at the wrong
/// version.
UpdateInfo owner_update_info(const pairing::Group& grp, const OwnerMasterKey& mk,
                             const EncryptionRecord& record, const Ciphertext& ct,
                             const std::map<std::string, PublicAttributeKey>& old_attribute_pks,
                             const std::map<std::string, PublicAttributeKey>& new_attribute_pks,
                             const std::string& aid);

// -------------------------------------------------------- ReEncrypt --

/// Server-side proxy re-encryption (paper Eq. 2):
///   C  *= e(UK1, C')              (moves e(g,g)^{alpha*s} to alpha')
///   C_i *= UI_{rho(i)}            (only rows labeled by the AA)
/// The server never decrypts. Updates versions[aid] in place.
/// reencrypt_batch of one.
void reencrypt(const pairing::Group& grp, Ciphertext* ct, const UpdateKey& uk,
               const UpdateInfo& ui);
/// reencrypt(cts[k], uk, *infos[k]) for every k of one epoch. Checks
/// every ciphertext first (the same SchemeErrors, nothing written), then
/// pairs every C' against UK1 in one engine pair_batch and forms every
/// row sum C_i * UI_{rho(i)} with one Group::g1_sums (one inversion).
/// `before_write(k)`, when set, runs for each k in order just before
/// cts[k] is written; if it throws, cts[k..] stay unwritten.
void reencrypt_batch(const pairing::Group& grp, std::span<Ciphertext* const> cts,
                     const UpdateKey& uk, std::span<const UpdateInfo* const> infos,
                     const std::function<void(size_t)>& before_write = {});

}  // namespace maabe::abe
