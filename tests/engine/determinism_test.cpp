// The engine's headline guarantee: every scheme operation produces
// byte-identical artifacts at any thread count. Each run below replays
// the identical Drbg seed with the shared per-Group engine forced to 1
// thread (legacy serial path) and to 8 threads, then compares the
// serialized outputs of every phase.
#include <gtest/gtest.h>

#include "abe/scheme.h"
#include "abe/serial.h"
#include "baseline/lewko.h"
#include "baseline/waters.h"
#include "cloud/server.h"
#include "engine/engine.h"
#include "lsss/parser.h"
#include "support/store_paths.h"

namespace maabe {
namespace {

using lsss::LsssMatrix;
using lsss::parse_policy;
using pairing::Group;
using pairing::GT;

LsssMatrix policy(const std::string& text) {
  return LsssMatrix::from_policy(parse_policy(text));
}

class DeterminismTest : public ::testing::Test {
 protected:
  DeterminismTest() : grp(Group::test_small()) {}

  std::shared_ptr<const Group> grp;
};

/// Every serialized artifact of one full scheme run: keygen, encrypt,
/// decrypt, key update and server-side re-encryption.
struct Trace {
  std::vector<Bytes> artifacts;

  bool operator==(const Trace&) const = default;
};

Trace run_scheme(const Group& grp, int threads) {
  engine::CryptoEngine::for_group(grp).set_threads(threads);
  crypto::Drbg rng(std::string_view("determinism"));
  Trace t;

  const abe::OwnerMasterKey mk = abe::owner_gen(grp, "owner", rng);
  const abe::OwnerSecretShare share = abe::owner_share(grp, mk);

  std::map<std::string, abe::AuthorityVersionKey> vks;
  std::map<std::string, abe::AuthorityPublicKey> apks;
  std::map<std::string, abe::PublicAttributeKey> attr_pks;
  for (const std::string aid : {"A", "B"}) {
    vks.emplace(aid, abe::aa_setup(grp, aid, rng));
    apks.emplace(aid, abe::aa_public_key(grp, vks.at(aid)));
    for (const std::string name : {"x1", "x2", "x3"}) {
      const abe::PublicAttributeKey pk = abe::aa_attribute_key(grp, vks.at(aid), name);
      attr_pks.emplace(pk.attr.qualified(), pk);
    }
  }

  const abe::UserPublicKey user = abe::ca_register_user(grp, "uid", rng);
  std::map<std::string, abe::UserSecretKey> sks;
  sks.emplace("A", abe::aa_keygen(grp, vks.at("A"), share, user, {"x1", "x2", "x3"}));
  sks.emplace("B", abe::aa_keygen(grp, vks.at("B"), share, user, {"x1"}));
  t.artifacts.push_back(abe::serialize(grp, sks.at("A")));
  t.artifacts.push_back(abe::serialize(grp, sks.at("B")));

  const GT m = grp.gt_random(rng);
  const auto [ct, record] =
      abe::encrypt(grp, mk, "file/ct", m,
                   policy("(x1@A AND x1@B) OR (x2@A AND x3@A)"), apks, attr_pks, rng);
  t.artifacts.push_back(abe::serialize(grp, ct));

  t.artifacts.push_back(abe::decrypt(grp, ct, user, sks).to_bytes());

  // ReKey authority A, then server-side ReEncrypt of several stored files.
  const abe::ReKeyResult rekey = abe::aa_rekey(grp, vks.at("A"), rng);
  const abe::UpdateKey uk = abe::aa_make_update_key(grp, vks.at("A"), rekey.new_vk, share);
  std::map<std::string, abe::PublicAttributeKey> new_attr_pks = attr_pks;
  for (auto& [handle, pk] : new_attr_pks) {
    if (pk.attr.aid == "A") pk = abe::apply_update_to_attribute_pk(grp, pk, uk);
  }

  cloud::CloudServer server(
      std::shared_ptr<const Group>(&grp, [](const Group*) {}));
  std::vector<abe::UpdateInfo> infos;
  for (int f = 0; f < 3; ++f) {
    const std::string file_id = "f" + std::to_string(f);
    const std::string ct_id = cloud::slot_ct_id(file_id, "key");
    const auto [slot_ct, slot_rec] =
        abe::encrypt(grp, mk, ct_id, grp.gt_random(rng),
                     policy("x1@A AND x1@B"), apks, attr_pks, rng);
    const cloud::StoredFile file{file_id, mk.owner_id, {{"key", slot_ct, Bytes{}}}};
    server.apply_next(cloud::serialize(grp, file));
    infos.push_back(abe::owner_update_info(grp, mk, slot_rec, slot_ct, attr_pks,
                                           new_attr_pks, "A"));
  }
  EXPECT_EQ(cloud::paths::reencrypt(server, uk, infos), 3u);
  for (int f = 0; f < 3; ++f)
    t.artifacts.push_back(cloud::serialize(
        grp, *server.fetch("f" + std::to_string(f))));

  // The updated user key still decrypts the re-encrypted ciphertext.
  sks.at("A") = abe::apply_update_to_secret_key(grp, sks.at("A"), uk);
  t.artifacts.push_back(abe::serialize(grp, sks.at("A")));
  const abe::Ciphertext new_ct = server.fetch("f0")->slots[0].key_ct;
  t.artifacts.push_back(abe::decrypt(grp, new_ct, user, sks).to_bytes());
  return t;
}

TEST_F(DeterminismTest, SchemeByteIdenticalAcrossThreadCounts) {
  const Trace serial = run_scheme(*grp, 1);
  const Trace parallel = run_scheme(*grp, 8);
  ASSERT_EQ(serial.artifacts.size(), parallel.artifacts.size());
  for (size_t i = 0; i < serial.artifacts.size(); ++i)
    EXPECT_EQ(serial.artifacts[i], parallel.artifacts[i]) << "artifact " << i;
  engine::CryptoEngine::for_group(*grp).set_threads(0);
}

Trace run_baselines(const Group& grp, int threads) {
  engine::CryptoEngine::for_group(grp).set_threads(threads);
  crypto::Drbg rng(std::string_view("determinism-baseline"));
  Trace t;
  const auto push_g1 = [&](const pairing::G1& v) { t.artifacts.push_back(v.to_bytes()); };
  const auto push_gt = [&](const GT& v) { t.artifacts.push_back(v.to_bytes()); };

  // Waters.
  {
    const auto [pk, msk] = baseline::waters_setup(grp, rng);
    const std::set<lsss::Attribute> attrs{{"x1", "W"}, {"x2", "W"}, {"x3", "W"}};
    const baseline::WatersSecretKey sk =
        baseline::waters_keygen(grp, pk, msk, attrs, rng);
    push_g1(sk.k);
    push_g1(sk.l);
    for (const auto& [handle, kx] : sk.kx) push_g1(kx);

    const GT m = grp.gt_random(rng);
    const baseline::WatersCiphertext ct = baseline::waters_encrypt(
        grp, pk, m, policy("x1@W AND (x2@W OR x3@W)"), rng);
    push_gt(ct.c);
    push_g1(ct.c_prime);
    for (const auto& v : ct.ci) push_g1(v);
    for (const auto& v : ct.di) push_g1(v);
    push_gt(baseline::waters_decrypt(grp, ct, sk));
  }

  // Lewko-Waters.
  {
    const baseline::LewkoAuthorityKeys auth =
        baseline::lewko_authority_setup(grp, "L", {"x1", "x2", "x3"}, rng);
    std::map<std::string, baseline::LewkoAttributePublicKey> pks;
    for (const std::string name : {"x1", "x2", "x3"}) {
      const auto pk = baseline::lewko_attribute_pk(grp, auth, name);
      pks.emplace(pk.attr.qualified(), pk);
    }
    baseline::LewkoUserKey key;
    baseline::lewko_keygen(grp, auth, "gid", {"x1", "x2", "x3"}, &key);
    for (const auto& [handle, k] : key.k) push_g1(k);

    const GT m = grp.gt_random(rng);
    const baseline::LewkoCiphertext ct =
        baseline::lewko_encrypt(grp, m, policy("x1@L AND (x2@L OR x3@L)"), pks, rng);
    push_gt(ct.c0);
    for (const auto& v : ct.c1) push_gt(v);
    for (const auto& v : ct.c2) push_g1(v);
    for (const auto& v : ct.c3) push_g1(v);
    push_gt(baseline::lewko_decrypt(grp, ct, key));
  }
  return t;
}

TEST_F(DeterminismTest, BaselinesByteIdenticalAcrossThreadCounts) {
  const Trace serial = run_baselines(*grp, 1);
  const Trace parallel = run_baselines(*grp, 8);
  ASSERT_EQ(serial.artifacts.size(), parallel.artifacts.size());
  for (size_t i = 0; i < serial.artifacts.size(); ++i)
    EXPECT_EQ(serial.artifacts[i], parallel.artifacts[i]) << "artifact " << i;
  engine::CryptoEngine::for_group(*grp).set_threads(0);
}

}  // namespace
}  // namespace maabe
