// The concurrent sharded cloud store: snapshot-fetch semantics, the
// stage-then-commit revocation epoch (all-or-nothing, proven via the
// fault hook), the replica record's version rules (apply, apply_next,
// out-of-band store, commit), the staged-epoch ledger keyed by epoch
// id, per-shard stats, and a concurrent
// fetch/store/reencrypt stress test (run it under
// -DMAABE_SANITIZE=thread for tsan-grade evidence).
#include "cloud/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "abe/serial.h"
#include "common/errors.h"
#include "crypto/sha256.h"
#include "lsss/parser.h"
#include "telemetry/trace.h"

namespace maabe::cloud {
namespace {

using pairing::Group;
using pairing::GT;

/// A minimal scheme world (one owner, one authority, one user) that can
/// mint stored files and produce complete revocation epochs against the
/// files it has minted.
struct World {
  std::shared_ptr<const Group> grp = Group::test_small();
  crypto::Drbg rng{std::string_view("server-test")};
  abe::OwnerMasterKey mk;
  abe::OwnerSecretShare share;
  abe::AuthorityVersionKey vk;
  std::map<std::string, abe::AuthorityPublicKey> apks;
  std::map<std::string, abe::PublicAttributeKey> attr_pks;
  abe::UserPublicKey user;
  std::map<std::string, abe::UserSecretKey> sks;
  std::map<std::string, abe::EncryptionRecord> records;  // the owner's, by ct_id

  World() {
    mk = abe::owner_gen(*grp, "owner", rng);
    share = abe::owner_share(*grp, mk);
    vk = abe::aa_setup(*grp, "A", rng);
    apks.emplace("A", abe::aa_public_key(*grp, vk));
    const abe::PublicAttributeKey pk = abe::aa_attribute_key(*grp, vk, "x1");
    attr_pks.emplace(pk.attr.qualified(), pk);
    user = abe::ca_register_user(*grp, "uid", rng);
    sks.emplace("A", abe::aa_keygen(*grp, vk, share, user, {"x1"}));
  }

  StoredFile make_file(const std::string& file_id, int n_slots = 1) {
    StoredFile file;
    file.file_id = file_id;
    file.owner_id = mk.owner_id;
    const lsss::LsssMatrix policy =
        lsss::LsssMatrix::from_policy(lsss::parse_policy("x1@A"));
    for (int j = 0; j < n_slots; ++j) {
      const std::string name = "c" + std::to_string(j);
      const std::string ct_id = slot_ct_id(file_id, name);
      abe::EncryptionResult enc = abe::encrypt(*grp, mk, ct_id, grp->gt_random(rng),
                                               policy, apks, attr_pks, rng);
      records.emplace(ct_id, enc.record);
      file.slots.push_back({name, std::move(enc.ct), Bytes{}});
    }
    return file;
  }

  struct Epoch {
    abe::UpdateKey uk;
    std::vector<abe::UpdateInfo> infos;
  };

  /// ReKeys authority A and emits UpdateInfo for every record at the
  /// pre-rekey version; advances the world's keys and the records.
  Epoch make_epoch() {
    const abe::AuthorityVersionKey old_vk = vk;
    vk = abe::aa_rekey(*grp, old_vk, rng).new_vk;
    Epoch epoch;
    epoch.uk = abe::aa_make_update_key(*grp, old_vk, vk, share);
    std::map<std::string, abe::PublicAttributeKey> new_pks = attr_pks;
    for (auto& [handle, pk] : new_pks)
      pk = abe::apply_update_to_attribute_pk(*grp, pk, epoch.uk);
    std::vector<const abe::EncryptionRecord*> pass;
    for (const auto& [ct_id, record] : records) pass.push_back(&record);
    epoch.infos = abe::owner_update_infos(*grp, mk, pass, epoch.uk);
    for (const abe::UpdateInfo& ui : epoch.infos)
      records.at(ui.ct_id).versions.at("A") = ui.to_version;
    attr_pks = std::move(new_pks);
    sks.at("A") = abe::apply_update_to_secret_key(*grp, sks.at("A"), epoch.uk);
    return epoch;
  }
};

Bytes serialize_whole_store(const CloudServer& server, const Group& grp) {
  Writer w;
  for (const std::string& id : server.file_ids()) {
    w.str(id);
    w.var_bytes(serialize(grp, *server.fetch(id)));
  }
  return w.take();
}

TEST(ServerTest, ShardedStoreBasicOps) {
  World w;
  CloudServer server(w.grp, 4);
  EXPECT_EQ(server.shard_count(), 4u);
  EXPECT_THROW(server.fetch("nope"), SchemeError);

  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    const std::string id = "f" + std::to_string(i);
    server.store(w.make_file(id));
    ids.push_back(id);
  }
  EXPECT_EQ(server.file_ids(), ids);  // sorted, across all shards
  EXPECT_TRUE(server.has_file("f3"));
  EXPECT_FALSE(server.has_file("f9"));
  EXPECT_GT(server.storage_bytes(), 0u);
  EXPECT_GT(server.ciphertext_group_material_bytes(), 0u);
  // storage_bytes stays exact: the maintained counters match a full
  // re-serialization of every stored file.
  size_t expect_bytes = 0;
  for (const std::string& id : ids)
    expect_bytes += serialize(*w.grp, *server.fetch(id)).size();
  EXPECT_EQ(server.storage_bytes(), expect_bytes);

  const ServerStats stats = server.stats();
  ASSERT_EQ(server.shard_count(), 4u);
  EXPECT_EQ(stats.files, 8u);
  EXPECT_EQ(stats.stores, 8u);
  EXPECT_GT(stats.fetches, 0u);
  EXPECT_EQ(stats.bytes, server.storage_bytes());

  // Replacement: same id, file count unchanged, store count up.
  server.store(w.make_file("f0", 2));
  EXPECT_EQ(server.stats().files, 8u);
  EXPECT_EQ(server.stats().stores, 9u);
  EXPECT_EQ(server.fetch("f0")->slots.size(), 2u);
}

TEST(ServerTest, InvalidStoresRejected) {
  World w;
  CloudServer server(w.grp);
  EXPECT_THROW(server.store(StoredFile{}), SchemeError);  // empty file id
  StoredFile orphan = w.make_file("f");
  orphan.owner_id.clear();  // would silently escape revocation
  EXPECT_THROW(server.store(orphan), SchemeError);
}

TEST(ServerTest, FetchReturnsStableSnapshot) {
  World w;
  CloudServer server(w.grp, 2);
  server.store(w.make_file("f", 1));
  const std::shared_ptr<const StoredFile> snapshot = server.fetch("f");
  const Bytes before = serialize(*w.grp, *snapshot);

  server.store(w.make_file("f", 3));  // replace behind the reader's back
  EXPECT_EQ(serialize(*w.grp, *snapshot), before);  // snapshot unaffected
  EXPECT_EQ(snapshot->slots.size(), 1u);
  EXPECT_EQ(server.fetch("f")->slots.size(), 3u);
}

TEST(ServerTest, DuplicateUpdateInfoRejected) {
  World w;
  CloudServer server(w.grp, 2);
  server.store(w.make_file("f"));
  World::Epoch epoch = w.make_epoch();
  ASSERT_EQ(epoch.infos.size(), 1u);
  const Bytes before = serialize_whole_store(server, *w.grp);

  epoch.infos.push_back(epoch.infos.front());  // same ct_id twice
  EXPECT_THROW(server.reencrypt(epoch.uk, epoch.infos), SchemeError);
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);

  epoch.infos.pop_back();
  EXPECT_EQ(server.reencrypt(epoch.uk, epoch.infos), 1u);
}

TEST(ServerTest, MissingUpdateInfoRejected) {
  World w;
  CloudServer server(w.grp, 2);
  server.store(w.make_file("f"));
  const World::Epoch epoch = w.make_epoch();
  const Bytes before = serialize_whole_store(server, *w.grp);
  EXPECT_THROW(server.reencrypt(epoch.uk, {}), SchemeError);
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);
}

TEST(ServerTest, ReencryptEpochCommitsAllSlots) {
  World w;
  CloudServer server(w.grp, 4);
  server.store(w.make_file("f0", 2));
  server.store(w.make_file("f1", 1));
  server.store(w.make_file("f2", 1));

  const World::Epoch epoch = w.make_epoch();
  EXPECT_EQ(server.reencrypt(epoch.uk, epoch.infos), 4u);
  for (const std::string& id : server.file_ids()) {
    for (const SealedSlot& slot : server.fetch(id)->slots)
      EXPECT_EQ(slot.key_ct.versions.at("A"), 2u) << id;
  }
  // The updated user key still decrypts the re-encrypted ciphertext.
  const abe::Ciphertext ct = server.fetch("f1")->slots[0].key_ct;
  EXPECT_NO_THROW((void)abe::decrypt(*w.grp, ct, w.user, w.sks));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.epochs_committed, 1u);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  EXPECT_EQ(stats.reencrypted_slots, 4u);
}

TEST(ServerTest, FaultInjectedEpochLeavesStoreByteIdentical) {
  World w;
  CloudServer server(w.grp, 4);
  server.store(w.make_file("f0", 2));
  server.store(w.make_file("f1", 1));
  server.store(w.make_file("f2", 1));
  const World::Epoch epoch = w.make_epoch();
  const Bytes before = serialize_whole_store(server, *w.grp);

  // Fail on the second slot the staging pass touches: some slots have
  // already been re-encrypted (into staged copies), some never run.
  std::atomic<int> seen{0};
  server.set_reencrypt_fault_hook([&](const std::string&) {
    if (seen.fetch_add(1) == 1) throw SchemeError("injected fault");
  });
  EXPECT_THROW(server.reencrypt(epoch.uk, epoch.infos), SchemeError);

  // All-or-nothing: every stored byte is exactly as before the epoch.
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);
  EXPECT_EQ(server.stats().epochs_aborted, 1u);
  EXPECT_EQ(server.stats().epochs_committed, 0u);
  EXPECT_EQ(server.stats().reencrypted_slots, 0u);

  // And the store is not wedged: the same epoch, replayed without the
  // fault, applies cleanly — version checks see a consistent store.
  server.set_reencrypt_fault_hook(nullptr);
  EXPECT_EQ(server.reencrypt(epoch.uk, epoch.infos), 4u);
  EXPECT_EQ(server.stats().epochs_committed, 1u);
  const abe::Ciphertext ct = server.fetch("f1")->slots[0].key_ct;
  EXPECT_NO_THROW((void)abe::decrypt(*w.grp, ct, w.user, w.sks));
}

// ------------------------------------------------- replica records --

/// `file` as a replication op at `version`, under the hash of its bytes.
ReplicationOp op_of(const Group& grp, const StoredFile& file, uint64_t version) {
  Bytes wire = serialize(grp, file);
  Bytes hash = crypto::Sha256::digest(wire);
  return {file.file_id, version, std::move(hash), std::move(wire)};
}

TEST(ServerTest, ApplyKeepsNewerVersionsAndIgnoresOlderOnes) {
  World w;
  CloudServer server(w.grp, 4);
  const ReplicationOp v2 = op_of(*w.grp, w.make_file("f"), 2);
  const ReplicationOp v3 = op_of(*w.grp, w.make_file("f", 2), 3);
  EXPECT_TRUE(server.apply(v2));
  EXPECT_TRUE(server.apply(v3));  // newer wins
  EXPECT_EQ(server.stats().stores, 2u);

  // An older version is ignored and is not a store.
  EXPECT_FALSE(server.apply(v2));
  EXPECT_EQ(server.stats().stores, 2u);
  const FetchReply copy = server.copy("f");
  ASSERT_TRUE(copy.found);
  EXPECT_EQ(copy.version, 3u);
  EXPECT_EQ(copy.wire, v3.wire);
  EXPECT_EQ(server.fetch("f")->slots.size(), 2u);
  EXPECT_FALSE(server.copy("absent").found);
  EXPECT_EQ(server.version_of("absent"), 0u);
}

TEST(ServerTest, ApplyRepairsAnEqualVersionOnlyWhenHashesDiffer) {
  World w;
  CloudServer server(w.grp, 4);
  const ReplicationOp op = op_of(*w.grp, w.make_file("f"), 4);
  ASSERT_TRUE(server.apply(op));
  EXPECT_FALSE(server.apply(op));  // kept bytes hash to op.hash: converged
  EXPECT_EQ(server.stats().stores, 1u);

  // Replace the bytes out of band: the recorded version and hash stay,
  // so the kept bytes no longer match them.
  server.store(w.make_file("f"));
  const FetchReply rotted = server.copy("f");
  EXPECT_EQ(rotted.version, 4u);
  EXPECT_EQ(rotted.hash, op.hash);
  EXPECT_NE(rotted.wire, op.wire);

  // The same version now repairs, back to the op's own bytes.
  EXPECT_TRUE(server.apply(op));
  EXPECT_EQ(server.copy("f").wire, op.wire);
  EXPECT_EQ(server.stats().stores, 3u);
}

TEST(ServerTest, ApplyKeepsTheOpsOwnBytesAndHash) {
  World w;
  CloudServer server(w.grp, 4);
  // A transfer may carry a hash that is not its bytes' (a rotted copy
  // recorded elsewhere); the record keeps exactly what the op carries.
  ReplicationOp op = op_of(*w.grp, w.make_file("f"), 7);
  op.hash = Bytes(32, 0xab);
  ASSERT_TRUE(server.apply(op));
  const FetchReply copy = server.copy("f");
  EXPECT_EQ(copy.version, 7u);
  EXPECT_EQ(copy.hash, op.hash);
  EXPECT_EQ(copy.wire, op.wire);
  EXPECT_EQ(server.storage_bytes(), op.wire.size());

  // An op whose bytes name another file is refused.
  ReplicationOp wrong = op_of(*w.grp, w.make_file("g"), 1);
  wrong.file_id = "f";
  EXPECT_THROW(server.apply(wrong), SchemeError);
  EXPECT_EQ(server.copy("f").wire, op.wire);
}

TEST(ServerTest, ApplyNextAssignsTheNextVersionUnderTheBytesHash) {
  World w;
  CloudServer server(w.grp, 4);
  // A file stored out of band is version 0; the coordinator write
  // takes it to 1, then 2.
  server.store(w.make_file("f"));
  EXPECT_EQ(server.version_of("f"), 0u);
  const Bytes wire1 = serialize(*w.grp, w.make_file("f"));
  const ReplicationOp op1 = server.apply_next(wire1);
  EXPECT_EQ(op1.file_id, "f");
  EXPECT_EQ(op1.version, 1u);
  EXPECT_EQ(op1.hash, crypto::Sha256::digest(wire1));
  EXPECT_EQ(op1.wire, wire1);
  EXPECT_EQ(server.apply_next(serialize(*w.grp, w.make_file("f"))).version, 2u);
  EXPECT_EQ(server.apply_next(serialize(*w.grp, w.make_file("g"))).version, 1u);
  EXPECT_EQ(server.stats().stores, 4u);
}

/// `wire` with the encoding of `point` (found by its bytes) replaced
/// by an x whose x^3 + x is not a square, so no point has it.
Bytes with_off_curve_point(const Group& grp, Bytes wire, const pairing::G1& point) {
  const Bytes enc = point.to_bytes();
  const auto at = std::search(wire.begin(), wire.end(), enc.begin(), enc.end());
  EXPECT_NE(at, wire.end());
  for (uint64_t x = 1;; ++x) {
    Bytes off = math::Bignum::from_u64(x).to_bytes_be(grp.g1_size() - 1);
    off.push_back(0);
    try {
      (void)grp.g1_from_bytes(off);
    } catch (const WireError&) {
      std::copy(off.begin(), off.end(), at);
      return wire;
    }
  }
}

TEST(ServerTest, WritesOfAFileWithAnOffCurvePointThrowAndChangeNothing) {
  World w;
  CloudServer server(w.grp, 4);
  ASSERT_TRUE(server.apply(op_of(*w.grp, w.make_file("f"), 1)));
  const StoredFile next = w.make_file("f");
  const abe::Ciphertext& ct = next.slots[0].key_ct;
  for (const pairing::G1& point : {ct.c_prime, ct.ci.front(), ct.ci.back()}) {
    const Bytes bad = with_off_curve_point(*w.grp, serialize(*w.grp, next), point);
    const Bytes before = server.snapshot();
    const ServerStats stats = server.stats();
    EXPECT_THROW(server.apply({"f", 2, crypto::Sha256::digest(bad), bad}), WireError);
    EXPECT_THROW(server.apply({"g", 1, crypto::Sha256::digest(bad), bad}), WireError);
    EXPECT_THROW(server.apply_next(bad), WireError);
    EXPECT_EQ(server.snapshot(), before);
    EXPECT_EQ(server.stats().stores, stats.stores);
    EXPECT_EQ(server.version_of("f"), 1u);
    EXPECT_FALSE(server.has_file("g"));
  }
}

TEST(ServerTest, EpochOverUndecodedEntriesMatchesOneOverDecodedEntries) {
  World w;
  CloudServer lazy(w.grp, 4), decoded(w.grp, 4);
  for (const auto& [id, slots] : {std::pair{"f0", 2}, std::pair{"f1", 1}, std::pair{"f2", 3}}) {
    const ReplicationOp op = op_of(*w.grp, w.make_file(id, slots), 1);
    ASSERT_TRUE(lazy.apply(op));
    ASSERT_TRUE(decoded.apply(op));
    EXPECT_EQ(serialize(*w.grp, *decoded.fetch(id)), op.wire);  // decodes it
  }
  const World::Epoch epoch = w.make_epoch();
  lazy.stage_reencrypt(1, epoch.uk, epoch.infos);
  decoded.stage_reencrypt(1, epoch.uk, epoch.infos);
  EXPECT_EQ(lazy.commit_reencrypt(1), 6u);
  EXPECT_EQ(decoded.commit_reencrypt(1), 6u);
  EXPECT_EQ(lazy.snapshot(), decoded.snapshot());
}

/// Stages `epoch` under `epoch_id`, traced: the `decoded` attribute of
/// its server.reencrypt_stage span.
uint64_t traced_stage_decodes(CloudServer& server, uint64_t epoch_id, const World::Epoch& epoch) {
  std::mutex mu;
  std::vector<telemetry::SpanRecord> records;
  telemetry::Tracer::global().enable([&](const telemetry::SpanRecord& rec) {
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(rec);
  });
  server.stage_reencrypt(epoch_id, epoch.uk, epoch.infos);
  telemetry::Tracer::global().disable();
  for (const telemetry::SpanRecord& rec : records) {
    if (rec.name != "server.reencrypt_stage") continue;
    for (const auto& [key, value] : rec.attrs)
      if (key == "decoded") return std::stoull(value);
  }
  ADD_FAILURE() << "no server.reencrypt_stage span with a decoded count";
  return 0;
}

// A stage decodes only the revisions it re-encrypts, read from their
// slots' ids and versions: over a store that mixes files at the epoch's
// version with files already past it, the others stay undecoded (the
// next epoch decodes them), and the snapshots match a store whose every
// entry was decoded up front.
TEST(ServerTest, StageDecodesOnlyTheRevisionsItReencrypts) {
  World w;
  CloudServer lazy(w.grp, 4), decoded(w.grp, 4);
  const auto put = [&](const StoredFile& file) {
    const ReplicationOp op = op_of(*w.grp, file, 1);
    ASSERT_TRUE(lazy.apply(op));
    ASSERT_TRUE(decoded.apply(op));
    EXPECT_EQ(serialize(*w.grp, *decoded.fetch(file.file_id)), op.wire);  // decodes it
  };
  put(w.make_file("old0", 2));
  put(w.make_file("old1"));
  const World::Epoch first = w.make_epoch();
  w.apks.at("A") = abe::apply_update_to_authority_pk(*w.grp, w.apks.at("A"), first.uk);
  put(w.make_file("new0"));
  put(w.make_file("new1", 3));

  EXPECT_EQ(traced_stage_decodes(lazy, 1, first), 2u);
  EXPECT_EQ(traced_stage_decodes(decoded, 1, first), 0u);
  EXPECT_EQ(lazy.commit_reencrypt(1), 3u);
  EXPECT_EQ(decoded.commit_reencrypt(1), 3u);
  EXPECT_EQ(lazy.snapshot(), decoded.snapshot());

  // The committed files keep their staged decodes; new0 and new1 were
  // left undecoded until this epoch re-encrypts them.
  const World::Epoch second = w.make_epoch();
  EXPECT_EQ(traced_stage_decodes(lazy, 2, second), 2u);
  EXPECT_EQ(traced_stage_decodes(decoded, 2, second), 0u);
  EXPECT_EQ(lazy.commit_reencrypt(2), 7u);
  EXPECT_EQ(decoded.commit_reencrypt(2), 7u);
  EXPECT_EQ(lazy.snapshot(), decoded.snapshot());
}

// A stage decodes and keeps revisions while a replica write replaces
// the same file: whichever lands first, every decode a fetch returns is
// of the bytes kept beside it, and the commit swaps only the revision
// it staged. Run under -DMAABE_SANITIZE=thread too.
TEST(ServerTest, StageRacingApplyOnOneFileKeepsEachDecodeWithItsRevision) {
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    World w;
    CloudServer server(w.grp, 2);
    const ReplicationOp first = op_of(*w.grp, w.make_file("f"), 1);
    const ReplicationOp second = op_of(*w.grp, w.make_file("f", 2), 2);
    const World::Epoch epoch = w.make_epoch();
    ASSERT_TRUE(server.apply(first));

    std::atomic<bool> done{false};
    std::atomic<int> torn{0};
    std::thread stager([&] { server.stage_reencrypt(1, epoch.uk, epoch.infos); });
    std::thread writer([&] { EXPECT_TRUE(server.apply(second)); });
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        const Bytes got = serialize(*w.grp, *server.fetch("f"));
        if (got != first.wire && got != second.wire) torn.fetch_add(1);
      }
    });
    stager.join();
    writer.join();
    done.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(torn.load(), 0);

    const size_t committed = server.commit_reencrypt(1).value();
    const FetchReply kept = server.copy("f");
    EXPECT_EQ(serialize(*w.grp, *server.fetch("f")), kept.wire);
    if (kept.version == 2) {
      // The write landed after the stage picked the first revision.
      EXPECT_EQ(committed, 0u);
      EXPECT_EQ(kept.wire, second.wire);
    } else {
      // The stage picked the second revision and swapped it.
      EXPECT_EQ(kept.version, 3u);
      EXPECT_EQ(committed, 2u);
      EXPECT_EQ(server.fetch("f")->slots[1].key_ct.versions.at("A"), 2u);
    }
  }
}

TEST(ServerTest, OutOfBandStoreKeepsTheRecordedIdentity) {
  World w;
  CloudServer server(w.grp, 4);
  // A new file gets version 0 and the hash of its own bytes.
  server.store(w.make_file("new"));
  const FetchReply fresh = server.copy("new");
  EXPECT_EQ(fresh.version, 0u);
  EXPECT_EQ(fresh.hash, crypto::Sha256::digest(fresh.wire));
  EXPECT_EQ(fresh.wire, serialize(*w.grp, *server.fetch("new")));

  // A replaced file keeps its version and recorded hash; its bytes are
  // the replacement's.
  const ReplicationOp op = op_of(*w.grp, w.make_file("f"), 5);
  ASSERT_TRUE(server.apply(op));
  server.store(w.make_file("f", 2));
  const FetchReply copy = server.copy("f");
  EXPECT_EQ(copy.version, 5u);
  EXPECT_EQ(copy.hash, op.hash);
  EXPECT_EQ(copy.wire, serialize(*w.grp, *server.fetch("f")));
  EXPECT_EQ(server.fetch("f")->slots.size(), 2u);
}

TEST(ServerTest, CommitBumpsTheVersionAndRecordsTheNewBytesHash) {
  World w;
  CloudServer server(w.grp, 4);
  ASSERT_TRUE(server.apply(op_of(*w.grp, w.make_file("f", 2), 4)));
  server.store(w.make_file("g"));  // out of band: version 0
  const Bytes before = server.copy("f").wire;

  const World::Epoch epoch = w.make_epoch();
  server.stage_reencrypt(1, epoch.uk, epoch.infos);
  EXPECT_EQ(server.commit_reencrypt(1), 3u);
  for (const auto& [id, version] : {std::pair{"f", 5u}, std::pair{"g", 1u}}) {
    const FetchReply copy = server.copy(id);
    EXPECT_EQ(copy.version, version) << id;
    EXPECT_EQ(copy.wire, serialize(*w.grp, *server.fetch(id))) << id;
    EXPECT_EQ(copy.hash, crypto::Sha256::digest(copy.wire)) << id;
  }
  EXPECT_NE(server.copy("f").wire, before);
}

TEST(ServerTest, FileReplacedDuringStagingIsNeitherSwappedNorBumped) {
  World w;
  CloudServer server(w.grp, 4);
  ASSERT_TRUE(server.apply(op_of(*w.grp, w.make_file("f"), 2)));
  ASSERT_TRUE(server.apply(op_of(*w.grp, w.make_file("g"), 2)));
  const ReplicationOp replacement = op_of(*w.grp, w.make_file("f", 2), 3);
  const World::Epoch epoch = w.make_epoch();
  server.stage_reencrypt(7, epoch.uk, epoch.infos);
  ASSERT_EQ(server.stats().epochs_staged_open, 1u);

  // A newer replica write lands between stage and commit.
  ASSERT_TRUE(server.apply(replacement));
  EXPECT_EQ(server.commit_reencrypt(7), 1u);  // only g's slot

  const FetchReply f = server.copy("f");
  EXPECT_EQ(f.version, 3u);
  EXPECT_EQ(f.hash, replacement.hash);
  EXPECT_EQ(f.wire, replacement.wire);
  EXPECT_EQ(server.copy("g").version, 3u);
}

// ---------------------------------------------------- staged ledger --

TEST(ServerTest, LedgerCommitsOrAbortsAnEpochByItsId) {
  World w;
  CloudServer server(w.grp, 4);
  server.store(w.make_file("f0", 2));
  server.store(w.make_file("f1"));
  const World::Epoch epoch = w.make_epoch();
  const Bytes before = serialize_whole_store(server, *w.grp);

  server.stage_reencrypt(3, epoch.uk, epoch.infos);
  EXPECT_THROW(server.stage_reencrypt(3, epoch.uk, epoch.infos), SchemeError);
  EXPECT_EQ(server.staged_epoch_ids(), std::set<uint64_t>{3});
  EXPECT_TRUE(server.abort_reencrypt(3));
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);
  EXPECT_EQ(server.stats().epochs_aborted, 1u);

  server.stage_reencrypt(4, epoch.uk, epoch.infos);
  EXPECT_EQ(server.stats().epochs_staged_open, 1u);
  EXPECT_EQ(server.commit_reencrypt(4), std::optional<size_t>(3));
  EXPECT_EQ(server.commit_reencrypt(4), std::nullopt);  // consumed
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.epochs_committed, 1u);
  EXPECT_EQ(stats.epochs_aborted, 1u);
  EXPECT_EQ(stats.epochs_staged_open, 0u);
  EXPECT_EQ(stats.reencrypted_slots, 3u);
  EXPECT_TRUE(server.staged_epoch_ids().empty());
}

TEST(ServerTest, UnknownEpochIdIsNotHeldAndChangesNothing) {
  World w;
  CloudServer server(w.grp, 4);
  server.store(w.make_file("f"));
  const World::Epoch epoch = w.make_epoch();
  server.stage_reencrypt(1, epoch.uk, epoch.infos);
  const Bytes before = serialize_whole_store(server, *w.grp);
  const ServerStats stats = server.stats();

  EXPECT_EQ(server.commit_reencrypt(99), std::nullopt);
  EXPECT_FALSE(server.abort_reencrypt(99));
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);
  EXPECT_EQ(server.staged_epoch_ids(), std::set<uint64_t>{1});
  const ServerStats after = server.stats();
  EXPECT_EQ(after.epochs_committed, stats.epochs_committed);
  EXPECT_EQ(after.epochs_aborted, stats.epochs_aborted);
  EXPECT_EQ(after.epochs_staged_open, 1u);
  EXPECT_EQ(after.reencrypted_slots, stats.reencrypted_slots);
  EXPECT_EQ(after.stores, stats.stores);
}

TEST(ServerTest, EmptyStageIsHeldButItsCommitCountsNothing) {
  World w;
  CloudServer server(w.grp, 4);
  server.store(w.make_file("f"));
  World::Epoch epoch = w.make_epoch();
  epoch.uk.owner_id = "another-owner";  // matches no stored file
  const Bytes before = serialize_whole_store(server, *w.grp);

  server.stage_reencrypt(5, epoch.uk, epoch.infos);
  server.stage_reencrypt(6, epoch.uk, epoch.infos);
  EXPECT_EQ(server.staged_epoch_ids(), (std::set<uint64_t>{5, 6}));
  EXPECT_EQ(server.stats().epochs_staged_open, 0u);
  EXPECT_EQ(server.commit_reencrypt(5), std::optional<size_t>(0));
  EXPECT_TRUE(server.abort_reencrypt(6));
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.epochs_committed, 0u);
  EXPECT_EQ(stats.epochs_aborted, 0u);
  EXPECT_EQ(stats.reencrypted_slots, 0u);
  EXPECT_TRUE(server.staged_epoch_ids().empty());
}

TEST(ServerTest, AbortAllStagedEmptiesTheLedgerCountingOnlyNonEmptyEpochs) {
  World w;
  CloudServer server(w.grp, 4);
  server.store(w.make_file("f0", 2));
  server.store(w.make_file("f1"));
  const World::Epoch epoch = w.make_epoch();
  World::Epoch empty = epoch;
  empty.uk.owner_id = "another-owner";
  const Bytes before = serialize_whole_store(server, *w.grp);

  server.stage_reencrypt(1, epoch.uk, epoch.infos);
  server.stage_reencrypt(2, epoch.uk, epoch.infos);
  server.stage_reencrypt(3, empty.uk, empty.infos);
  EXPECT_EQ(server.stats().epochs_staged_open, 2u);
  server.abort_all_staged();
  EXPECT_TRUE(server.staged_epoch_ids().empty());
  EXPECT_EQ(serialize_whole_store(server, *w.grp), before);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.epochs_aborted, 2u);
  EXPECT_EQ(stats.epochs_committed, 0u);
  EXPECT_EQ(stats.epochs_staged_open, 0u);
  EXPECT_EQ(server.commit_reencrypt(1), std::nullopt);  // a restart's orphan
}

TEST(ServerTest, ConcurrentFetchStoreReencryptStress) {
  World w;
  CloudServer server(w.grp, 4);
  constexpr int kFiles = 6;
  std::vector<std::string> ids;
  for (int i = 0; i < kFiles; ++i) {
    const std::string id = "f" + std::to_string(i);
    server.store(w.make_file(id));
    ids.push_back(id);
  }
  const World::Epoch epoch = w.make_epoch();
  const StoredFile replacement_template = *server.fetch("f0");

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Readers: snapshots must always be internally consistent, whatever
  // the writers are doing.
  auto reader = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const std::string& id : ids) {
        try {
          const auto file = server.fetch(id);
          if (file->file_id != id || file->slots.empty() ||
              (file->slots[0].key_ct.versions.at("A") != 1u &&
               file->slots[0].key_ct.versions.at("A") != 2u)) {
            failures.fetch_add(1);
          }
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    }
  };

  // Writer: hammers unrelated inserts plus replacements of f0 with its
  // original (version-1) bytes, racing the epoch's commit-time identity
  // check.
  auto writer = [&] {
    int n = 0;
    // Run at least 8 iterations so every "w" file exists even when the
    // epoch commits (and sets `stop`) before the writer has warmed up —
    // the final file-count check assumes all 8 landed.
    while (n < 8 || !stop.load(std::memory_order_relaxed)) {
      StoredFile fresh = replacement_template;
      fresh.file_id = "w" + std::to_string(n % 8);
      fresh.owner_id = "bystander";  // never matched by the epoch
      server.store(std::move(fresh));
      StoredFile again = replacement_template;
      server.store(std::move(again));  // replace f0 with the v1 snapshot
      ++n;
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  threads.emplace_back(writer);
  size_t committed = 0;
  std::thread reencryptor([&] { committed = server.reencrypt(epoch.uk, epoch.infos); });
  reencryptor.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // f0 may have been replaced by the writer mid-epoch (the replacement
  // wins); everything else committed.
  EXPECT_GE(committed, static_cast<size_t>(kFiles - 1));
  for (int i = 1; i < kFiles; ++i) {
    EXPECT_EQ(server.fetch("f" + std::to_string(i))->slots[0].key_ct.versions.at("A"),
              2u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.epochs_committed, 1u);
  EXPECT_EQ(stats.files, static_cast<uint64_t>(kFiles) + 8u);
  // Byte accounting stayed exact through all the racing swaps.
  size_t expect_bytes = 0;
  for (const std::string& id : server.file_ids())
    expect_bytes += serialize(*w.grp, *server.fetch(id)).size();
  EXPECT_EQ(server.storage_bytes(), expect_bytes);
}

}  // namespace
}  // namespace maabe::cloud
