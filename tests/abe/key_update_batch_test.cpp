// abe::apply_updates_to_secret_keys: many users' key updates as one
// engine batch. It must leave every key byte-equal to applying its jobs
// one at a time, on both curves, for keys of 0-7 attributes under two
// owners and two authorities (so several distinct UK1s), with chains of
// epochs on one key and the identity UK1, whether the jobs run as one
// batch or are split into successive batches. A batch holding one UK1
// outside the order-r subgroup, or one job that fails its checks,
// throws and changes no key.
#include <gtest/gtest.h>

#include <algorithm>

#include "abe/scheme.h"
#include "abe/serial.h"
#include "common/errors.h"
#include "engine/engine.h"
#include "support/rogue_points.h"

namespace maabe::abe {
namespace {

using pairing::Group;

/// Two owners, two authorities and `n` users, each holding one key of a
/// random (owner, authority) pair with 0-7 attributes. Every authority
/// can rekey, which yields one update key per owner.
struct World {
  const Group& grp;
  crypto::Drbg rng;
  std::vector<OwnerSecretShare> shares;
  std::map<std::string, AuthorityVersionKey> vks;
  std::vector<UserSecretKey> keys;

  World(const Group& g, std::string_view seed, size_t n) : grp(g), rng(seed) {
    for (const char* owner : {"o1", "o2"})
      shares.push_back(owner_share(grp, owner_gen(grp, owner, rng)));
    for (const char* aid : {"Med", "Gov"}) vks.emplace(aid, aa_setup(grp, aid, rng));
    for (size_t i = 0; i < n; ++i) {
      const UserPublicKey user = ca_register_user(grp, "u" + std::to_string(i), rng);
      std::set<std::string> names;
      for (int j = 0, m = draw(8); j < m; ++j) names.insert("a" + std::to_string(j));
      keys.push_back(aa_keygen(grp, vks.at(draw(2) == 0 ? "Med" : "Gov"),
                               shares[static_cast<size_t>(draw(2))], user, names));
    }
  }

  int draw(int bound) { return rng.bytes(1)[0] % bound; }

  /// Rekeys `aid`: its update keys, by owner id.
  std::map<std::string, UpdateKey> rekey(const std::string& aid) {
    const AuthorityVersionKey old_vk = vks.at(aid);
    vks.at(aid) = aa_rekey(grp, old_vk, rng).new_vk;
    std::map<std::string, UpdateKey> out;
    for (const OwnerSecretShare& share : shares)
      out.emplace(share.owner_id, aa_make_update_key(grp, old_vk, vks.at(aid), share));
    return out;
  }
};

/// A job as indices: key `key` takes update key `uk`.
struct Job {
  size_t key;
  const UpdateKey* uk;
};

std::vector<Bytes> bytes_of(const Group& grp, const std::vector<UserSecretKey>& keys) {
  std::vector<Bytes> out;
  for (const UserSecretKey& sk : keys) out.push_back(serialize(grp, sk));
  return out;
}

/// Runs jobs [from, to) on `keys` as one batch.
size_t run_batch(const Group& grp, std::vector<UserSecretKey>& keys, const std::vector<Job>& jobs,
                 size_t from, size_t to) {
  std::vector<SecretKeyUpdate> batch;
  for (size_t j = from; j < to; ++j) batch.push_back({&keys[jobs[j].key], jobs[j].uk});
  return apply_updates_to_secret_keys(grp, batch);
}

void check_batches_match_one_at_a_time(const Group& grp, std::string_view seed, int rounds) {
  crypto::Drbg sizes(seed);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    World world(grp, std::string(seed) + std::to_string(round), 1 + sizes.bytes(1)[0] % 20);
    // Two epochs of Med and one of Gov, delivered in that order: a Med
    // key takes two update keys in a row, a Gov key one. One more key
    // per round takes an update key whose UK1 is the identity.
    const std::map<std::string, UpdateKey> med1 = world.rekey("Med");
    const std::map<std::string, UpdateKey> gov1 = world.rekey("Gov");
    const std::map<std::string, UpdateKey> med2 = world.rekey("Med");
    std::vector<Job> jobs;
    for (const auto* epoch : {&med1, &gov1, &med2})
      for (size_t k = 0; k < world.keys.size(); ++k) {
        const UpdateKey& uk = epoch->at(world.keys[k].owner_id);
        if (uk.aid == world.keys[k].aid) jobs.push_back({k, &uk});
      }
    UpdateKey identity = med1.at("o1");
    identity.uk1 = grp.g1_identity();
    world.keys.push_back(world.keys.front());
    world.keys.back().aid = "Med";
    world.keys.back().owner_id = "o1";
    world.keys.back().version = identity.from_version;
    jobs.insert(jobs.begin() + static_cast<ptrdiff_t>(world.draw(static_cast<int>(jobs.size()) + 1)),
                {world.keys.size() - 1, &identity});

    std::vector<UserSecretKey> alone = world.keys;
    for (const Job& job : jobs) alone[job.key] = apply_update_to_secret_key(grp, alone[job.key], *job.uk);
    const std::vector<Bytes> want = bytes_of(grp, alone);

    std::vector<UserSecretKey> batched = world.keys;
    const size_t distinct = run_batch(grp, batched, jobs, 0, jobs.size());
    EXPECT_EQ(bytes_of(grp, batched), want);
    // Each distinct UK1 once: two owners' keys of each of three epochs,
    // as far as some key took them, plus the identity.
    std::set<Bytes> uk1s;
    for (const Job& job : jobs) uk1s.insert(job.uk->uk1.to_bytes());
    EXPECT_EQ(distinct, uk1s.size());

    // Split at any point into two successive batches: the same keys.
    const size_t cut = static_cast<size_t>(world.draw(static_cast<int>(jobs.size()) + 1));
    std::vector<UserSecretKey> split = world.keys;
    run_batch(grp, split, jobs, 0, cut);
    run_batch(grp, split, jobs, cut, jobs.size());
    EXPECT_EQ(bytes_of(grp, split), want) << "cut at " << cut;
  }
}

TEST(KeyUpdateBatch, MatchesOneAtATimeOnTestCurve) {
  check_batches_match_one_at_a_time(*Group::test_small(), "key-update-batch-small", 8);
}

TEST(KeyUpdateBatch, MatchesOneAtATimeOnPaperCurve) {
  check_batches_match_one_at_a_time(*Group::pbc_a512(), "key-update-batch-paper", 2);
}

TEST(KeyUpdateBatch, OneEngineBatchWithOneCheckPerDistinctUpdateKey) {
  const auto held = Group::test_small();
  const Group& grp = *held;
  World world(grp, "key-update-batch-count", 12);
  const std::map<std::string, UpdateKey> med = world.rekey("Med");
  const std::map<std::string, UpdateKey> gov = world.rekey("Gov");
  std::vector<SecretKeyUpdate> jobs;
  uint64_t kx = 0;
  std::set<Bytes> uk1s;
  for (UserSecretKey& sk : world.keys) {
    const UpdateKey& uk = (sk.aid == "Med" ? med : gov).at(sk.owner_id);
    jobs.push_back({&sk, &uk});
    kx += sk.kx.size();
    uk1s.insert(uk.uk1.to_bytes());
  }
  engine::CryptoEngine& eng = engine::CryptoEngine::for_group(grp);
  const engine::EngineStats before = eng.stats();
  EXPECT_EQ(apply_updates_to_secret_keys(grp, jobs), uk1s.size());
  const engine::EngineStats after = eng.stats();
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_EQ(after.g1_exps - before.g1_exps, kx + uk1s.size());
  EXPECT_EQ(apply_updates_to_secret_keys(grp, {}), 0u);
  EXPECT_EQ(eng.stats().batches, after.batches);
}

/// Every rogue UK1 (orders 2, 3, 4 and 17 where they divide q + 1, those
/// plus a subgroup point, a random curve point) as one job of a batch
/// of honest ones: the batch throws the decoder's WireError and no key
/// changes, wherever the rogue job sits.
void check_rogue_job_spoils_no_key(const Group& grp, std::string_view seed) {
  World world(grp, seed, 6);
  const std::map<std::string, UpdateKey> med = world.rekey("Med");
  const std::map<std::string, UpdateKey> gov = world.rekey("Gov");
  const std::vector<Bytes> before = bytes_of(grp, world.keys);
  const std::vector<pairing::G1> rogues = pairing::rogue::outside_points(grp, world.rng);
  ASSERT_FALSE(rogues.empty());
  for (size_t k = 0; k < rogues.size(); ++k) {
    const size_t victim = k % world.keys.size();
    SCOPED_TRACE("rogue " + std::to_string(k) + " on key " + std::to_string(victim));
    UpdateKey bad = (world.keys[victim].aid == "Med" ? med : gov).at(world.keys[victim].owner_id);
    bad.uk1 = rogues[k];
    std::vector<UserSecretKey> keys = world.keys;
    std::vector<SecretKeyUpdate> jobs;
    for (size_t i = 0; i < keys.size(); ++i)
      jobs.push_back({&keys[i], i == victim ? &bad
                                            : &(keys[i].aid == "Med" ? med : gov).at(keys[i].owner_id)});
    try {
      apply_updates_to_secret_keys(grp, jobs);
      ADD_FAILURE() << "rogue update key applied";
    } catch (const WireError& e) {
      EXPECT_STREQ(e.what(), kOutsideSubgroup);
    }
    EXPECT_EQ(bytes_of(grp, keys), before);
  }
}

TEST(KeyUpdateBatch, RogueUpdateKeyInAMixedBatchSpoilsNoKeyOnTestCurve) {
  check_rogue_job_spoils_no_key(*Group::test_small(), "key-update-batch-rogue-small");
}

TEST(KeyUpdateBatch, RogueUpdateKeyInAMixedBatchSpoilsNoKeyOnPaperCurve) {
  check_rogue_job_spoils_no_key(*Group::pbc_a512(), "key-update-batch-rogue-paper");
}

/// A job that fails its checks throws today's SchemeError, following the
/// version its key's earlier jobs leave, and no key changes.
TEST(KeyUpdateBatch, CheckFailureThrowsTheSingleApplyErrorAndSpoilsNoKey) {
  const auto held = Group::test_small();
  const Group& grp = *held;
  World world(grp, "key-update-batch-checks", 4);
  world.keys[1] = world.keys[0];  // two copies of one (owner, authority) key
  const std::vector<Bytes> before = bytes_of(grp, world.keys);
  const std::map<std::string, UpdateKey> med = world.rekey("Med");
  const std::map<std::string, UpdateKey> gov = world.rekey("Gov");
  const auto uk_of = [&](const UserSecretKey& sk) -> const UpdateKey& {
    return (sk.aid == "Med" ? med : gov).at(sk.owner_id);
  };
  const UpdateKey& uk = uk_of(world.keys[0]);
  const auto single_error = [&](const UserSecretKey& sk, const UpdateKey& u) {
    try {
      (void)apply_update_to_secret_key(grp, sk, u);
    } catch (const SchemeError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto batch_error = [&](std::vector<UserSecretKey>& keys,
                               const std::vector<SecretKeyUpdate>& jobs) {
    try {
      apply_updates_to_secret_keys(grp, jobs);
    } catch (const SchemeError& e) {
      EXPECT_EQ(bytes_of(grp, keys), before);
      return std::string(e.what());
    }
    ADD_FAILURE() << "batch applied";
    return std::string();
  };

  // The same update key twice on one key: the second finds version 2.
  std::vector<UserSecretKey> keys = world.keys;
  const UserSecretKey once = apply_update_to_secret_key(grp, keys[0], uk);
  EXPECT_EQ(batch_error(keys, {{&keys[2], &uk_of(keys[2])}, {&keys[0], &uk}, {&keys[0], &uk}}),
            single_error(once, uk));
  // Another owner's, and another authority's, update key.
  UpdateKey other_owner = uk;
  other_owner.owner_id = uk.owner_id == "o1" ? "o2" : "o1";
  EXPECT_EQ(batch_error(keys, {{&keys[1], &uk}, {&keys[0], &other_owner}}),
            single_error(keys[0], other_owner));
  UpdateKey other_aid = uk;
  other_aid.aid = uk.aid == "Med" ? "Gov" : "Med";
  EXPECT_EQ(batch_error(keys, {{&keys[0], &other_aid}}), single_error(keys[0], other_aid));
  // Two copies of one key are two keys: each takes the update once.
  apply_updates_to_secret_keys(grp, std::vector<SecretKeyUpdate>{{&keys[0], &uk}, {&keys[1], &uk}});
  EXPECT_EQ(serialize(grp, keys[0]), serialize(grp, once));
  EXPECT_EQ(serialize(grp, keys[1]), serialize(grp, once));
}

}  // namespace
}  // namespace maabe::abe
