// The decrypt cache keyed on a slot's wire bytes (DESIGN.md §18). A
// download walks the stored file, looks each slot up by its bytes and
// decodes only the misses. That is sound because the encoding is
// canonical: every accepted wire re-serializes to itself, so the key a
// slot's bytes hash to is the key its decoded value would hash to. These
// tests pin that premise, the order of the receive step (a malformed
// point or owner fails the whole file before the cache moves), and the
// slot states and cache counts of a scripted read sequence.
#include <gtest/gtest.h>

#include <algorithm>

#include "abe/serial.h"
#include "cloud/system.h"
#include "common/errors.h"
#include "crypto/sha256.h"

namespace maabe::cloud {
namespace {

using pairing::Group;

/// Med manages Doctor, Nurse and Surgeon; alice holds Doctor and Nurse
/// keys for owner hosp, bob holds Doctor.
struct World {
  explicit World(std::shared_ptr<const Group> g) : grp(std::move(g)), sys(grp, "wire-cache") {
    sys.add_authority("Med", {"Doctor", "Nurse", "Surgeon"});
    sys.add_owner("hosp");
    sys.publish_authority_keys("Med", "hosp");
    sys.add_user("alice");
    sys.add_user("bob");
    sys.assign_attributes("Med", "alice", {"Doctor", "Nurse"});
    sys.assign_attributes("Med", "bob", {"Doctor"});
    sys.issue_user_key("Med", "alice", "hosp");
    sys.issue_user_key("Med", "bob", "hosp");
  }

  Bytes wire(const std::string& file_id) {
    return serialize(*grp, *sys.server().fetch(file_id));
  }

  std::shared_ptr<const Group> grp;
  CloudSystem sys;
};

/// The key the decrypt cache used before it read wire bytes: SHA-256 over
/// a Writer holding the decoded slot re-serialized.
Bytes reference_key(const Group& grp, const std::string& file_id, const SealedSlot& slot) {
  Writer w;
  w.str(file_id);
  w.str(slot.component_name);
  w.var_bytes(abe::serialize(grp, slot.key_ct));
  w.var_bytes(slot.sealed_data);
  return crypto::Sha256::digest(w.bytes());
}

struct CacheCounts {
  uint64_t hits, misses;
  size_t size;
  bool operator==(const CacheCounts&) const = default;
};

CacheCounts counts(const Consumer& c) {
  return {c.decrypt_cache_hits(), c.decrypt_cache_misses(), c.decrypt_cache_size()};
}

void expect_round_trip_and_wire_keys(std::shared_ptr<const Group> grp) {
  World w(std::move(grp));
  const Group& g = *w.grp;
  const Consumer& alice = w.sys.user("alice");
  const std::vector<std::string> policies = {"Doctor@Med AND Nurse@Med",
                                             "Doctor@Med OR Surgeon@Med",
                                             "2 of (Doctor@Med, Nurse@Med, Surgeon@Med)"};
  for (size_t n = 1; n <= 3; ++n) {
    const std::string file_id = "f" + std::to_string(n);
    std::vector<DataComponent> components;
    for (size_t i = 0; i < n; ++i) {
      components.push_back({"c" + std::to_string(i), bytes_of(file_id + " component " +
                                                              std::to_string(i)),
                            policies[(n + i) % policies.size()]});
    }
    w.sys.upload("hosp", file_id, components);

    const Bytes wire = w.wire(file_id);
    const StoredFile file = deserialize_stored_file(g, wire);
    EXPECT_EQ(serialize(g, file), wire) << file_id;

    const StoredFileView view = view_stored_file(wire);
    EXPECT_EQ(view.file_id, file_id);
    EXPECT_EQ(view.owner_id, "hosp");
    ASSERT_EQ(view.slots.size(), n);
    std::vector<Bytes> keys;
    for (size_t i = 0; i < n; ++i) {
      const SlotView& slot = view.slots[i];
      const Bytes key_ct = abe::serialize(g, file.slots[i].key_ct);
      EXPECT_EQ(slot.component_name, file.slots[i].component_name);
      EXPECT_TRUE(std::ranges::equal(slot.key_ct, key_ct));
      EXPECT_TRUE(std::ranges::equal(slot.sealed_data, file.slots[i].sealed_data));
      const Bytes key = alice.decrypt_cache_key(view.file_id, slot);
      EXPECT_EQ(key, alice.decrypt_cache_key(file.file_id, {file.slots[i].component_name,
                                                            key_ct, file.slots[i].sealed_data}));
      EXPECT_EQ(key, reference_key(g, file.file_id, file.slots[i]));
      keys.push_back(key);
    }

    // A download caches every slot it opens under exactly those keys,
    // and the second download is all hits.
    const auto first = w.sys.download_report("alice", file_id);
    ASSERT_TRUE(first.all_ok()) << file_id;
    for (const Bytes& key : keys) EXPECT_TRUE(alice.decrypt_cached(key)) << file_id;
    const CacheCounts before = counts(alice);
    const auto second = w.sys.download_report("alice", file_id);
    EXPECT_EQ(second.opened(), first.opened());
    EXPECT_EQ(counts(alice), (CacheCounts{before.hits + n, before.misses, before.size}));
  }
}

TEST(WireCache, AcceptedWireRoundTripsAndKeysOnItsBytes) {
  expect_round_trip_and_wire_keys(Group::test_small());
}

TEST(WireCache, AcceptedWireRoundTripsAndKeysOnItsBytesPaperCurve) {
  expect_round_trip_and_wire_keys(Group::pbc_a512());
}

TEST(WireCache, PointEncodingIsCanonical) {
  for (const auto& grp : {Group::test_small(), Group::pbc_a512()}) {
    // x = 0 lifts to the 2-torsion point (0, 0): flag 0 is its encoding,
    // and flag 1 (an odd root that does not exist) is refused.
    Bytes origin(grp->g1_size(), 0);
    EXPECT_EQ(grp->g1_from_bytes(origin).to_bytes(), origin);
    origin.back() = 1;
    EXPECT_THROW(grp->g1_from_bytes(origin), WireError);
  }
}

TEST(WireCache, AuthorityVersionsMustAscend) {
  World w(Group::test_small());
  w.sys.upload("hosp", "f", {{"a", bytes_of("x"), "Doctor@Med"}});
  abe::Ciphertext ct = w.sys.server().fetch("f")->slots.at(0).key_ct;
  ct.versions.clear();
  Bytes prefix = abe::serialize(*w.grp, ct);
  prefix.resize(prefix.size() - 4);  // drop the empty version table's count
  const auto with_versions = [&](const std::vector<std::string>& aids) {
    Writer tail;
    tail.u32(static_cast<uint32_t>(aids.size()));
    for (const std::string& aid : aids) {
      tail.str(aid);
      tail.u32(1);
    }
    Bytes out = prefix;
    out.insert(out.end(), tail.bytes().begin(), tail.bytes().end());
    return out;
  };
  const Bytes ascending = with_versions({"Med", "Zed"});
  EXPECT_EQ(abe::serialize(*w.grp, abe::deserialize_ciphertext(*w.grp, ascending)), ascending);
  EXPECT_THROW(abe::deserialize_ciphertext(*w.grp, with_versions({"Zed", "Med"})), WireError);
  EXPECT_THROW(abe::deserialize_ciphertext(*w.grp, with_versions({"Med", "Med"})), WireError);
}

/// `wire` with the x coordinate of `point`'s encoding replaced by an x
/// that is not on the curve (same flag byte, same length).
Bytes with_off_curve_x(const Group& grp, Bytes wire, const pairing::G1& point) {
  const Bytes enc = point.to_bytes();
  const auto at = std::search(wire.begin(), wire.end(), enc.begin(), enc.end());
  EXPECT_NE(at, wire.end());
  Bytes bad(enc.size(), 0);
  for (uint8_t x = 2;; ++x) {
    bad[bad.size() - 2] = x;
    try {
      grp.g1_from_bytes(bad);
    } catch (const WireError&) {
      break;  // no y for this x
    }
  }
  std::copy(bad.begin(), bad.end() - 1, at);
  return wire;
}

void expect_malformed_miss_fails_whole_file(std::shared_ptr<const Group> grp) {
  World w(std::move(grp));
  // alice opens a; b needs Surgeon, which she does not hold.
  w.sys.upload("hosp", "f", {{"a", bytes_of("cached slot"), "Doctor@Med"},
                             {"b", bytes_of("no key for this one"), "Surgeon@Med"}});
  const Consumer& alice = w.sys.user("alice");
  const auto first = w.sys.download_report("alice", "f");
  ASSERT_EQ(first.slots.size(), 2u);
  EXPECT_EQ(first.slots[0].state, CloudSystem::SlotState::kOk);
  EXPECT_EQ(first.slots[1].state, CloudSystem::SlotState::kNoKey);
  const CacheCounts hot = counts(alice);
  EXPECT_EQ(hot, (CacheCounts{0, 1, 1}));

  const std::shared_ptr<const StoredFile> stored = w.sys.server().fetch("f");
  const Bytes good = serialize(*w.grp, *stored);
  const Bytes bad = with_off_curve_x(*w.grp, good, stored->slots[1].key_ct.c_prime);
  // Structurally sound: only the miss's decode can reject it.
  EXPECT_NO_THROW(view_stored_file(bad));
  EXPECT_THROW(w.sys.open_wire(alice, bad), WireError);
  EXPECT_EQ(counts(alice), hot);

  // The untouched bytes still serve a from the cache.
  const auto again = w.sys.open_wire(alice, good);
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again[0].state, CloudSystem::SlotState::kOk);
  EXPECT_EQ(string_of(again[0].plaintext), "cached slot");
  EXPECT_EQ(again[1].state, CloudSystem::SlotState::kNoKey);
  EXPECT_EQ(counts(alice), (CacheCounts{1, 1, 1}));
}

TEST(WireCache, MalformedMissFailsWholeDownloadAndLeavesCache) {
  expect_malformed_miss_fails_whole_file(Group::test_small());
}

TEST(WireCache, MalformedMissFailsWholeDownloadAndLeavesCachePaperCurve) {
  expect_malformed_miss_fails_whole_file(Group::pbc_a512());
}

TEST(WireCache, CachedSlotUnderRewrittenOwnerFails) {
  World w(Group::test_small());
  w.sys.upload("hosp", "f", {{"a", bytes_of("cached slot"), "Doctor@Med"}});
  const Consumer& alice = w.sys.user("alice");
  ASSERT_TRUE(w.sys.download_report("alice", "f").all_ok());
  ASSERT_TRUE(w.sys.download_report("alice", "f").all_ok());
  const CacheCounts hot = counts(alice);
  EXPECT_EQ(hot, (CacheCounts{1, 1, 1}));

  // The slot's bytes (and so its cache key) are unchanged; only the
  // outer owner id is rewritten.
  StoredFile file = *w.sys.server().fetch("f");
  file.owner_id = "mallory";
  EXPECT_THROW(w.sys.open_wire(alice, serialize(*w.grp, file)), WireError);
  EXPECT_EQ(counts(alice), hot);
}

// ---- a scripted read sequence, pinned ---------------------------------

const char* state_name(CloudSystem::SlotState s) {
  switch (s) {
    case CloudSystem::SlotState::kOk: return "ok";
    case CloudSystem::SlotState::kNoKey: return "nokey";
    case CloudSystem::SlotState::kCorrupt: return "corrupt";
    case CloudSystem::SlotState::kError: return "error";
  }
  return "?";
}

/// One download, as "<uid>: <slot>=<state>... hits=H misses=M size=S".
std::string read_line(CloudSystem& sys, const std::string& uid,
                      const std::map<std::string, std::string>& plaintexts) {
  const auto report = sys.download_report(uid, "f");
  std::string out = uid + ":";
  for (const auto& slot : report.slots) {
    out += " " + slot.component + "=" + state_name(slot.state);
    if (slot.state == CloudSystem::SlotState::kOk) {
      EXPECT_EQ(string_of(slot.plaintext), plaintexts.at(slot.component)) << uid;
    }
  }
  const Consumer& c = sys.user(uid);
  return out + " hits=" + std::to_string(c.decrypt_cache_hits()) +
         " misses=" + std::to_string(c.decrypt_cache_misses()) +
         " size=" + std::to_string(c.decrypt_cache_size()) + "\n";
}


// Upload, read, read, revoke, read, re-upload, read: the slot states and
// per-user cache counts are those the eager-decode receive step gave
// (pinned from a run of it).
TEST(WireCache, ScriptedSequenceKeepsStatesAndCounts) {
  World w(Group::test_small());
  CloudSystem& sys = w.sys;
  const std::map<std::string, std::string> r1 = {
      {"a", "doctors"}, {"b", "nurses"}, {"c", "doctors and nurses"}};
  sys.upload("hosp", "f", {{"a", bytes_of(r1.at("a")), "Doctor@Med"},
                           {"b", bytes_of(r1.at("b")), "Nurse@Med"},
                           {"c", bytes_of(r1.at("c")), "Doctor@Med AND Nurse@Med"}});
  std::string got;
  for (const char* uid : {"alice", "alice", "bob", "bob"}) got += read_line(sys, uid, r1);
  sys.revoke_attribute("Med", "alice", "Nurse");
  for (const char* uid : {"alice", "alice", "bob"}) got += read_line(sys, uid, r1);
  const std::map<std::string, std::string> r2 = {
      {"a#r2", "doctors v2"}, {"b#r2", "surgeons v2"}, {"c#r2", "doctors or surgeons v2"}};
  sys.upload("hosp", "f", {{"a#r2", bytes_of(r2.at("a#r2")), "Doctor@Med"},
                           {"b#r2", bytes_of(r2.at("b#r2")), "Surgeon@Med"},
                           {"c#r2", bytes_of(r2.at("c#r2")), "Doctor@Med OR Surgeon@Med"}});
  for (const char* uid : {"alice", "alice", "bob", "bob"}) got += read_line(sys, uid, r2);
  // One entry: each read's first opened slot evicts the second, which
  // then misses too.
  sys.user("bob").set_decrypt_cache_capacity(1);
  for (const char* uid : {"bob", "bob"}) got += read_line(sys, uid, r2);

  const char* const kPinned =
      "alice: a=ok b=ok c=ok hits=0 misses=3 size=3\n"
      "alice: a=ok b=ok c=ok hits=3 misses=3 size=3\n"
      "bob: a=ok b=nokey c=nokey hits=0 misses=1 size=1\n"
      "bob: a=ok b=nokey c=nokey hits=1 misses=1 size=1\n"
      "alice: a=ok b=nokey c=nokey hits=3 misses=4 size=1\n"
      "alice: a=ok b=nokey c=nokey hits=4 misses=4 size=1\n"
      "bob: a=ok b=nokey c=nokey hits=1 misses=2 size=1\n"
      "alice: a#r2=ok b#r2=nokey c#r2=ok hits=4 misses=6 size=3\n"
      "alice: a#r2=ok b#r2=nokey c#r2=ok hits=6 misses=6 size=3\n"
      "bob: a#r2=ok b#r2=nokey c#r2=ok hits=1 misses=4 size=3\n"
      "bob: a#r2=ok b#r2=nokey c#r2=ok hits=3 misses=4 size=3\n"
      "bob: a#r2=ok b#r2=nokey c#r2=ok hits=3 misses=6 size=1\n"
      "bob: a#r2=ok b#r2=nokey c#r2=ok hits=3 misses=8 size=1\n";
  EXPECT_EQ(got, kPinned);
}

}  // namespace
}  // namespace maabe::cloud
