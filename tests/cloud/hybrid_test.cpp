#include "cloud/hybrid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <typeinfo>

#include "abe/scheme.h"
#include "common/errors.h"
#include "lsss/parser.h"

namespace maabe::cloud {
namespace {

using pairing::Group;
using pairing::GT;

TEST(Hybrid, ContentKeyDerivationDeterministic) {
  auto grp = Group::test_small();
  crypto::Drbg rng(std::string_view("hybrid"));
  const GT seed = grp->gt_random(rng);
  EXPECT_EQ(content_key_from_gt(seed), content_key_from_gt(seed));
  EXPECT_EQ(content_key_from_gt(seed).size(), crypto::kContentKeySize);
  const GT other = grp->gt_random(rng);
  EXPECT_NE(content_key_from_gt(seed), content_key_from_gt(other));
}

TEST(Hybrid, SlotIds) {
  EXPECT_EQ(slot_ct_id("file-1", "billing"), "file-1/billing");
  EXPECT_NE(slot_aad("f", "a"), slot_aad("f", "b"));
  EXPECT_NE(slot_aad("f1", "a"), slot_aad("f2", "a"));
}

TEST(Hybrid, StoredFileRoundTrip) {
  auto grp = Group::test_small();
  crypto::Drbg rng(std::string_view("hybrid-file"));

  // Build a minimal real slot.
  const auto mk = abe::owner_gen(*grp, "owner", rng);
  const auto vk = abe::aa_setup(*grp, "Med", rng);
  std::map<std::string, abe::AuthorityPublicKey> apks{{"Med", abe::aa_public_key(*grp, vk)}};
  std::map<std::string, abe::PublicAttributeKey> attr_pks;
  const auto pk = abe::aa_attribute_key(*grp, vk, "Doctor");
  attr_pks.emplace("Doctor@Med", pk);

  const GT seed = grp->gt_random(rng);
  const auto policy = lsss::LsssMatrix::from_policy(lsss::parse_policy("Doctor@Med"));
  auto enc = abe::encrypt(*grp, mk, "f/x", seed, policy, apks, attr_pks, rng);

  StoredFile file;
  file.file_id = "f";
  file.owner_id = "owner";
  SealedSlot slot;
  slot.component_name = "x";
  slot.key_ct = enc.ct;
  slot.sealed_data = crypto::seal(content_key_from_gt(seed), bytes_of("payload"),
                                  slot_aad("f", "x"), rng);
  file.slots.push_back(slot);

  const Bytes wire = serialize(*grp, file);
  const StoredFile back = deserialize_stored_file(*grp, wire);
  EXPECT_EQ(back.file_id, "f");
  EXPECT_EQ(back.owner_id, "owner");
  ASSERT_EQ(back.slots.size(), 1u);
  EXPECT_EQ(back.slots[0].component_name, "x");
  EXPECT_EQ(back.slots[0].sealed_data, slot.sealed_data);
  EXPECT_EQ(back.slots[0].key_ct.c, enc.ct.c);

  // Owner mismatch between file and slot is rejected.
  StoredFile bad = file;
  bad.owner_id = "other";
  EXPECT_THROW(deserialize_stored_file(*grp, serialize(*grp, bad)), WireError);
}

// ------------------------------------------- check_stored_file --

/// A two-slot stored file whose key ciphertexts each have C' and four
/// C_i (an AND of four attributes), so a first, middle and last C_i.
struct FourRowFile {
  std::shared_ptr<const Group> grp;
  StoredFile file;
  Bytes wire;

  explicit FourRowFile(std::shared_ptr<const Group> group = Group::test_small())
      : grp(std::move(group)) {
    crypto::Drbg rng(std::string_view("hybrid-check"));
    const auto mk = abe::owner_gen(*grp, "owner", rng);
    const auto vk = abe::aa_setup(*grp, "Med", rng);
    std::map<std::string, abe::AuthorityPublicKey> apks{{"Med", abe::aa_public_key(*grp, vk)}};
    std::map<std::string, abe::PublicAttributeKey> attr_pks;
    for (const char* attr : {"A", "B", "C", "D"}) {
      const auto pk = abe::aa_attribute_key(*grp, vk, attr);
      attr_pks.emplace(pk.attr.qualified(), pk);
    }
    const auto policy =
        lsss::LsssMatrix::from_policy(lsss::parse_policy("A@Med AND B@Med AND C@Med AND D@Med"));
    file.file_id = "f";
    file.owner_id = "owner";
    for (const char* name : {"x", "y"}) {
      const GT seed = grp->gt_random(rng);
      auto enc = abe::encrypt(*grp, mk, slot_ct_id("f", name), seed, policy, apks, attr_pks, rng);
      file.slots.push_back({name, std::move(enc.ct),
                            crypto::seal(content_key_from_gt(seed), bytes_of("payload"),
                                         slot_aad("f", name), rng)});
    }
    wire = serialize(*grp, file);
  }

  /// Offset in `wire` of the encoding of point `k` of slot `slot`:
  /// k = 0 is C', k = 1.. are the C_i.
  size_t point_at(size_t slot, size_t k) const {
    const abe::Ciphertext& ct = file.slots[slot].key_ct;
    const Bytes enc = (k == 0 ? ct.c_prime : ct.ci[k - 1]).to_bytes();
    const auto it = std::search(wire.begin(), wire.end(), enc.begin(), enc.end());
    EXPECT_NE(it, wire.end());
    return static_cast<size_t>(it - wire.begin());
  }
  size_t points_per_slot() const { return file.slots[0].key_ct.ci.size() + 1; }

  /// `wire` with point `k` of slot `slot` replaced by `enc`.
  Bytes with_point(size_t slot, size_t k, const Bytes& enc) const {
    Bytes out = wire;
    std::copy(enc.begin(), enc.end(), out.begin() + static_cast<ptrdiff_t>(point_at(slot, k)));
    return out;
  }
};

/// The type and message of what `fn` throws, or nullopt.
template <typename Fn>
std::optional<std::string> thrown(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  return std::nullopt;
}

/// check_stored_file throws exactly when deserialize_stored_file does,
/// the same type with the same message; returns that outcome.
std::optional<std::string> same_verdict(const Group& grp, ByteView data) {
  const auto decoded = thrown([&] { (void)deserialize_stored_file(grp, data); });
  const auto checked = thrown([&] { (void)check_stored_file(grp, data); });
  EXPECT_EQ(checked, decoded);
  return decoded;
}

/// An x whose x^3 + x is not a square: no point has it.
Bytes off_curve_encoding(const Group& grp) {
  for (uint64_t x = 1;; ++x) {
    Bytes enc = math::Bignum::from_u64(x).to_bytes_be(grp.g1_size() - 1);
    enc.push_back(0);
    if (thrown([&] { (void)grp.g1_from_bytes(enc); })) return enc;
  }
}

TEST(CheckStoredFile, AcceptsWhatDecodesAndReturnsTheView) {
  const FourRowFile f;
  EXPECT_EQ(same_verdict(*f.grp, f.wire), std::nullopt);
  const StoredFileView view = check_stored_file(*f.grp, f.wire);
  EXPECT_EQ(view.file_id, "f");
  EXPECT_EQ(view.owner_id, "owner");
  EXPECT_EQ(view.slots.size(), 2u);
}

TEST(CheckStoredFile, AgreesWithTheDecoderOnEveryTruncation) {
  const FourRowFile f;
  for (size_t len = 0; len < f.wire.size(); ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    EXPECT_NE(same_verdict(*f.grp, ByteView(f.wire).first(len)), std::nullopt);
  }
}

void check_every_byte_flip(std::shared_ptr<const Group> group) {
  const FourRowFile f(std::move(group));
  size_t refused = 0, cases = 0;
  for (size_t slot = 0; slot < f.file.slots.size(); ++slot) {
    for (size_t k = 0; k < f.points_per_slot(); ++k) {
      const size_t at = f.point_at(slot, k);
      for (size_t b = 0; b < f.grp->g1_size(); ++b) {
        for (const uint8_t mask : {0x01, 0x02, 0x80, 0xff}) {
          SCOPED_TRACE("slot " + std::to_string(slot) + " point " + std::to_string(k) +
                       " byte " + std::to_string(b) + " mask " + std::to_string(mask));
          Bytes flipped = f.wire;
          flipped[at + b] ^= mask;
          refused += same_verdict(*f.grp, flipped).has_value();
          ++cases;
        }
      }
    }
  }
  // Most flips leave the curve, land above q or break the flag; the
  // rest (a flipped sign bit, another x on the curve) still decode.
  EXPECT_GT(refused, cases / 3);
  EXPECT_LT(refused, cases);
}

TEST(CheckStoredFile, AgreesWithTheDecoderOnEveryByteFlipInEveryPoint) {
  check_every_byte_flip(Group::test_small());
  check_every_byte_flip(Group::pbc_a512());
}

void check_malformed_points(std::shared_ptr<const Group> group) {
  const FourRowFile f(std::move(group));
  const Group& grp = *f.grp;
  const size_t width = grp.g1_size() - 1;
  Bytes x_is_q = grp.params().q.to_bytes_be(width);
  x_is_q.push_back(0);
  Bytes zero_odd(width, 0);  // x = 0: x^3 + x = 0, whose root has no odd sign
  zero_odd.push_back(1);
  Bytes bad_flag = f.file.slots[0].key_ct.c_prime.to_bytes();
  bad_flag.back() = 3;
  Bytes bad_infinity(width, 0);
  bad_infinity[0] = 1;
  bad_infinity.push_back(2);
  const std::vector<std::pair<Bytes, std::string>> cases = {
      {off_curve_encoding(grp), "x not on curve"},
      {x_is_q, "value exceeds modulus"},
      {zero_odd, "bad sign flag"},
      {bad_flag, "bad sign flag"},
      {bad_infinity, "malformed infinity encoding"},
  };
  const size_t last = f.points_per_slot() - 1;
  for (const auto& [enc, message] : cases) {
    // C', the first, a middle and the last C_i, in either slot.
    for (size_t slot = 0; slot < f.file.slots.size(); ++slot) {
      for (const size_t k : {size_t{0}, size_t{1}, last / 2 + 1, last}) {
        SCOPED_TRACE(message + " at slot " + std::to_string(slot) + " point " +
                     std::to_string(k));
        const auto verdict = same_verdict(grp, f.with_point(slot, k, enc));
        ASSERT_TRUE(verdict.has_value());
        EXPECT_NE(verdict->find(message), std::string::npos) << *verdict;
      }
    }
  }
  // The point at infinity is a valid encoding anywhere.
  Bytes infinity(width, 0);
  infinity.push_back(2);
  EXPECT_EQ(same_verdict(grp, f.with_point(1, last, infinity)), std::nullopt);
}

TEST(CheckStoredFile, AgreesWithTheDecoderOnMalformedPointsAtEachPosition) {
  check_malformed_points(Group::test_small());
  check_malformed_points(Group::pbc_a512());
}

TEST(CheckStoredFile, FirstFailureWinsAcrossSlotsAsInTheDecoder) {
  const FourRowFile f;
  Bytes wire = f.with_point(0, 1, off_curve_encoding(*f.grp));
  // Every point's format is checked before any point's curve equation,
  // across slots: a format failure in the second slot is found before
  // a curve failure in the first, by both.
  Bytes x_is_q = f.grp->params().q.to_bytes_be(f.grp->g1_size() - 1);
  x_is_q.push_back(0);
  std::copy(x_is_q.begin(), x_is_q.end(),
            wire.begin() + static_cast<ptrdiff_t>(f.point_at(1, f.points_per_slot() - 1)));
  const auto verdict = same_verdict(*f.grp, wire);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_NE(verdict->find("value exceeds modulus"), std::string::npos) << *verdict;
}

TEST(Hybrid, DeserializeStoredFilesMatchesOneAtATime) {
  const FourRowFile f;
  StoredFile other = f.file;
  other.file_id = "g";
  other.slots.pop_back();
  const Bytes other_wire = serialize(*f.grp, other);
  const std::vector<ByteView> wires = {f.wire, other_wire, f.wire};
  const std::vector<StoredFile> batch = deserialize_stored_files(*f.grp, wires);
  ASSERT_EQ(batch.size(), wires.size());
  for (size_t i = 0; i < wires.size(); ++i)
    EXPECT_EQ(serialize(*f.grp, batch[i]), Bytes(wires[i].begin(), wires[i].end())) << i;
}

}  // namespace
}  // namespace maabe::cloud
