#include "crypto/aes.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/errors.h"
#include "crypto/kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define MAABE_CRYPTO_AESNI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define MAABE_CRYPTO_AESNI 0
#endif

namespace maabe::crypto {

namespace {

constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

uint8_t inv_sbox(uint8_t y) {
  // Small table built lazily; AES decryption is not on any hot path.
  static const auto kInv = [] {
    std::array<uint8_t, 256> t{};
    for (int i = 0; i < 256; ++i) t[kSbox[i]] = static_cast<uint8_t>(i);
    return t;
  }();
  return kInv[y];
}

uint8_t xtime(uint8_t x) { return static_cast<uint8_t>(x << 1 ^ ((x >> 7) * 0x1b)); }

uint8_t gmul(uint8_t a, uint8_t b) {
  uint8_t out = 0;
  while (b) {
    if (b & 1) out ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return out;
}

}  // namespace

Aes::Aes(ByteView key) {
  const size_t nk_bytes = key.size();
  if (nk_bytes != 16 && nk_bytes != 24 && nk_bytes != 32)
    throw CryptoError("Aes: key must be 16, 24 or 32 bytes");
  const int nk = static_cast<int>(nk_bytes / 4);
  rounds_ = nk + 6;

  // Key schedule over 4-byte words.
  uint8_t w[60][4];
  for (int i = 0; i < nk; ++i)
    for (int j = 0; j < 4; ++j) w[i][j] = key[4 * i + j];
  uint8_t rcon = 1;
  for (int i = nk; i < 4 * (rounds_ + 1); ++i) {
    uint8_t t[4] = {w[i - 1][0], w[i - 1][1], w[i - 1][2], w[i - 1][3]};
    if (i % nk == 0) {
      const uint8_t tmp = t[0];
      t[0] = static_cast<uint8_t>(kSbox[t[1]] ^ rcon);
      t[1] = kSbox[t[2]];
      t[2] = kSbox[t[3]];
      t[3] = kSbox[tmp];
      rcon = xtime(rcon);
    } else if (nk > 6 && i % nk == 4) {
      for (auto& b : t) b = kSbox[b];
    }
    for (int j = 0; j < 4; ++j) w[i][j] = w[i - nk][j] ^ t[j];
  }
  for (int r = 0; r <= rounds_; ++r)
    for (int c = 0; c < 4; ++c)
      for (int j = 0; j < 4; ++j) round_keys_[r][4 * c + j] = w[4 * r + c][j];
}

void Aes::encrypt_block(uint8_t b[kBlockSize]) const {
  const auto add_round_key = [&](int r) {
    for (int i = 0; i < 16; ++i) b[i] ^= round_keys_[r][i];
  };
  const auto sub_shift = [&] {
    uint8_t t[16];
    // SubBytes + ShiftRows combined. State is column-major: b[4c+r].
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) t[4 * c + r] = kSbox[b[4 * ((c + r) % 4) + r]];
    std::memcpy(b, t, 16);
  };
  const auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = b + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3);
      col[1] = static_cast<uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3);
      col[2] = static_cast<uint8_t>(a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3);
      col[3] = static_cast<uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (int r = 1; r < rounds_; ++r) {
    sub_shift();
    mix_columns();
    add_round_key(r);
  }
  sub_shift();
  add_round_key(rounds_);
}

void Aes::decrypt_block(uint8_t b[kBlockSize]) const {
  const auto add_round_key = [&](int r) {
    for (int i = 0; i < 16; ++i) b[i] ^= round_keys_[r][i];
  };
  const auto inv_sub_shift = [&] {
    uint8_t t[16];
    for (int c = 0; c < 4; ++c)
      for (int r = 0; r < 4; ++r) t[4 * ((c + r) % 4) + r] = inv_sbox(b[4 * c + r]);
    std::memcpy(b, t, 16);
  };
  const auto inv_mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      uint8_t* col = b + 4 * c;
      const uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
      col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
      col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
      col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
  };

  add_round_key(rounds_);
  for (int r = rounds_ - 1; r >= 1; --r) {
    inv_sub_shift();
    add_round_key(r);
    inv_mix_columns();
  }
  inv_sub_shift();
  add_round_key(0);
}

namespace detail {

Bytes aes_ctr_portable(const Aes& aes, ByteView iv, ByteView data) {
  uint8_t counter[16];
  std::memcpy(counter, iv.data(), 16);

  Bytes out(data.begin(), data.end());
  uint8_t keystream[16];
  for (size_t off = 0; off < out.size(); off += 16) {
    std::memcpy(keystream, counter, 16);
    aes.encrypt_block(keystream);
    const size_t n = std::min<size_t>(16, out.size() - off);
    for (size_t i = 0; i < n; ++i) out[off + i] ^= keystream[i];
    // Increment the low 32 bits of the counter block (big-endian).
    for (int i = 15; i >= 12; --i) {
      if (++counter[i] != 0) break;
    }
  }
  return out;
}

bool aes_ni_available() {
#if MAABE_CRYPTO_AESNI
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    return (ecx & bit_AES) != 0 && (ecx & bit_SSE4_1) != 0;
  }();
  return available;
#else
  return false;
#endif
}

#if MAABE_CRYPTO_AESNI
namespace {

/// Encrypts `n` counter blocks (n <= 8) under the loaded round keys.
/// The counter block is the IV's 12-byte prefix with the big-endian
/// 32-bit count in its last 4 bytes.
__attribute__((target("aes,sse4.1"))) inline void encrypt_counters(
    const __m128i* rk, int rounds, __m128i prefix, uint32_t count, int n, __m128i* b) {
  for (int i = 0; i < n; ++i)
    b[i] = _mm_xor_si128(
        _mm_insert_epi32(prefix, static_cast<int>(__builtin_bswap32(count + i)), 3), rk[0]);
  for (int r = 1; r < rounds; ++r)
    for (int i = 0; i < n; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
  for (int i = 0; i < n; ++i) b[i] = _mm_aesenclast_si128(b[i], rk[rounds]);
}

}  // namespace

__attribute__((target("aes,sse4.1"))) Bytes aes_ctr_aesni(const Aes& aes, ByteView iv,
                                                          ByteView data) {
  constexpr int kLanes = 8;
  const int rounds = aes.rounds();
  __m128i rk[15];
  for (int r = 0; r <= rounds; ++r)
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(aes.round_key(r)));
  const __m128i prefix = _mm_loadu_si128(reinterpret_cast<const __m128i*>(iv.data()));
  uint32_t count = uint32_t(iv[12]) << 24 | uint32_t(iv[13]) << 16 | uint32_t(iv[14]) << 8 |
                   uint32_t(iv[15]);

  Bytes out(data.size());
  const uint8_t* in = data.data();
  uint8_t* dst = out.data();
  size_t left = data.size();
  __m128i ks[kLanes];
  while (left > 0) {
    const size_t blocks = std::min<size_t>(kLanes, (left + 15) / 16);
    const int n = static_cast<int>(blocks);
    if (n == kLanes)
      encrypt_counters(rk, rounds, prefix, count, kLanes, ks);  // constant trip count
    else
      encrypt_counters(rk, rounds, prefix, count, n, ks);
    count += static_cast<uint32_t>(n);
    const size_t whole = std::min(left / 16, blocks);
    for (size_t i = 0; i < whole; ++i) {
      const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + 16 * i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 16 * i), _mm_xor_si128(x, ks[i]));
    }
    if (whole < blocks) {  // trailing partial block
      uint8_t pad[16];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pad), ks[whole]);
      const size_t tail = left - 16 * whole;
      for (size_t i = 0; i < tail; ++i) dst[16 * whole + i] = in[16 * whole + i] ^ pad[i];
      break;
    }
    in += 16 * blocks;
    dst += 16 * blocks;
    left -= 16 * blocks;
  }
  return out;
}
#else
Bytes aes_ctr_aesni(const Aes& aes, ByteView iv, ByteView data) {
  return aes_ctr_portable(aes, iv, data);  // unreachable: aes_ni_available() is false
}
#endif

}  // namespace detail

Bytes aes_ctr(ByteView key, ByteView iv, ByteView data) {
  if (iv.size() != Aes::kBlockSize) throw CryptoError("aes_ctr: IV must be 16 bytes");
  const Aes aes(key);
  return detail::aes_ni_available() ? detail::aes_ctr_aesni(aes, iv, data)
                                    : detail::aes_ctr_portable(aes, iv, data);
}

}  // namespace maabe::crypto
