#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "common/errors.h"
#include "crypto/kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define MAABE_CRYPTO_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define MAABE_CRYPTO_SHANI 0
#endif

namespace maabe::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t rotr(uint32_t x, int n) { return std::rotr(x, n); }

}  // namespace

namespace detail {

void sha256_blocks_portable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = uint32_t(data[4 * i]) << 24 | uint32_t(data[4 * i + 1]) << 16 |
             uint32_t(data[4 * i + 2]) << 8 | uint32_t(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool sha_ni_available() {
#if MAABE_CRYPTO_SHANI
  static const bool available = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    if ((ecx & bit_SSE4_1) == 0 || (ecx & bit_SSSE3) == 0) return false;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    return (ebx & bit_SHA) != 0;
  }();
  return available;
#else
  return false;
#endif
}

#if MAABE_CRYPTO_SHANI
// The state lives as two vectors, ABEF and CDGH, the operand order of
// sha256rnds2. Group g of four rounds adds K to message vector m[g]
// (schedule words 4g..4g+3) and runs two rnds2 of two rounds each. From
// g = 4 on, m[g] = msg2(msg1(m[g-4], m[g-3]) + alignr(m[g-1], m[g-2], 4),
// m[g-1]); the four newest vectors are kept in a ring.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_blocks_shani(
    uint32_t state[8], const uint8_t* data, size_t blocks) {
  const __m128i kByteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));  // DCBA
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                            // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);                                          // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);                                  // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);                                       // CDGH

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& w = msg[g & 3];
      if (g < 4) {
        w = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)), kByteSwap);
      } else {
        const __m128i& w1 = msg[(g + 3) & 3];  // m[g-1]
        const __m128i& w2 = msg[(g + 2) & 3];  // m[g-2]
        const __m128i& w3 = msg[(g + 1) & 3];  // m[g-3]
        w = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w, w3), _mm_alignr_epi8(w1, w2, 4)), w1);
      }
      const __m128i wk =
          _mm_add_epi32(w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);     // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);    // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}
#else
void sha256_blocks_shani(uint32_t state[8], const uint8_t* data, size_t blocks) {
  sha256_blocks_portable(state, data, blocks);  // unreachable: sha_ni_available() is false
}
#endif

}  // namespace detail

namespace {

void compress_blocks(uint32_t state[8], const uint8_t* data, size_t blocks) {
  static const auto kernel =
      detail::sha_ni_available() ? &detail::sha256_blocks_shani : &detail::sha256_blocks_portable;
  kernel(state, data, blocks);
}

}  // namespace

Sha256::Sha256() {
  static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::memcpy(h_, kInit, sizeof(h_));
}

void Sha256::update(ByteView data) {
  if (finished_) throw CryptoError("Sha256: update after finish");
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    const size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == kBlockSize) {
      compress_blocks(h_, buf_, 1);
      buf_len_ = 0;
    }
  }
  const size_t blocks = (data.size() - off) / kBlockSize;
  if (blocks > 0) {
    compress_blocks(h_, data.data() + off, blocks);
    off += blocks * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Bytes Sha256::finish() {
  if (finished_) throw CryptoError("Sha256: finish called twice");
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, then the 64-bit big-endian message bit length.
  uint8_t pad[kBlockSize * 2] = {0x80};
  const size_t pad_len =
      (buf_len_ < 56 ? 56 - buf_len_ : kBlockSize + 56 - buf_len_);
  update(ByteView(pad, pad_len));
  uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) len_be[i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  update(ByteView(len_be, 8));
  finished_ = true;

  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Bytes Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace maabe::crypto
