#include "math/bignum.h"

#include <bit>

#include "common/errors.h"

namespace maabe::math {

using u128 = unsigned __int128;

void Bignum::normalize() {
  while (n_ > 0 && l_[n_ - 1] == 0) --n_;
}

void Bignum::set_limbs(int n) {
  if (n > kMaxLimbs) throw MathError("Bignum: capacity exceeded");
  n_ = n;
}

Bignum Bignum::from_u64(uint64_t v) {
  Bignum b;
  if (v != 0) {
    b.l_[0] = v;
    b.n_ = 1;
  }
  return b;
}

Bignum Bignum::from_limbs_le(const uint64_t* limbs, int n) {
  Bignum b;
  b.set_limbs(n);
  for (int i = 0; i < n; ++i) b.l_[i] = limbs[i];
  b.normalize();
  return b;
}

Bignum Bignum::from_hex(std::string_view hex) {
  if (hex.starts_with("0x") || hex.starts_with("0X")) hex.remove_prefix(2);
  if (hex.empty()) throw MathError("Bignum::from_hex: empty string");
  Bignum b;
  int bits = 0;
  for (char c : hex) {
    int v;
    if (c >= '0' && c <= '9')
      v = c - '0';
    else if (c >= 'a' && c <= 'f')
      v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F')
      v = c - 'A' + 10;
    else
      throw MathError("Bignum::from_hex: invalid digit");
    // b = b*16 + v
    if (bits + 4 > kMaxLimbs * 64) throw MathError("Bignum: capacity exceeded");
    uint64_t carry = static_cast<uint64_t>(v);
    for (int i = 0; i < b.n_ || carry; ++i) {
      if (i >= kMaxLimbs) throw MathError("Bignum: capacity exceeded");
      const u128 t = (u128(b.l_[i]) << 4) | carry;
      b.l_[i] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
      if (i >= b.n_) b.n_ = i + 1;
    }
    bits = b.bit_length();
  }
  b.normalize();
  return b;
}

Bignum Bignum::from_bytes_be(ByteView data) {
  // Skip leading zeros.
  size_t i = 0;
  while (i < data.size() && data[i] == 0) ++i;
  const size_t len = data.size() - i;
  if (len > size_t(kMaxLimbs) * 8) throw MathError("Bignum: capacity exceeded");
  Bignum b;
  b.n_ = static_cast<int>((len + 7) / 8);
  for (size_t k = 0; k < len; ++k) {
    const uint8_t byte = data[data.size() - 1 - k];
    b.l_[k / 8] |= uint64_t(byte) << (8 * (k % 8));
  }
  b.normalize();
  return b;
}

uint64_t Bignum::to_u64() const {
  if (n_ > 1) throw MathError("Bignum::to_u64: value too large");
  return n_ == 0 ? 0 : l_[0];
}

std::string Bignum::to_hex() const {
  if (is_zero()) return "0";
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  bool started = false;
  for (int i = n_ - 1; i >= 0; --i) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int nib = static_cast<int>(l_[i] >> shift) & 0xf;
      if (!started && nib == 0) continue;
      started = true;
      out.push_back(kDigits[nib]);
    }
  }
  return out;
}

Bytes Bignum::to_bytes_be(size_t width) const {
  if (size_t(bit_length()) > width * 8) throw MathError("Bignum::to_bytes_be: value does not fit");
  Bytes out(width, 0);
  for (size_t k = 0; k < width && k < size_t(n_) * 8; ++k) {
    out[width - 1 - k] = static_cast<uint8_t>(l_[k / 8] >> (8 * (k % 8)));
  }
  return out;
}

Bytes Bignum::to_bytes_be_min() const {
  return to_bytes_be((bit_length() + 7) / 8);
}

int Bignum::bit_length() const {
  if (n_ == 0) return 0;
  return 64 * n_ - std::countl_zero(l_[n_ - 1]);
}

bool Bignum::bit(int i) const {
  if (i < 0 || i >= n_ * 64) return false;
  return (l_[i / 64] >> (i % 64)) & 1;
}

int Bignum::cmp(const Bignum& a, const Bignum& b) {
  if (a.n_ != b.n_) return a.n_ < b.n_ ? -1 : 1;
  for (int i = a.n_ - 1; i >= 0; --i) {
    if (a.l_[i] != b.l_[i]) return a.l_[i] < b.l_[i] ? -1 : 1;
  }
  return 0;
}

Bignum Bignum::add(const Bignum& a, const Bignum& b) {
  Bignum out;
  const int n = std::max(a.n_, b.n_);
  uint64_t carry = 0;
  for (int i = 0; i < n; ++i) {
    const u128 t = u128(a.limb(i)) + b.limb(i) + carry;
    out.l_[i] = static_cast<uint64_t>(t);
    carry = static_cast<uint64_t>(t >> 64);
  }
  out.n_ = n;
  if (carry) {
    out.set_limbs(n + 1);
    out.l_[n] = carry;
  }
  out.normalize();
  return out;
}

Bignum Bignum::sub(const Bignum& a, const Bignum& b) {
  if (cmp(a, b) < 0) throw MathError("Bignum::sub: negative result");
  Bignum out;
  uint64_t borrow = 0;
  for (int i = 0; i < a.n_; ++i) {
    const u128 t = u128(a.limb(i)) - b.limb(i) - borrow;
    out.l_[i] = static_cast<uint64_t>(t);
    borrow = (t >> 64) ? 1 : 0;
  }
  out.n_ = a.n_;
  out.normalize();
  return out;
}

Bignum Bignum::mul(const Bignum& a, const Bignum& b) {
  if (a.is_zero() || b.is_zero()) return Bignum();
  Bignum out;
  out.set_limbs(a.n_ + b.n_);
  for (int i = 0; i < a.n_; ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a.l_[i];
    for (int j = 0; j < b.n_; ++j) {
      const u128 t = u128(ai) * b.l_[j] + out.l_[i + j] + carry;
      out.l_[i + j] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    out.l_[i + b.n_] = carry;
  }
  out.normalize();
  return out;
}

Bignum Bignum::shl(const Bignum& a, int bits) {
  if (bits < 0) throw MathError("Bignum::shl: negative shift");
  if (a.is_zero() || bits == 0) return a;
  const int limb_shift = bits / 64;
  const int bit_shift = bits % 64;
  Bignum out;
  const int needed = (a.bit_length() + bits + 63) / 64;
  out.set_limbs(needed);
  for (int i = a.n_ - 1; i >= 0; --i) {
    const uint64_t v = a.l_[i];
    if (bit_shift == 0) {
      out.l_[i + limb_shift] = v;
    } else {
      if (i + limb_shift + 1 < needed)
        out.l_[i + limb_shift + 1] |= v >> (64 - bit_shift);
      out.l_[i + limb_shift] |= v << bit_shift;
    }
  }
  out.normalize();
  return out;
}

Bignum Bignum::shr(const Bignum& a, int bits) {
  if (bits < 0) throw MathError("Bignum::shr: negative shift");
  if (a.is_zero() || bits == 0) return a;
  const int limb_shift = bits / 64;
  const int bit_shift = bits % 64;
  if (limb_shift >= a.n_) return Bignum();
  Bignum out;
  out.n_ = a.n_ - limb_shift;
  for (int i = 0; i < out.n_; ++i) {
    uint64_t v = a.l_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < a.n_)
      v |= a.l_[i + limb_shift + 1] << (64 - bit_shift);
    out.l_[i] = v;
  }
  out.normalize();
  return out;
}

void Bignum::divmod(const Bignum& a, const Bignum& b, Bignum* q, Bignum* r) {
  if (b.is_zero()) throw MathError("Bignum::divmod: division by zero");
  if (cmp(a, b) < 0) {
    if (q) *q = Bignum();
    if (r) *r = a;
    return;
  }
  if (b.n_ == 1) {
    // Single-limb fast path.
    const uint64_t d = b.l_[0];
    Bignum quot;
    quot.n_ = a.n_;
    uint64_t rem = 0;
    for (int i = a.n_ - 1; i >= 0; --i) {
      const u128 cur = (u128(rem) << 64) | a.l_[i];
      quot.l_[i] = static_cast<uint64_t>(cur / d);
      rem = static_cast<uint64_t>(cur % d);
    }
    quot.normalize();
    if (q) *q = quot;
    if (r) *r = from_u64(rem);
    return;
  }

  // Knuth TAOCP vol 2, Algorithm D.
  const int n = b.n_;
  const int m = a.n_ - n;
  const int s = std::countl_zero(b.l_[n - 1]);

  // Normalized divisor and dividend. un has m+n+1 limbs.
  std::array<uint64_t, kMaxLimbs + 1> un{};
  std::array<uint64_t, kMaxLimbs> vn{};
  {
    const Bignum bs = shl(b, s);
    for (int i = 0; i < n; ++i) vn[i] = bs.l_[i];
    const Bignum as = shl(a, s);
    if (as.n_ > kMaxLimbs) throw MathError("Bignum::divmod: capacity exceeded");
    for (int i = 0; i < as.n_; ++i) un[i] = as.l_[i];
  }

  Bignum quot;
  quot.set_limbs(m + 1);
  constexpr u128 kBase = u128(1) << 64;

  for (int j = m; j >= 0; --j) {
    const u128 top = (u128(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = top / vn[n - 1];
    u128 rhat = top % vn[n - 1];
    while (qhat >= kBase ||
           u128(qhat) * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply and subtract: un[j..j+n] -= qhat * vn[0..n-1].
    u128 borrow = 0;
    u128 carry = 0;
    for (int i = 0; i < n; ++i) {
      const u128 p = qhat * vn[i] + carry;
      carry = p >> 64;
      const u128 t = u128(un[i + j]) - static_cast<uint64_t>(p) - borrow;
      un[i + j] = static_cast<uint64_t>(t);
      borrow = (t >> 64) ? 1 : 0;
    }
    const u128 t = u128(un[j + n]) - carry - borrow;
    un[j + n] = static_cast<uint64_t>(t);
    if (t >> 64) {
      // qhat was one too large: add the divisor back.
      --qhat;
      uint64_t c = 0;
      for (int i = 0; i < n; ++i) {
        const u128 sum = u128(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<uint64_t>(sum);
        c = static_cast<uint64_t>(sum >> 64);
      }
      un[j + n] += c;
    }
    quot.l_[j] = static_cast<uint64_t>(qhat);
  }
  quot.normalize();

  if (r) {
    Bignum rem;
    rem.n_ = n;
    for (int i = 0; i < n; ++i) rem.l_[i] = un[i];
    rem.normalize();
    *r = shr(rem, s);
  }
  if (q) *q = quot;
}

Bignum Bignum::div(const Bignum& a, const Bignum& b) {
  Bignum q;
  divmod(a, b, &q, nullptr);
  return q;
}

Bignum Bignum::mod(const Bignum& a, const Bignum& m) {
  Bignum r;
  divmod(a, m, nullptr, &r);
  return r;
}

Bignum Bignum::mod_add(const Bignum& a, const Bignum& b, const Bignum& m) {
  Bignum s = add(a, b);
  if (cmp(s, m) >= 0) s = sub(s, m);
  return s;
}

Bignum Bignum::mod_sub(const Bignum& a, const Bignum& b, const Bignum& m) {
  if (cmp(a, b) >= 0) return sub(a, b);
  return sub(add(a, m), b);
}

}  // namespace maabe::math
