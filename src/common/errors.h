// Exception hierarchy for the maabe library.
//
// All library errors derive from maabe::Error. Callers that want a single
// catch-all can catch Error&; the subsystem-specific types exist so that
// tests and applications can distinguish "bad policy string" from
// "ciphertext corrupted" without string matching.
#pragma once

#include <stdexcept>
#include <string>

namespace maabe {

/// Base class of every exception thrown by this library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Arithmetic or pairing-layer misuse: overflow of fixed bignum capacity,
/// division by zero, non-invertible element, malformed numeric encoding,
/// and group-element misuse (uninitialized elements, mixing elements or
/// exponents from different Groups). The math/ and pairing/ layers throw
/// only MathError (or WireError for decoding) — never the ABE layer's
/// SchemeError, which belongs to the scheme layers above them.
class MathError : public Error {
 public:
  using Error::Error;
};

/// Symmetric-crypto failures: bad key sizes, MAC verification failure.
class CryptoError : public Error {
 public:
  using Error::Error;
};

/// Access-policy failures: parse errors, duplicate attributes (the paper
/// requires an injective row-labeling function rho), empty policies.
class PolicyError : public Error {
 public:
  using Error::Error;
};

/// ABE-scheme misuse or failure: missing key material, attributes that do
/// not satisfy the access structure, key/ciphertext version mismatches.
/// Thrown by the abe/, baseline/, cloud/ and tools/ layers only.
class SchemeError : public Error {
 public:
  using Error::Error;
};

/// Serialization failures: truncated buffers, bad tags, range violations.
class WireError : public Error {
 public:
  using Error::Error;
};

/// Byte-transport failures (cloud/transport.h): lost or corrupted
/// frames, exhausted retry budgets, and reads refused while revocation
/// epochs are still parked in a pending queue. The kind distinguishes
/// the failure classes so tests and retry policies can react without
/// string matching.
class TransportError : public Error {
 public:
  enum class Kind {
    kLost,       ///< frame (or its acknowledgement) never arrived
    kChecksum,   ///< frame arrived but failed integrity verification
    kMalformed,  ///< frame structure invalid (bad magic, bad lengths)
    kExhausted,   ///< retry attempts or the send deadline ran out
    kDegraded,    ///< operation refused fail-closed (pending deliveries)
    kOverloaded,  ///< admission control rejected the op (bounded queue full)
  };
  TransportError(Kind kind, const std::string& what) : Error(what), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

}  // namespace maabe
