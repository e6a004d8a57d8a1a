/// \file gf256.h
/// \brief GF(2^8) arithmetic (AES-adjacent polynomial x^8+x^4+x^3+x^2+1).
///
/// Backs the Reed-Solomon codec that serves as the constant-rate ECC in the
/// Theorem 3.6 unique-list-recoverable code (see "Implementation
/// substitutions" in docs/protocols.md).

#ifndef LDPHH_CODES_GF256_H_
#define LDPHH_CODES_GF256_H_

#include <array>
#include <cstdint>

namespace ldphh {

/// Arithmetic over GF(2^8) via log/antilog tables (generator 0x02,
/// reduction polynomial 0x11d).
class GF256 {
 public:
  /// Field addition (= subtraction = XOR).
  static uint8_t Add(uint8_t a, uint8_t b) { return a ^ b; }

  /// Field multiplication.
  static uint8_t Mul(uint8_t a, uint8_t b) {
    if (a == 0 || b == 0) return 0;
    return Exp(Log(a) + Log(b));
  }

  /// Multiplicative inverse; a must be nonzero.
  static uint8_t Inv(uint8_t a) { return Exp(255 - Log(a)); }

  /// a / b with b nonzero.
  static uint8_t Div(uint8_t a, uint8_t b) {
    if (a == 0) return 0;
    return Exp(Log(a) + 255 - Log(b));
  }

  /// a^e for e >= 0.
  static uint8_t Pow(uint8_t a, int e) {
    if (a == 0) return e == 0 ? 1 : 0;
    const int l = (Log(a) * (e % 255)) % 255;
    return Exp((l + 255) % 255);
  }

  /// The generator element alpha = 0x02 raised to the i-th power.
  static uint8_t AlphaPow(int i) { return Exp(((i % 255) + 255) % 255); }

  /// Discrete log base alpha; a must be nonzero.
  static int Log(uint8_t a) { return tables().log[a]; }

  /// alpha^i with i reduced mod 255 (accepts i in [0, 510)).
  static uint8_t Exp(int i) { return tables().exp[i % 255]; }

 private:
  struct Tables {
    std::array<uint8_t, 255> exp;
    std::array<int, 256> log;
  };
  static const Tables& tables();
};

}  // namespace ldphh

#endif  // LDPHH_CODES_GF256_H_
