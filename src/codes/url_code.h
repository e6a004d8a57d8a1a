/// \file url_code.h
/// \brief The unique-list-recoverable code of Theorem 3.6 (Larsen-Nelson-
/// Nguyen-Thorup), built from an inner ECC, an expander, and the caller's
/// per-coordinate hash functions h_1..h_M.
///
/// Encoding of x in coordinate m (paper notation):
///   Enc(x)_m   = (h_m(x), E~nc(x)_m)
///   E~nc(x)_m  = (enc(x)_m, h_{Gamma(m)_1}(x), ..., h_{Gamma(m)_d}(x))
/// where enc is the inner error-correcting code (Reed-Solomon here, see
/// "Implementation substitutions" in docs/protocols.md) split into M chunks,
/// and Gamma(m)_s is the s-th neighbor of m in the expander F.
///
/// Decoding receives a list per coordinate (with distinct hash values per
/// list — the "unique" in unique-list-recoverable), builds the layered graph
/// on [M] x [Y] whose edges are the mutually-confirmed neighbor suggestions,
/// extracts spectral clusters, peels low-degree vertices, reads off one
/// chunk per layer (erasure when a layer is missing), and ECC-decodes.
/// Every x whose encoding appears in at least (1 - alpha) M of the lists is
/// recovered.

#ifndef LDPHH_CODES_URL_CODE_H_
#define LDPHH_CODES_URL_CODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/codes/reed_solomon.h"
#include "src/common/bit_util.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/graphs/cluster.h"
#include "src/graphs/expander.h"
#include "src/hashing/kwise_hash.h"

namespace ldphh {

/// Parameters of the unique-list-recoverable code.
struct UrlCodeParams {
  int domain_bits = 64;      ///< log2 |X|, up to 256.
  int num_coords = 16;       ///< M, number of coordinates (even, >= 4).
  int hash_range = 256;      ///< Y, per-coordinate hash range (power of two).
  int expander_degree = 6;   ///< d, even.
  double alpha = 0.25;       ///< Tolerated fraction of bad coordinates.
  double lambda_fraction = 0.95;  ///< Expander certificate: lambda2 <= f * d.
  int verify_min_agree_percent = 60;  ///< Candidate acceptance threshold.
};

/// \brief Instantiated Enc/Dec pair of Theorem 3.6.
class UrlCode {
 public:
  /// The E~nc symbol at one coordinate.
  struct Symbol {
    std::vector<uint8_t> chunk;      ///< enc(x)_m: chunk_symbols bytes.
    std::vector<uint16_t> nbr_hash;  ///< d neighbor hash values, each < Y.
  };

  /// One entry of a decoder input list: a hash value and the packed payload
  /// bits of the symbol (as recovered bitwise by the frequency oracle).
  struct ListEntry {
    uint16_t y = 0;
    uint64_t payload = 0;
  };

  /// \brief Builds the code.
  ///
  /// \param params  see UrlCodeParams; CHECKed for consistency.
  /// \param seed    seeds the per-coordinate hashes h_m and the expander —
  ///                this is the code's share of the public randomness.
  static StatusOr<UrlCode> Create(const UrlCodeParams& params, uint64_t seed);

  /// Full encoding of \p x: hash value and symbol for every coordinate.
  struct Codeword {
    std::vector<uint16_t> y;       ///< h_m(x) for m in [M].
    std::vector<Symbol> symbols;   ///< E~nc(x)_m for m in [M].
  };
  Codeword Encode(const DomainItem& x) const;

  /// h_m(x) alone (cheap; used by verification).
  uint16_t CoordHash(const DomainItem& x, int m) const {
    return static_cast<uint16_t>(hashes_->at(m)(x));
  }

  /// Number of payload bits per coordinate (<= 64 by construction).
  int PayloadBits() const { return payload_bits_; }
  /// Packs a symbol into payload bits (chunk little-endian first, then
  /// neighbor hashes).
  uint64_t PackPayload(const Symbol& s) const;
  /// Inverse of PackPayload.
  Symbol UnpackPayload(uint64_t bits) const;

  /// \brief Dec: recovers all codewords consistent with >= (1 - alpha) M of
  /// the lists.
  ///
  /// \param lists  one list per coordinate; entries with duplicate y within
  ///   a list are dropped (keeping the first) to enforce uniqueness.
  /// \param rng    drives the spectral clustering.
  /// \returns recovered domain items (deduplicated, verified).
  std::vector<DomainItem> Decode(const std::vector<std::vector<ListEntry>>& lists,
                                 Rng& rng) const;

  const UrlCodeParams& params() const { return params_; }
  /// RS chunk symbols per coordinate.
  int chunk_symbols() const { return chunk_symbols_; }
  const Expander& expander() const { return *expander_; }

 private:
  UrlCode(const UrlCodeParams& params, int chunk_symbols, int message_bytes,
          ReedSolomon rs, Expander expander, HashFamily hashes);

  UrlCodeParams params_;
  int chunk_symbols_;
  int message_bytes_;
  int payload_bits_;
  int hash_bits_;
  std::shared_ptr<const ReedSolomon> rs_;
  std::shared_ptr<const Expander> expander_;
  std::shared_ptr<const HashFamily> hashes_;  ///< M pairwise functions X -> [Y].
};

}  // namespace ldphh

#endif  // LDPHH_CODES_URL_CODE_H_
