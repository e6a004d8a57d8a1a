/// \file succinct_hist.h
/// \brief The Bassily-Smith 2015 baseline (succinct histograms, Table 1's
/// third column).
///
/// Every user reports a single randomized-response bit of a public random
/// +-1 projection of its item (a personal 4-wise sign phi_i(x)); the server
/// estimates f^(x) = c_eps sum_i b~_i phi_i(x), which costs Theta(n) per
/// query, and finds heavy hitters by scanning the whole domain — time
/// Theta(n |X|). With the paper's |X| = poly(n) setting this reproduces the
/// O~(n^2.5) server time of Table 1. The per-user cost here is O~(1)
/// because we derive the projection from a seed; the O~(n^1.5) user time of
/// Table 1 is the cost of materializing the public randomness without
/// random access (footnote 2), which we account for but do not burn cycles
/// on — see "Implementation substitutions" in docs/protocols.md.
///
/// The protocol itself is the `succinct_hist` registry Aggregator
/// (src/protocols/hh_serving.cc); this header holds its public sign and
/// its decode.

#ifndef LDPHH_PROTOCOLS_SUCCINCT_HIST_H_
#define LDPHH_PROTOCOLS_SUCCINCT_HIST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/random.h"
#include "src/protocols/heavy_hitters.h"

namespace ldphh {

/// The personal +-1 projection phi_i(x), derived from (seed, user, item).
/// Public randomness: both the client encode and the server scan evaluate
/// it.
inline int SuccinctHistSign(uint64_t sign_seed, uint64_t user,
                            const DomainItem& x) {
  const uint64_t h = Mix64(sign_seed ^ Mix64(user + 1) ^ x.Fingerprint());
  return (h & 1) ? 1 : -1;
}

/// The server decode: full-domain scan of f^(x) = c_eps sum_i b~_i phi_i(x)
/// over the (user, report-bit) pairs, keeping estimates >= tau, capped at
/// \p list_cap by estimate. Entries return sorted by estimate descending
/// (ties: value ascending).
std::vector<HeavyHitterEntry> SuccinctHistScan(
    uint64_t sign_seed, const std::vector<std::pair<uint64_t, int8_t>>& reports,
    int domain_bits, double epsilon, double tau, int list_cap);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_SUCCINCT_HIST_H_
