/// \file bitstogram.h
/// \brief The Bassily-Nissim-Stemmer-Thakurta 2017 heavy-hitters baseline
/// ("Bitstogram", Theorem 3.3 / Section 3.1.1 of the paper).
///
/// One public hash h_c : X -> [Yb] per cohort; users decode the raw bits of
/// the item per hash value by majority (no error-correcting code, no
/// expander). A single hash fails a heavy hitter when another input
/// collides, so the construction amplifies with rho = O(log(1/beta))
/// independent cohorts — which costs the extra sqrt(log(1/beta)) factor in
/// the error that PrivateExpanderSketch removes. This implementation shares
/// the frequency-oracle machinery with PES so the F1 comparison isolates
/// exactly that reduction difference.
///
/// The protocol itself is the `bitstogram` registry Aggregator
/// (src/protocols/hh_serving.cc); this header holds its decode.

#ifndef LDPHH_PROTOCOLS_BITSTOGRAM_H_
#define LDPHH_PROTOCOLS_BITSTOGRAM_H_

#include <cstdint>
#include <vector>

#include "src/common/bit_util.h"
#include "src/freq/hadamard_response.h"
#include "src/hashing/kwise_hash.h"

namespace ldphh {

/// Candidate reconstruction (the server decode step): per cohort,
/// per hash value, majority bit at every position; keep hash values whose
/// support count clears \p tau and whose reconstructed item hashes back to
/// its own cell. \p cell_fo must be finalized, laid out
/// [cohort * domain_bits + bit_position]. Candidates return in recovery
/// order, deduplicated.
std::vector<DomainItem> BitstogramRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo,
    const HashFamily& cohort_hash, int cohorts, int domain_bits,
    int hash_range, int list_cap_per_cohort, double tau);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_BITSTOGRAM_H_
