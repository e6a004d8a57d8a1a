/// \file private_expander_sketch.h
/// \brief Algorithm PrivateExpanderSketch (Section 3.3) — the paper's main
/// contribution: an eps-LDP heavy-hitters protocol with worst-case error
/// O((1/eps) sqrt(n log(|X|/beta))), optimal in all parameters.
///
/// Pipeline (each user sends one combined message, eps/2 + eps/2):
///   1. Public randomness assigns user i to a coordinate group m in [M] and
///      a payload position j (the argmax over the exponential payload
///      alphabet [Z] is realized bitwise; see "Implementation
///      substitutions" in docs/protocols.md), and publishes
///      the Theorem 3.6 code (expander + hashes h_1..h_M) and the bucket
///      hash g : X -> [B].
///   2. User i computes Enc(x_i) = (h_m(x_i), E~nc(x_i)_m), extracts payload
///      bit j, and reports the cell (g(x_i), h_m(x_i), bit) through the
///      small-domain Hashtogram (Theorem 3.8) of its (m, j) group — plus a
///      global Hashtogram (Theorem 3.7) report for step 5.
///   3. The server scans all (m, b, y) cells, keeps hash values whose
///      estimated support count stands out (step 3b threshold), recovers
///      payloads by per-position majority, and caps each list at ell.
///   4. Per bucket b, the Theorem 3.6 decoder (layered graph -> spectral
///      clusters -> RS errors-and-erasures) returns the candidate set H^b.
///   5. The global Hashtogram estimates f_S(x) for every candidate;
///      the output is Est = {(x, f^(x))}.
///
/// The protocol itself is the `private_expander_sketch` registry Aggregator
/// (src/protocols/hh_serving.cc); this header holds steps 3-4 of its decode.

#ifndef LDPHH_PROTOCOLS_PRIVATE_EXPANDER_SKETCH_H_
#define LDPHH_PROTOCOLS_PRIVATE_EXPANDER_SKETCH_H_

#include <vector>

#include "src/codes/url_code.h"
#include "src/common/bit_util.h"
#include "src/common/random.h"
#include "src/freq/hadamard_response.h"
#include "src/hashing/kwise_hash.h"

namespace ldphh {

/// Steps 3-4 of the server decode (candidate-list reconstruction + the
/// Theorem 3.6 per-bucket decoder + bucket-hash verification).
/// \p cell_fo must be finalized, laid out [m * payload_bits + j] over the
/// cell domain [num_buckets] x [hash_range] x {0,1}. Returns verified
/// candidates in recovery order, deduplicated.
std::vector<DomainItem> PesRecoverCandidates(
    const std::vector<HadamardResponseFO>& cell_fo, const UrlCode& code,
    const KWiseHash& bucket_hash, int num_coords, int num_buckets,
    int hash_range, int payload_bits, int list_cap, double tau,
    Rng& decode_rng);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_PRIVATE_EXPANDER_SKETCH_H_
