/// \file run_batch.h
/// \brief One-shot batch execution of any registry protocol: the driver
/// behind the paper's Table 1 and error-scaling experiments.
///
/// `RunBatch` runs the very `Aggregator` the serving stack runs — client
/// `Encode` for every user, server `Aggregate`, then the `EstimateTopK`
/// decode — over an in-memory database, and measures it. There is no
/// second, batch-only copy of a protocol: a number printed by a Table 1
/// bench is a number about the served code.

#ifndef LDPHH_PROTOCOLS_RUN_BATCH_H_
#define LDPHH_PROTOCOLS_RUN_BATCH_H_

#include <cstdint>
#include <vector>

#include "src/common/bit_util.h"
#include "src/common/status.h"
#include "src/protocols/heavy_hitters.h"
#include "src/protocols/protocol_config.h"

namespace ldphh {

/// \brief Runs \p config's protocol over \p database (user i holds
/// database[i]) and returns every listed entry plus Table 1's metrics.
///
/// - The config is re-seeded with \p seed (when its grammar has a `seed`)
///   and sized to the true n (`n_hint = database.size()` when its grammar
///   has an `n_hint`); users' private coins derive from \p seed too, so a
///   run is a pure function of (config, database, seed).
/// - `user_seconds_total` times the Encode loop; `server_seconds` times
///   Aggregate plus `EstimateTopK(SIZE_MAX)`.
/// - `comm_bits_*` sum each report's width; `server_memory_bytes` is the
///   aggregation state's `SerializeState` size; `public_random_bits_per_user`
///   comes from `Aggregator::PublicRandomBitsPerUser`.
///
/// Fails on an invalid config, fewer than 16 users, or an item outside the
/// protocol's domain.
StatusOr<HeavyHitterResult> RunBatch(const ProtocolConfig& config,
                                     const std::vector<DomainItem>& database,
                                     uint64_t seed);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_RUN_BATCH_H_
