/// \file ldphh.h
/// \brief Umbrella header: the public API of the ldphh library.
///
/// ldphh reproduces "Heavy Hitters and the Structure of Local Privacy"
/// (Bun, Nelson, Stemmer — PODS 2018). The primary entry points:
///
///  - `CreateAggregator` (src/protocols/registry.h): every protocol by name,
///    including the paper's optimal-error `private_expander_sketch` and the
///    Table 1 baselines `bitstogram`, `treehist`, `succinct_hist`;
///    `RunBatch` (src/protocols/run_batch.h) runs one over a database.
///  - `FreqScan`: the small-domain reference protocol.
///  - `Hashtogram`, `HadamardResponseFO`, `DirectEncodingFO`,
///    `UnaryEncodingFO`, `OlhFO`: frequency oracles (Definition 3.2).
///  - Section 4-7 structural results: `AdvancedGroupositionEpsilon`,
///    `MaxInformationBound`, `ShellComposedRR`, `GenProt`,
///    `RunLowerBoundExperiment`.
///
/// docs/protocols.md documents the registry and the implementation
/// substitutions; docs/server.md and docs/storage.md the serving stack.

#ifndef LDPHH_CORE_LDPHH_H_
#define LDPHH_CORE_LDPHH_H_

#include "src/apps/quantiles.h"             // IWYU pragma: export
#include "src/codes/reed_solomon.h"         // IWYU pragma: export
#include "src/codes/url_code.h"             // IWYU pragma: export
#include "src/common/bit_util.h"            // IWYU pragma: export
#include "src/common/math_util.h"           // IWYU pragma: export
#include "src/common/random.h"              // IWYU pragma: export
#include "src/common/status.h"              // IWYU pragma: export
#include "src/freq/count_mean_sketch.h"     // IWYU pragma: export
#include "src/freq/direct_encoding.h"       // IWYU pragma: export
#include "src/freq/hadamard_response.h"     // IWYU pragma: export
#include "src/freq/hashtogram.h"            // IWYU pragma: export
#include "src/freq/olh.h"                   // IWYU pragma: export
#include "src/freq/unary_encoding.h"        // IWYU pragma: export
#include "src/graphs/expander.h"            // IWYU pragma: export
#include "src/hashing/kwise_hash.h"         // IWYU pragma: export
#include "src/ldp/anticoncentration.h"      // IWYU pragma: export
#include "src/ldp/composition.h"            // IWYU pragma: export
#include "src/ldp/genprot.h"                // IWYU pragma: export
#include "src/ldp/grouposition.h"           // IWYU pragma: export
#include "src/ldp/privacy_loss.h"           // IWYU pragma: export
#include "src/ldp/randomizer.h"             // IWYU pragma: export
#include "src/protocols/aggregator.h"       // IWYU pragma: export
#include "src/protocols/freq_scan.h"        // IWYU pragma: export
#include "src/protocols/heavy_hitters.h"    // IWYU pragma: export
#include "src/protocols/protocol_config.h"  // IWYU pragma: export
#include "src/protocols/registry.h"         // IWYU pragma: export
#include "src/protocols/run_batch.h"        // IWYU pragma: export
#include "src/server/epoch_manager.h"       // IWYU pragma: export
#include "src/server/report_codec.h"        // IWYU pragma: export
#include "src/server/sharded_aggregator.h"  // IWYU pragma: export
#include "src/store/checkpoint_store.h"     // IWYU pragma: export
#include "src/workload/workload.h"          // IWYU pragma: export

namespace ldphh {

/// Library version.
inline constexpr const char* kVersion = "1.0.0";

}  // namespace ldphh

#endif  // LDPHH_CORE_LDPHH_H_
