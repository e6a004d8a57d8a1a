/// \file heavy_hitters.h
/// \brief The heavy-hitters output (Definition 3.1) and the evaluation
/// helpers that check a protocol's output against it. Protocols run
/// through `RunBatch` (run_batch.h) or the serving stack.

#ifndef LDPHH_PROTOCOLS_HEAVY_HITTERS_H_
#define LDPHH_PROTOCOLS_HEAVY_HITTERS_H_

#include <utility>
#include <vector>

#include "src/common/bit_util.h"
#include "src/protocols/metrics.h"

namespace ldphh {

/// One output entry: an identified element and its frequency estimate.
struct HeavyHitterEntry {
  DomainItem item;
  double estimate = 0.0;
};

/// Full protocol output.
struct HeavyHitterResult {
  std::vector<HeavyHitterEntry> entries;
  ProtocolMetrics metrics;
};

/// Evaluation of a result against the true frequencies (Definition 3.1).
struct HeavyHitterEval {
  double max_estimate_error = 0.0;   ///< max over entries |estimate - f_S|.
  uint64_t max_missed_frequency = 0; ///< largest f_S(x) for x not in the list.
  size_t list_size = 0;
  size_t true_hitters_found = 0;     ///< Elements above the threshold found.
  size_t true_hitters_total = 0;
};

/// \brief Scores \p result against \p database.
///
/// \param threshold  elements with frequency >= threshold count as the
///                   "must find" set for the recall statistics.
HeavyHitterEval EvaluateHeavyHitters(const std::vector<DomainItem>& database,
                                     const HeavyHitterResult& result,
                                     uint64_t threshold);

/// Exact frequency map of the database (test/eval helper).
std::vector<std::pair<DomainItem, uint64_t>> ExactFrequencies(
    const std::vector<DomainItem>& database);

}  // namespace ldphh

#endif  // LDPHH_PROTOCOLS_HEAVY_HITTERS_H_
