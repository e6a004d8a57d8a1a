#include "src/protocols/run_batch.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/protocols/registry.h"

namespace ldphh {

StatusOr<HeavyHitterResult> RunBatch(const ProtocolConfig& config,
                                     const std::vector<DomainItem>& database,
                                     uint64_t seed) {
  const uint64_t n = database.size();
  if (n < 16) {
    return Status::InvalidArgument(config.protocol() +
                                   ": RunBatch needs at least 16 users");
  }
  // The resolved config names the keys the protocol's grammar has. Seed and
  // n_hint go onto the caller's config (not the resolved one), so every
  // auto-derived field re-derives at the true n.
  auto probe_or = CreateAggregator(config);
  LDPHH_RETURN_IF_ERROR(probe_or.status());
  ProtocolConfig sized = config;
  if (probe_or.value()->config().Has("seed")) sized.SetUint("seed", seed);
  if (probe_or.value()->config().Has("n_hint")) sized.SetUint("n_hint", n);
  auto agg_or = CreateAggregator(sized);
  LDPHH_RETURN_IF_ERROR(agg_or.status());
  const std::unique_ptr<Aggregator> agg = std::move(agg_or).value();

  HeavyHitterResult result;
  ProtocolMetrics& m = result.metrics;
  m.num_users = n;

  // Users' private coins: a stream of the run seed independent of the
  // public randomness the factory draws from it.
  Rng coins = Rng(seed).Fork(/*stream_id=*/1);
  std::vector<WireReport> reports;
  reports.reserve(static_cast<size_t>(n));
  const Timer user_timer;
  for (uint64_t i = 0; i < n; ++i) {
    auto report_or = agg->Encode(i, database[static_cast<size_t>(i)], coins);
    LDPHH_RETURN_IF_ERROR(report_or.status());
    reports.push_back(report_or.value());
  }
  m.user_seconds_total = user_timer.Seconds();
  for (const WireReport& r : reports) {
    const uint64_t bits = static_cast<uint64_t>(r.report.num_bits);
    m.comm_bits_total += bits;
    m.comm_bits_max_user = std::max(m.comm_bits_max_user, bits);
  }

  Timer server_timer;
  for (const WireReport& r : reports) {
    LDPHH_RETURN_IF_ERROR(agg->Aggregate(r));
  }
  m.server_seconds = server_timer.Seconds();
  // Measured between aggregation and decode (a finalized aggregator no
  // longer serializes), and kept off the server clock.
  std::string state;
  LDPHH_RETURN_IF_ERROR(agg->SerializeState(&state));
  m.server_memory_bytes = state.size();
  server_timer.Reset();
  auto entries_or = agg->EstimateTopK(SIZE_MAX);
  LDPHH_RETURN_IF_ERROR(entries_or.status());
  result.entries = std::move(entries_or).value();
  m.server_seconds += server_timer.Seconds();
  m.public_random_bits_per_user = agg->PublicRandomBitsPerUser();
  return result;
}

}  // namespace ldphh
