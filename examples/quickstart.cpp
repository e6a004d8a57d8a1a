// Quickstart: find heavy hitters over a million simulated users with local
// differential privacy, using the paper's PrivateExpanderSketch protocol.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart

#include <cstdio>

#include "src/core/ldphh.h"

int main() {
  using namespace ldphh;

  // 1. A distributed database: one 64-bit item per user. Three items are
  //    popular; the rest of the population holds unique values.
  const uint64_t n = 1 << 20;
  const Workload workload =
      MakePlantedWorkload(n, /*domain_bits=*/64, {0.30, 0.20, 0.15},
                          /*seed=*/2024);

  // 2. Configure the protocol. eps is the per-user privacy budget; beta
  //    the failure probability. Everything else has paper defaults.
  const double eps = 4.0;
  ProtocolConfig config("private_expander_sketch");
  config.SetUint("domain_bits", 64).SetDouble("eps", eps).SetDouble("beta",
                                                                    1e-3);
  auto protocol_or = CreateAggregator(config);
  if (!protocol_or.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 protocol_or.status().ToString().c_str());
    return 1;
  }
  const double delta = protocol_or.value()->DetectionThreshold(n).value();

  std::printf("PrivateExpanderSketch: eps=%.1f, |X|=2^64, n=%llu\n", eps,
              static_cast<unsigned long long>(n));
  std::printf("detection threshold Delta ~ %.0f users (%.1f%% of n)\n\n",
              delta, 100.0 * delta / n);

  // 3. Run: every user locally randomizes its item (eps-LDP) and sends one
  //    short message; the server decodes the heavy hitters.
  auto result_or = RunBatch(config, workload.database, /*seed=*/42);
  if (!result_or.ok()) {
    std::fprintf(stderr, "run error: %s\n",
                 result_or.status().ToString().c_str());
    return 1;
  }
  const HeavyHitterResult result = std::move(result_or).value();

  // 4. Report.
  std::printf("%-20s %12s %12s\n", "item", "estimate", "true count");
  for (const auto& entry : result.entries) {
    uint64_t truth = 0;
    for (const auto& [item, count] : workload.heavy) {
      if (item == entry.item) truth = count;
    }
    std::printf("%-20s %12.0f %12llu\n",
                entry.item.ToHex().substr(48).c_str(), entry.estimate,
                static_cast<unsigned long long>(truth));
  }
  std::printf("\nresources: %s\n", result.metrics.ToString().c_str());
  return 0;
}
