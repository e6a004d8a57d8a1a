// Experiment F4 — error scaling in the domain size: the sqrt(log |X|)
// factor of the Theorem 3.13 detection threshold, realized through the
// coordinate split M * Lz = Theta(log |X|). Printed column
// Delta / sqrt(n log|X|) should be roughly flat across domain widths.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "src/core/ldphh.h"

namespace {

using namespace ldphh;

constexpr uint64_t kN = 1 << 20;
constexpr double kEps = 4.0;

ProtocolConfig ConfigFor(int domain_bits) {
  ProtocolConfig c("private_expander_sketch");
  c.SetUint("domain_bits", static_cast<uint64_t>(domain_bits))
      .SetDouble("eps", kEps)
      .SetUint("hash_range", domain_bits <= 32 ? 16 : 32)
      .SetUint("expander_degree", 4);
  return c;  // num_coords auto-scales with the width.
}

std::unique_ptr<Aggregator> Pes(int domain_bits) {
  return CreateAggregator(ConfigFor(domain_bits)).value();
}

double Delta(const Aggregator& pes) {
  return pes.DetectionThreshold(kN).value();
}

// The resolved number of coordinates M.
int NumCoords(const Aggregator& pes) {
  return static_cast<int>(pes.config().GetUintOr("num_coords", 0));
}

void BM_PesThresholdVsDomain(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto pes = Pes(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pes->DetectionThreshold(kN));
  }
  const double thr = Delta(*pes);
  state.counters["Delta"] = thr;
  state.counters["Delta/sqrt(n*logX)"] =
      thr / std::sqrt(static_cast<double>(kN) * bits);
  state.counters["M"] = NumCoords(*pes);
}
BENCHMARK(BM_PesThresholdVsDomain)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

// End-to-end recovery at ~1.1x the width-dependent threshold, verifying
// the threshold formula is honest at every width.
void BM_PesRecoveryVsDomain(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const double frac =
      std::min(0.4, 1.15 * Delta(*Pes(bits)) / static_cast<double>(kN));
  const Workload w = MakePlantedWorkload(kN, bits, {frac}, 900 + bits);
  int found = 0;
  for (auto _ : state) {
    const auto res = RunBatch(ConfigFor(bits), w.database, 3).value();
    for (const auto& e : res.entries) found += (e.item == w.heavy[0].first);
  }
  state.counters["planted_frac"] = frac;
  state.counters["found"] = found;
}
BENCHMARK(BM_PesRecoveryVsDomain)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_F4_Print(benchmark::State& state) {
  for (auto _ : state) {
  }
  std::printf("\n=== F4: detection threshold vs |X| (n=%llu, eps=%.1f) ===\n",
              static_cast<unsigned long long>(kN), kEps);
  std::printf("%-8s %4s %12s %20s\n", "log|X|", "M", "Delta",
              "Delta/sqrt(n log|X|)");
  for (int bits : {16, 32, 64, 128, 256}) {
    const auto pes = Pes(bits);
    const double thr = Delta(*pes);
    std::printf("%-8d %4d %12.0f %20.2f\n", bits, NumCoords(*pes), thr,
                thr / std::sqrt(static_cast<double>(kN) * bits));
  }
  std::printf("shape: last column ~flat => Delta = Theta(sqrt(n log|X|))\n"
              "(Theorem 3.13; the step at the M auto-switch is the\n"
              "constant-factor cost of the chunk re-size).\n\n");
}
BENCHMARK(BM_F4_Print)->Iterations(1);

}  // namespace
