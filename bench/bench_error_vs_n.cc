// Experiment F2 — error scaling in n: the frequency-oracle estimate error
// and the heavy-hitter detection threshold both scale as sqrt(n)
// (Theorems 3.7 / 3.13). The printed column err/sqrt(n) should be flat.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "src/core/ldphh.h"

namespace {

using namespace ldphh;

constexpr double kEps = 2.0;

// Max frequency-oracle error over the planted heavy items.
double MeasureHashtogramErrorOnce(uint64_t n, uint64_t seed) {
  const Workload w = MakePlantedWorkload(n, 64, {0.3, 0.15, 0.05}, seed);
  HashtogramParams p;
  p.beta = 1e-3;
  Hashtogram ht(n, kEps, p, seed + 1);
  Rng rng(seed + 2);
  for (uint64_t i = 0; i < n; ++i) {
    ht.Aggregate(i, ht.Encode(i, w.database[static_cast<size_t>(i)], rng));
  }
  ht.Finalize();
  double err = 0;
  for (const auto& [item, count] : w.heavy) {
    err = std::max(err, std::abs(ht.Estimate(item) - static_cast<double>(count)));
  }
  return err;
}

// Median over three seeds: one run's max-error is itself a heavy-tailed
// statistic; the median stabilizes the printed scaling curve.
double MeasureHashtogramError(uint64_t n, uint64_t seed) {
  return Median({MeasureHashtogramErrorOnce(n, seed),
                 MeasureHashtogramErrorOnce(n, seed + 100),
                 MeasureHashtogramErrorOnce(n, seed + 200)});
}

void BM_HashtogramErrorVsN(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  double err = 0;
  for (auto _ : state) {
    err = MeasureHashtogramError(n, 42);
    benchmark::DoNotOptimize(err);
  }
  state.counters["max_err"] = err;
  state.counters["err/sqrt(n)"] = err / std::sqrt(static_cast<double>(n));
}
BENCHMARK(BM_HashtogramErrorVsN)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// End-to-end PES error at matched relative planted mass.
void BM_PesErrorVsN(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  ProtocolConfig pes("private_expander_sketch");
  pes.SetUint("domain_bits", 16)
      .SetDouble("eps", 4.0)
      .SetUint("num_coords", 8)
      .SetUint("hash_range", 16)
      .SetUint("expander_degree", 4);
  const Workload w = MakePlantedWorkload(n, 16, {0.3, 0.2}, 77 + n);
  double err = 0;
  for (auto _ : state) {
    const auto res = RunBatch(pes, w.database, 9).value();
    const auto eval = EvaluateHeavyHitters(w.database, res, w.heavy[1].second);
    err = eval.max_estimate_error;
  }
  state.counters["max_err"] = err;
  state.counters["err/sqrt(n)"] = err / std::sqrt(static_cast<double>(n));
  state.counters["Delta_theory"] =
      CreateAggregator(pes).value()->DetectionThreshold(n).value();
}
BENCHMARK(BM_PesErrorVsN)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_F2_Print(benchmark::State& state) {
  for (auto _ : state) {
  }
  std::printf("\n=== F2: frequency-oracle error vs n (eps=%.1f) ===\n", kEps);
  std::printf("%-12s %12s %14s\n", "n", "max_err", "err/sqrt(n)");
  for (int ln = 14; ln <= 20; ln += 2) {
    const uint64_t n = uint64_t{1} << ln;
    const double err = MeasureHashtogramError(n, 42);
    std::printf("2^%-10d %12.1f %14.3f\n", ln, err,
                err / std::sqrt(static_cast<double>(n)));
  }
  std::printf("shape: err/sqrt(n) flat => error = Theta(sqrt(n)) "
              "(Theorem 3.7).\n\n");
}
BENCHMARK(BM_F2_Print)->Iterations(1);

}  // namespace
