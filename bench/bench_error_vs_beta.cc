// Experiment F1 — the paper's headline: the PES reduction removes the
// sqrt(log(1/beta)) factor Theorem 3.3 charges the Bitstogram reduction.
//
// Two series over beta = 2^-2 .. 2^-20:
//   (a) detection thresholds: PES's Delta is beta-independent (its
//       coordinate split M*Lz does not grow with beta) while Bitstogram's
//       cohort count rho = log2(1/beta) inflates Delta by sqrt(rho);
//   (b) measured minimum detectable frequency (bisection): Bitstogram's
//       grows with beta while PES's stays flat, and the curves cross near
//       beta = 2^-10 at this configuration (who-wins crossover).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "src/core/ldphh.h"

namespace {

using namespace ldphh;

constexpr int kDomainBits = 64;
constexpr double kEps = 4.0;
constexpr uint64_t kN = 1 << 18;

ProtocolConfig BitsConfig(double beta) {
  ProtocolConfig c("bitstogram");
  c.SetUint("domain_bits", kDomainBits)
      .SetDouble("eps", kEps)
      .SetDouble("beta", beta);
  return c;
}

ProtocolConfig PesConfig(double beta) {
  ProtocolConfig c("private_expander_sketch");
  c.SetUint("domain_bits", kDomainBits)
      .SetDouble("eps", kEps)
      .SetDouble("beta", beta)
      .SetUint("num_coords", 16)
      .SetUint("hash_range", 32)
      .SetUint("expander_degree", 4);
  return c;
}

double Delta(const ProtocolConfig& config) {
  return CreateAggregator(config).value()->DetectionThreshold(kN).value();
}

// Bitstogram's resolved cohort count rho = ceil(log2(1/beta)).
double Cohorts(double beta) {
  return static_cast<double>(CreateAggregator(BitsConfig(beta))
                                 .value()
                                 ->config()
                                 .GetUintOr("cohorts", 0));
}

void BM_DetectionThreshold_PES(benchmark::State& state) {
  const double beta = std::pow(2.0, -static_cast<double>(state.range(0)));
  const auto pes = CreateAggregator(PesConfig(beta)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pes->DetectionThreshold(kN));
  }
  const double thr = pes->DetectionThreshold(kN).value();
  state.counters["Delta"] = thr;
  state.counters["Delta/sqrt(n)"] = thr / std::sqrt(static_cast<double>(kN));
}
BENCHMARK(BM_DetectionThreshold_PES)->DenseRange(2, 20, 3);

void BM_DetectionThreshold_Bitstogram(benchmark::State& state) {
  const double beta = std::pow(2.0, -static_cast<double>(state.range(0)));
  const auto bits = CreateAggregator(BitsConfig(beta)).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bits->DetectionThreshold(kN));
  }
  const double thr = bits->DetectionThreshold(kN).value();
  state.counters["Delta"] = thr;
  state.counters["Delta/sqrt(n)"] = thr / std::sqrt(static_cast<double>(kN));
  state.counters["cohorts"] = Cohorts(beta);
}
BENCHMARK(BM_DetectionThreshold_Bitstogram)->DenseRange(2, 20, 3);

// Empirical minimum detectable frequency at each beta, by bisection on the
// planted fraction (2-of-2 trials must recover the item). This is the
// honest "who wins where" curve: the Bitstogram minimum grows with
// sqrt(log(1/beta)) (its cohort split and threshold), the PES minimum does
// not depend on beta.
double EmpiricalMinFraction(const ProtocolConfig& config, double lo, double hi,
                            int lbeta) {
  for (int step = 0; step < 5; ++step) {
    const double mid = 0.5 * (lo + hi);
    int found = 0;
    for (int t = 0; t < 2; ++t) {
      const Workload w = MakePlantedWorkload(
          kN, kDomainBits, {mid}, 9000 + 131 * lbeta + 17 * step + t);
      const auto res = RunBatch(config, w.database, 500 + t).value();
      for (const auto& e : res.entries) found += (e.item == w.heavy[0].first);
    }
    if (found == 2) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

void BM_EmpiricalThresholdCrossover(benchmark::State& state) {
  const int lbeta = static_cast<int>(state.range(0));
  const double beta = std::pow(2.0, -static_cast<double>(lbeta));
  double pes_min = 0;
  double bits_min = 0;
  for (auto _ : state) {
    pes_min = EmpiricalMinFraction(PesConfig(beta), 0.02, 0.55, lbeta);
    bits_min = EmpiricalMinFraction(BitsConfig(beta), 0.02, 0.55, lbeta);
  }
  state.counters["pes_min_frac"] = pes_min;
  state.counters["bits_min_frac"] = bits_min;
  state.counters["cohorts"] = Cohorts(beta);
}
BENCHMARK(BM_EmpiricalThresholdCrossover)
    ->Arg(2)
    ->Arg(10)
    ->Arg(18)
    ->Arg(26)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_F1_Print(benchmark::State& state) {
  for (auto _ : state) {
  }
  std::printf("\n=== F1: error vs failure probability (n=%llu, eps=%.1f) ===\n",
              static_cast<unsigned long long>(kN), kEps);
  std::printf("%-10s %16s %16s %10s\n", "beta", "PES Delta",
              "Bitstogram Delta", "ratio");
  for (int lb = 2; lb <= 20; lb += 3) {
    const double beta = std::pow(2.0, -lb);
    const double tp = Delta(PesConfig(beta));
    const double tb = Delta(BitsConfig(beta));
    std::printf("2^-%-7d %16.0f %16.0f %10.2f\n", lb, tp, tb, tb / tp);
  }
  std::printf("shape: PES flat in beta (paper: sqrt(n log(|X|/beta)) with\n"
              "log(1/beta) inside the same log); Bitstogram grows as\n"
              "sqrt(log(1/beta)) (Theorem 3.3's extra factor).\n\n");
}
BENCHMARK(BM_F1_Print)->Iterations(1);

}  // namespace
