// Experiment T1 — Table 1 of the paper: server time, user time, server
// memory, communication/user, public randomness/user, and worst-case error
// for PrivateExpanderSketch vs Bitstogram [3] vs Bassily-Smith [4], each
// measured on the served registry Aggregator by RunBatch.
//
// The absolute numbers are simulator-scale; the *shape* matches Table 1:
// PES and Bitstogram are O~(n) server / O~(1) user / O~(sqrt n) memory,
// Bassily-Smith pays a domain-scan (n * |X|, i.e. n^2.5 at |X| = n^1.5)
// on the server and materializes Theta(|X|) public randomness per user.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "src/core/ldphh.h"

namespace {

using namespace ldphh;

constexpr int kDomainBits = 12;
constexpr double kEps = 4.0;
constexpr double kBeta = 1e-3;

Workload MakeDb(uint64_t n) {
  return MakePlantedWorkload(n, kDomainBits, {0.45, 0.36}, 1234 + n);
}

void ReportRow(benchmark::State& state, const HeavyHitterResult& res,
               const Workload& w) {
  const auto eval = EvaluateHeavyHitters(w.database, res, w.heavy[1].second);
  state.counters["server_s"] = res.metrics.server_seconds;
  state.counters["user_us_avg"] = res.metrics.UserSecondsAvg() * 1e6;
  state.counters["comm_bits"] = res.metrics.CommBitsAvg();
  state.counters["mem_MB"] =
      static_cast<double>(res.metrics.server_memory_bytes) / 1e6;
  state.counters["pubrand_bits"] =
      static_cast<double>(res.metrics.public_random_bits_per_user);
  state.counters["max_err"] = eval.max_estimate_error;
  state.counters["recall"] =
      eval.true_hitters_total
          ? static_cast<double>(eval.true_hitters_found) /
                static_cast<double>(eval.true_hitters_total)
          : 1.0;
}

// Every row runs the protocol's registry Aggregator through RunBatch.
ProtocolConfig Config(const char* protocol) {
  ProtocolConfig c(protocol);
  c.SetUint("domain_bits", kDomainBits)
      .SetDouble("eps", kEps)
      .SetDouble("beta", kBeta);
  return c;
}

ProtocolConfig PesConfig() {
  ProtocolConfig c = Config("private_expander_sketch");
  c.SetUint("num_coords", 8).SetUint("hash_range", 16).SetUint(
      "expander_degree", 4);
  return c;
}

void RunRow(benchmark::State& state, const ProtocolConfig& config) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const Workload w = MakeDb(n);
  HeavyHitterResult res;
  for (auto _ : state) {
    res = RunBatch(config, w.database, 7).value();
  }
  ReportRow(state, res, w);
}

void BM_Table1_PrivateExpanderSketch(benchmark::State& state) {
  RunRow(state, PesConfig());
}
BENCHMARK(BM_Table1_PrivateExpanderSketch)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table1_Bitstogram(benchmark::State& state) {
  RunRow(state, Config("bitstogram"));
}
BENCHMARK(BM_Table1_Bitstogram)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table1_TreeHist(benchmark::State& state) {
  RunRow(state, Config("treehist"));
}
BENCHMARK(BM_Table1_TreeHist)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Table1_SuccinctHist(benchmark::State& state) {
  RunRow(state, Config("succinct_hist"));
}
// The domain scan is Theta(n 2^D): keep n modest (the point IS the blowup).
BENCHMARK(BM_Table1_SuccinctHist)
    ->Arg(1 << 12)
    ->Arg(1 << 14)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Prints the side-by-side Table 1 reproduction once.
void BM_Table1_Print(benchmark::State& state) {
  for (auto _ : state) {
  }
  const uint64_t n = 1 << 16;
  const Workload w = MakeDb(n);

  const auto r1 = RunBatch(PesConfig(), w.database, 7).value();
  const auto r2 = RunBatch(Config("bitstogram"), w.database, 7).value();
  const auto r3 = RunBatch(Config("succinct_hist"), w.database, 7).value();

  const auto e1 = EvaluateHeavyHitters(w.database, r1, w.heavy[1].second);
  const auto e2 = EvaluateHeavyHitters(w.database, r2, w.heavy[1].second);
  const auto e3 = EvaluateHeavyHitters(w.database, r3, w.heavy[1].second);

  std::printf("\n=== Table 1 reproduction (n=%llu, |X|=2^%d, eps=%.1f) ===\n",
              static_cast<unsigned long long>(n), kDomainBits, kEps);
  std::printf("%-22s %15s %15s %15s\n", "metric", "this work (PES)",
              "Bassily+ [3]", "BassilySmith[4]");
  auto row = [](const char* name, double a, double b, double c) {
    std::printf("%-22s %15.3f %15.3f %15.3f\n", name, a, b, c);
  };
  row("server time (s)", r1.metrics.server_seconds, r2.metrics.server_seconds,
      r3.metrics.server_seconds);
  row("user time (us)", r1.metrics.UserSecondsAvg() * 1e6,
      r2.metrics.UserSecondsAvg() * 1e6, r3.metrics.UserSecondsAvg() * 1e6);
  // Server memory is the serialized aggregation state (SerializeState).
  row("server memory (KB)", r1.metrics.server_memory_bytes / 1e3,
      r2.metrics.server_memory_bytes / 1e3,
      r3.metrics.server_memory_bytes / 1e3);
  row("comm/user (bits)", r1.metrics.CommBitsAvg(), r2.metrics.CommBitsAvg(),
      r3.metrics.CommBitsAvg());
  row("pub.rand/user (bits)",
      static_cast<double>(r1.metrics.public_random_bits_per_user),
      static_cast<double>(r2.metrics.public_random_bits_per_user),
      static_cast<double>(r3.metrics.public_random_bits_per_user));
  row("worst-case error", e1.max_estimate_error, e2.max_estimate_error,
      e3.max_estimate_error);
  row("recall@Delta",
      e1.true_hitters_total
          ? double(e1.true_hitters_found) / e1.true_hitters_total
          : 1,
      e2.true_hitters_total
          ? double(e2.true_hitters_found) / e2.true_hitters_total
          : 1,
      e3.true_hitters_total
          ? double(e3.true_hitters_found) / e3.true_hitters_total
          : 1);
  std::printf(
      "theory:  PES/[3]: server O~(n), user O~(1), mem O~(sqrt n), comm O(1)\n"
      "         [4]: server O~(n^2.5), user O~(n^1.5), pub.rand O~(n^1.5)\n"
      "         error: PES sqrt(n log(|X|/b)); [3] extra sqrt(log(1/b));\n"
      "         [4] extra log^1.5(1/b)\n\n");
}
BENCHMARK(BM_Table1_Print)->Iterations(1);

}  // namespace
