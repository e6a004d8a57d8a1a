// Tests for src/protocols: evaluation helpers, metrics, the RunBatch
// driver, and the heavy-hitter Aggregators' parameter handling plus fast
// end-to-end runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "src/codes/url_code.h"
#include "src/protocols/freq_scan.h"
#include "src/protocols/heavy_hitters.h"
#include "src/protocols/registry.h"
#include "src/protocols/run_batch.h"
#include "src/workload/workload.h"

namespace ldphh {
namespace {

bool ResultContains(const HeavyHitterResult& r, const DomainItem& x) {
  return std::any_of(r.entries.begin(), r.entries.end(),
                     [&](const HeavyHitterEntry& e) { return e.item == x; });
}

// Fast PES config used across these tests: 16-bit domain, eps = 4.
ProtocolConfig FastPes() {
  ProtocolConfig c("private_expander_sketch");
  c.SetUint("domain_bits", 16)
      .SetDouble("eps", 4.0)
      .SetDouble("beta", 1e-3)
      .SetUint("num_coords", 8)
      .SetUint("hash_range", 16)
      .SetUint("expander_degree", 4);
  return c;
}

ProtocolConfig Hh(const std::string& protocol, int domain_bits, double eps,
                  double beta) {
  ProtocolConfig c(protocol);
  c.SetUint("domain_bits", static_cast<uint64_t>(domain_bits))
      .SetDouble("eps", eps)
      .SetDouble("beta", beta);
  return c;
}

std::unique_ptr<Aggregator> MustCreate(const ProtocolConfig& config) {
  auto agg_or = CreateAggregator(config);
  EXPECT_TRUE(agg_or.ok()) << agg_or.status().ToString();
  return std::move(agg_or).value();
}

HeavyHitterResult MustRun(const ProtocolConfig& config,
                          const std::vector<DomainItem>& database,
                          uint64_t seed) {
  auto res_or = RunBatch(config, database, seed);
  EXPECT_TRUE(res_or.ok()) << res_or.status().ToString();
  return std::move(res_or).value();
}

double Threshold(const ProtocolConfig& config, uint64_t n) {
  return MustCreate(config)->DetectionThreshold(n).value();
}

// The config RunBatch actually runs: seeded and sized to n.
ProtocolConfig Sized(ProtocolConfig config, uint64_t seed, uint64_t n) {
  config.SetUint("seed", seed).SetUint("n_hint", n);
  return config;
}

size_t StateBytes(const ProtocolConfig& config) {
  std::string state;
  EXPECT_TRUE(MustCreate(config)->SerializeState(&state).ok());
  return state.size();
}

// ------------------------------------------------------------ evaluation --

TEST(ExactFrequencies, CountsAndOrders) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3, 0.1}, 1);
  const auto freqs = ExactFrequencies(w.database);
  EXPECT_EQ(freqs[0].first, w.heavy[0].first);
  EXPECT_EQ(freqs[0].second, 300u);
  EXPECT_EQ(freqs[1].second, 100u);
  for (size_t i = 1; i < freqs.size(); ++i) {
    EXPECT_GE(freqs[i - 1].second, freqs[i].second);
  }
}

TEST(EvaluateHeavyHitters, PerfectResult) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3, 0.1}, 2);
  HeavyHitterResult r;
  r.entries.push_back({w.heavy[0].first, 300.0});
  r.entries.push_back({w.heavy[1].first, 100.0});
  const auto eval = EvaluateHeavyHitters(w.database, r, 100);
  EXPECT_EQ(eval.max_estimate_error, 0.0);
  EXPECT_EQ(eval.true_hitters_total, 2u);
  EXPECT_EQ(eval.true_hitters_found, 2u);
  EXPECT_LT(eval.max_missed_frequency, 100u);
  EXPECT_EQ(eval.list_size, 2u);
}

TEST(EvaluateHeavyHitters, MissedHitterReported) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3, 0.1}, 3);
  HeavyHitterResult r;
  r.entries.push_back({w.heavy[0].first, 290.0});
  const auto eval = EvaluateHeavyHitters(w.database, r, 100);
  EXPECT_EQ(eval.true_hitters_found, 1u);
  EXPECT_EQ(eval.true_hitters_total, 2u);
  EXPECT_EQ(eval.max_missed_frequency, 100u);
  EXPECT_NEAR(eval.max_estimate_error, 10.0, 1e-9);
}

TEST(EvaluateHeavyHitters, PhantomEntryScoredAgainstZero) {
  Workload w = MakePlantedWorkload(1000, 64, {0.3}, 4);
  HeavyHitterResult r;
  DomainItem phantom(0xdeadbeef);
  r.entries.push_back({phantom, 50.0});
  const auto eval = EvaluateHeavyHitters(w.database, r, 100);
  EXPECT_NEAR(eval.max_estimate_error, 50.0, 1e-9);
}

TEST(Metrics, ToStringContainsFields) {
  ProtocolMetrics m;
  m.num_users = 10;
  m.comm_bits_total = 100;
  const auto s = m.ToString();
  EXPECT_NE(s.find("n=10"), std::string::npos);
  EXPECT_NE(s.find("comm_avg=10.0"), std::string::npos);
}

// -------------------------------------------------------------- RunBatch --

TEST(RunBatch, SameSeedGivesByteIdenticalEntries) {
  const Workload w = MakePlantedWorkload(1 << 17, 10, {0.3, 0.2}, 45);
  ProtocolConfig pes = FastPes();
  pes.SetUint("domain_bits", 10);
  for (const ProtocolConfig& config :
       {pes, Hh("bitstogram", 10, 4.0, 1e-2), Hh("treehist", 10, 4.0, 1e-2),
        Hh("succinct_hist", 10, 4.0, 1e-3)}) {
    const auto a = MustRun(config, w.database, 17);
    const auto b = MustRun(config, w.database, 17);
    ASSERT_FALSE(a.entries.empty()) << config.ToText();
    ASSERT_EQ(a.entries.size(), b.entries.size()) << config.ToText();
    for (size_t i = 0; i < a.entries.size(); ++i) {
      EXPECT_EQ(a.entries[i].item, b.entries[i].item) << config.ToText();
      EXPECT_EQ(std::memcmp(&a.entries[i].estimate, &b.entries[i].estimate,
                            sizeof(double)),
                0)
          << config.ToText();
    }
  }
}

TEST(RunBatch, CommBitsAreNTimesThePackedReportWidth) {
  const uint64_t n = 1 << 14;
  const Workload w = MakePlantedWorkload(n, 16, {0.3}, 44);
  for (const ProtocolConfig& config :
       {FastPes(), Hh("bitstogram", 16, 4.0, 1e-2),
        Hh("treehist", 16, 4.0, 1e-2)}) {
    Rng rng(1);
    const int width = MustCreate(Sized(config, 13, n))
                          ->Encode(0, w.database[0], rng)
                          .value()
                          .report.num_bits;
    const auto res = MustRun(config, w.database, 13);
    EXPECT_EQ(res.metrics.comm_bits_total, n * static_cast<uint64_t>(width))
        << config.ToText();
    EXPECT_EQ(res.metrics.comm_bits_max_user, static_cast<uint64_t>(width));
    EXPECT_LE(width, 64);
  }
}

TEST(RunBatch, ServerMemoryIsTheSerializedStateSize) {
  // A PES state is fixed-width tallies, so its size is a function of the
  // config alone: a fresh instance of the run's config serializes to it.
  const uint64_t n = 1 << 17;
  const Workload w = MakePlantedWorkload(n, 16, {0.3}, 44);
  const auto res = MustRun(FastPes(), w.database, 13);
  EXPECT_EQ(res.metrics.server_memory_bytes,
            StateBytes(Sized(FastPes(), 13, n)));
  EXPECT_EQ(res.metrics.public_random_bits_per_user,
            MustCreate(FastPes())->PublicRandomBitsPerUser());
}

TEST(RunBatch, SizesNHintOnlyWhereTheGrammarHasIt) {
  // PES: the run is sized to the true n, not the default n_hint (its
  // bucket count and global oracle table both grow with n_hint).
  const uint64_t n = 1 << 18;
  const Workload w = MakePlantedWorkload(n, 12, {0.4}, 46);
  const auto pes = MustRun(FastPes(), w.database, 3);
  EXPECT_EQ(pes.metrics.server_memory_bytes, StateBytes(Sized(FastPes(), 3, n)));
  EXPECT_NE(pes.metrics.server_memory_bytes, StateBytes(FastPes()));
  // succinct_hist's grammar has no n_hint: setting one would be rejected,
  // so the run succeeding shows the config went through untouched.
  const ProtocolConfig sh = Hh("succinct_hist", 10, 2.0, 1e-3);
  EXPECT_FALSE(MustCreate(sh)->config().Has("n_hint"));
  const Workload small = MakePlantedWorkload(1 << 12, 10, {0.4}, 48);
  EXPECT_TRUE(RunBatch(sh, small.database, 3).ok());
}

TEST(RunBatch, RejectsInvalidConfigsAndTinyDatabases) {
  const Workload w = MakePlantedWorkload(1 << 10, 16, {0.3}, 47);
  EXPECT_FALSE(RunBatch(ProtocolConfig("no_such_protocol"), w.database, 1).ok());
  ProtocolConfig bad = FastPes();
  bad.SetUint("domain_bits", 4);
  EXPECT_FALSE(RunBatch(bad, w.database, 1).ok());
  const std::vector<DomainItem> tiny(15, DomainItem(1));
  for (const ProtocolConfig& config :
       {FastPes(), Hh("bitstogram", 16, 4.0, 1e-2),
        Hh("treehist", 16, 4.0, 1e-2), Hh("succinct_hist", 16, 4.0, 1e-3)}) {
    EXPECT_FALSE(RunBatch(config, tiny, 1).ok()) << config.ToText();
  }
}

// ------------------------------------------------------------------- PES --

TEST(Pes, CreateValidatesParameters) {
  ProtocolConfig p = FastPes();
  p.SetUint("domain_bits", 4);
  EXPECT_FALSE(CreateAggregator(p).ok());
  p = FastPes();
  p.SetDouble("eps", 0.0);
  EXPECT_FALSE(CreateAggregator(p).ok());
  p = FastPes();
  p.SetDouble("beta", 1.5);
  EXPECT_FALSE(CreateAggregator(p).ok());
  p = FastPes();
  p.SetUint("num_coords", 7);  // Propagates to the code: odd M rejected.
  EXPECT_FALSE(CreateAggregator(p).ok());
}

TEST(Pes, AutoParamsResolve) {
  const auto pes = MustCreate(Hh("private_expander_sketch", 64, 2.0, 1e-3));
  const ProtocolConfig& c = pes->config();
  EXPECT_EQ(c.GetUintOr("num_coords", 0), 16u);
  EXPECT_EQ(c.GetUintOr("list_cap", 0), 4u * 64u);
  // The payload width Lz of the code the resolved parameters describe. A
  // user in group (m, j) reports bit j of coordinate m's payload, a 64-bit
  // word, so 0 < Lz <= 64.
  UrlCodeParams cp;
  cp.domain_bits = static_cast<int>(c.GetUintOr("domain_bits", 0));
  cp.num_coords = static_cast<int>(c.GetUintOr("num_coords", 0));
  cp.hash_range = static_cast<int>(c.GetUintOr("hash_range", 0));
  cp.expander_degree = static_cast<int>(c.GetUintOr("expander_degree", 0));
  cp.alpha = c.GetDoubleOr("alpha", 0.0);
  auto code_or = UrlCode::Create(cp, /*seed=*/1);
  ASSERT_TRUE(code_or.ok()) << code_or.status().ToString();
  EXPECT_GT(code_or.value().PayloadBits(), 0);
  EXPECT_LE(code_or.value().PayloadBits(), 64);
}

TEST(Pes, DetectionThresholdShape) {
  const auto pes = MustCreate(FastPes());
  // Quadrupling n doubles the threshold (sqrt scaling).
  const double t1 = pes->DetectionThreshold(1 << 16).value();
  const double t4 = pes->DetectionThreshold(1 << 18).value();
  EXPECT_NEAR(t4 / t1, 2.0, 1e-9);
}

TEST(Pes, EndToEndRecoversPlantedHitters) {
  const uint64_t n = 1 << 18;
  Workload w = MakePlantedWorkload(n, 16, {0.20, 0.17}, 42);
  const auto res = MustRun(FastPes(), w.database, 7);
  for (const auto& [item, count] : w.heavy) {
    EXPECT_TRUE(ResultContains(res, item));
  }
  // Estimates within the Hashtogram envelope.
  const auto eval = EvaluateHeavyHitters(w.database, res, n / 4);
  EXPECT_LE(eval.max_estimate_error, 20.0 * std::sqrt(static_cast<double>(n)));
}

TEST(Pes, NoJunkInOutputList) {
  // Every listed item must be a real element with nontrivial frequency
  // (the bucket-hash + code verification kills fabrications).
  const uint64_t n = 1 << 18;
  Workload w = MakePlantedWorkload(n, 16, {0.25}, 43);
  const auto res = MustRun(FastPes(), w.database, 11);
  ASSERT_GE(res.entries.size(), 1u);
  EXPECT_LE(res.entries.size(), 4u);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
}

TEST(Pes, MetricsAccounting) {
  const uint64_t n = 1 << 17;
  Workload w = MakePlantedWorkload(n, 16, {0.3}, 44);
  const auto res = MustRun(FastPes(), w.database, 13);
  const auto& m = res.metrics;
  EXPECT_EQ(m.num_users, n);
  EXPECT_GT(m.comm_bits_total, 0u);
  // O(1) communication: a couple of machine words at most.
  EXPECT_LE(m.comm_bits_max_user, 64u);
  EXPECT_GT(m.server_memory_bytes, 0u);
  EXPECT_GT(m.public_random_bits_per_user, 0u);
  EXPECT_GE(m.server_seconds, 0.0);
  EXPECT_GE(m.user_seconds_total, 0.0);
}

TEST(Pes, ExplicitBucketCountHonored) {
  ProtocolConfig p = FastPes();
  p.SetUint("num_buckets", 4);
  Workload w = MakePlantedWorkload(1 << 18, 16, {0.25, 0.2}, 46);
  const auto res = MustRun(p, w.database, 19);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
}

// -------------------------------------------------------------- baselines --

TEST(BitstogramApi, CreateValidatesAndAutofills) {
  ProtocolConfig p = Hh("bitstogram", 16, 2.0, 1.0 / 1024.0);
  EXPECT_EQ(MustCreate(p)->config().GetUintOr("cohorts", 0),
            10u);  // ceil(log2 1024).
  p.SetDouble("eps", -1);
  EXPECT_FALSE(CreateAggregator(p).ok());
}

TEST(BitstogramApi, DetectionGrowsWithStricterBeta) {
  // The sqrt(log 1/beta) penalty of Theorem 3.3.
  EXPECT_GT(Threshold(Hh("bitstogram", 16, 2.0, 1e-6), 1 << 18),
            Threshold(Hh("bitstogram", 16, 2.0, 1e-2), 1 << 18));
}

TEST(BitstogramRun, RecoversPlantedHitters) {
  const uint64_t n = 1 << 18;
  Workload w = MakePlantedWorkload(n, 16, {0.22, 0.18}, 47);
  const auto res = MustRun(Hh("bitstogram", 16, 4.0, 1e-3), w.database, 23);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
  EXPECT_LE(res.metrics.comm_bits_max_user, 64u);
}

TEST(SuccinctHistApi, DomainCapEnforced) {
  EXPECT_FALSE(CreateAggregator(Hh("succinct_hist", 30, 2.0, 1e-3)).ok());
}

TEST(SuccinctHistRun, RecoversHittersOnTinyDomain) {
  const uint64_t n = 1 << 14;
  Workload w = MakePlantedWorkload(n, 10, {0.4}, 48);
  const auto res = MustRun(Hh("succinct_hist", 10, 2.0, 1e-3), w.database, 29);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_EQ(res.metrics.comm_bits_max_user, 1u);  // One-bit reports.
}

TEST(FreqScanRun, FindsAllAboveThreshold) {
  FreqScanParams p;
  p.domain_bits = 12;
  p.epsilon = 2.0;
  auto fs = std::move(FreqScan::Create(p)).value();
  const uint64_t n = 1 << 15;
  Workload w = MakePlantedWorkload(n, 12, {0.3, 0.2}, 49);
  const auto res = std::move(fs.Run(w.database, 31)).value();
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
}

TEST(ProtocolNames, AreDistinct) {
  const auto pes = MustCreate(FastPes());
  const auto bits = MustCreate(Hh("bitstogram", 16, 2.0, 1e-3));
  EXPECT_NE(pes->Name(), bits->Name());
  EXPECT_EQ(pes->Epsilon(), 4.0);
}

}  // namespace
}  // namespace ldphh
