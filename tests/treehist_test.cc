// Tests for the treehist heavy-hitter protocol: the [3] prefix-tree
// baseline, run through the registry Aggregator and RunBatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/protocols/registry.h"
#include "src/protocols/run_batch.h"
#include "src/workload/workload.h"

namespace ldphh {
namespace {

bool ResultContains(const HeavyHitterResult& r, const DomainItem& x) {
  return std::any_of(r.entries.begin(), r.entries.end(),
                     [&](const HeavyHitterEntry& e) { return e.item == x; });
}

ProtocolConfig FastConfig() {
  ProtocolConfig c("treehist");
  c.SetUint("domain_bits", 16).SetDouble("eps", 4.0).SetDouble("beta", 1e-2);
  return c;
}

HeavyHitterResult MustRun(const ProtocolConfig& config,
                          const std::vector<DomainItem>& database,
                          uint64_t seed) {
  auto res_or = RunBatch(config, database, seed);
  EXPECT_TRUE(res_or.ok()) << res_or.status().ToString();
  return std::move(res_or).value();
}

double Threshold(const ProtocolConfig& config, uint64_t n) {
  return CreateAggregator(config).value()->DetectionThreshold(n).value();
}

TEST(TreeHist, CreateValidates) {
  ProtocolConfig p = FastConfig();
  p.SetUint("domain_bits", 4);
  EXPECT_FALSE(CreateAggregator(p).ok());
  p = FastConfig();
  p.SetDouble("eps", 0);
  EXPECT_FALSE(CreateAggregator(p).ok());
  p = FastConfig();
  p.SetDouble("beta", 2);
  EXPECT_FALSE(CreateAggregator(p).ok());
  p = FastConfig();
  p.SetUint("frontier_cap", 1);
  EXPECT_FALSE(CreateAggregator(p).ok());
}

// RunBatch's floor of 16 users. TreeHist has no floor of its own: in
// TreeHistGrowFrontier a level with no users gets a one-user threshold.
TEST(TreeHist, RejectsTinyDatabase) {
  std::vector<DomainItem> db(10, DomainItem(1));
  EXPECT_FALSE(RunBatch(FastConfig(), db, 1).ok());
}

TEST(TreeHist, RecoversPlantedHitters) {
  const uint64_t n = 1 << 18;
  const Workload w = MakePlantedWorkload(n, 16, {0.3, 0.2}, 91);
  const auto res = MustRun(FastConfig(), w.database, 7);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
  EXPECT_TRUE(ResultContains(res, w.heavy[1].first));
}

TEST(TreeHist, EstimatesWithinEnvelope) {
  const uint64_t n = 1 << 18;
  const Workload w = MakePlantedWorkload(n, 16, {0.35}, 93);
  const auto res = MustRun(FastConfig(), w.database, 11);
  for (const auto& e : res.entries) {
    if (e.item == w.heavy[0].first) {
      EXPECT_NEAR(e.estimate, static_cast<double>(w.heavy[0].second),
                  25.0 * std::sqrt(static_cast<double>(n)));
    }
  }
}

TEST(TreeHist, FrontierCapBoundsOutput) {
  ProtocolConfig p = FastConfig();
  p.SetUint("frontier_cap", 4);
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3, 0.25, 0.2}, 95);
  const auto res = MustRun(p, w.database, 13);
  EXPECT_LE(res.entries.size(), 4u);
}

TEST(TreeHist, CommunicationIsConstantBits) {
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3}, 97);
  const auto res = MustRun(FastConfig(), w.database, 17);
  EXPECT_LE(res.metrics.comm_bits_max_user, 64u);
  EXPECT_GT(res.metrics.server_memory_bytes, 0u);
}

TEST(TreeHist, DetectionThresholdScalesWithDomainAndN) {
  const ProtocolConfig th16 = FastConfig();
  ProtocolConfig th64 = FastConfig();
  th64.SetUint("domain_bits", 64);
  EXPECT_GT(Threshold(th64, 1 << 18), Threshold(th16, 1 << 18));
  EXPECT_NEAR(Threshold(th16, 1 << 20) / Threshold(th16, 1 << 18), 2.0, 0.2);
}

TEST(TreeHist, DeterministicGivenSeed) {
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3}, 99);
  const auto a = MustRun(FastConfig(), w.database, 23);
  const auto b = MustRun(FastConfig(), w.database, 23);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].item, b.entries[i].item);
  }
}

TEST(TreeHist, NoSpuriousDeepItems) {
  // Pure background: the frontier should die out (or contain only items
  // the verification threshold admits — with 3-sigma per level, spurious
  // survivals through all 16 levels are essentially impossible).
  const Workload w = MakePlantedWorkload(1 << 16, 16, {}, 101);
  const auto res = MustRun(FastConfig(), w.database, 29);
  EXPECT_LE(res.entries.size(), 2u);
}

TEST(TreeHist, WorksOn64BitDomain) {
  ProtocolConfig p = FastConfig();
  p.SetUint("domain_bits", 64);
  const uint64_t n = 1 << 19;
  const Workload w = MakePlantedWorkload(n, 64, {0.4}, 103);
  const auto res = MustRun(p, w.database, 31);
  EXPECT_TRUE(ResultContains(res, w.heavy[0].first));
}

}  // namespace
}  // namespace ldphh
