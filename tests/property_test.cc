// Cross-module property and fuzz tests: randomized sweeps over parameter
// spaces asserting the structural invariants each module promises.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/core/ldphh.h"

namespace ldphh {
namespace {

// ------------------------------------------------------------- RS fuzz --

TEST(PropertyRs, RandomShapesRandomBudgets) {
  Rng rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 8 + static_cast<int>(rng.UniformU64(120));
    const int k = 1 + static_cast<int>(rng.UniformU64(static_cast<uint64_t>(n - 1)));
    ReedSolomon rs(n, k);
    std::vector<uint8_t> msg(static_cast<size_t>(k));
    for (auto& b : msg) b = static_cast<uint8_t>(rng());
    auto cw = rs.Encode(msg);

    // Random split of the 2e + s <= n - k budget.
    const int budget = n - k;
    const int erasures = static_cast<int>(rng.UniformU64(budget + 1));
    const int errors = static_cast<int>(rng.UniformU64((budget - erasures) / 2 + 1));
    std::vector<int> pos(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) pos[static_cast<size_t>(i)] = i;
    for (int i = 0; i < errors + erasures; ++i) {
      const int j = i + static_cast<int>(rng.UniformU64(n - i));
      std::swap(pos[static_cast<size_t>(i)], pos[static_cast<size_t>(j)]);
    }
    std::vector<int> erased(pos.begin(), pos.begin() + erasures);
    for (int p : erased) cw[static_cast<size_t>(p)] = static_cast<uint8_t>(rng());
    for (int i = erasures; i < errors + erasures; ++i) {
      uint8_t d = static_cast<uint8_t>(rng());
      if (d == 0) d = 1;
      cw[static_cast<size_t>(pos[static_cast<size_t>(i)])] ^= d;
    }
    const auto dec = rs.Decode(cw, erased);
    ASSERT_TRUE(dec.ok()) << "n=" << n << " k=" << k << " e=" << errors
                          << " s=" << erasures;
    EXPECT_EQ(dec.value(), msg);
  }
}

// --------------------------------------------------------- UrlCode fuzz --

TEST(PropertyUrlCode, RandomShapesSurviveInBudgetCorruption) {
  Rng rng(2);
  const int shapes[][4] = {
      {16, 8, 16, 4}, {64, 16, 32, 4}, {64, 16, 64, 6}, {128, 32, 32, 4}};
  for (const auto& shape : shapes) {
    UrlCodeParams p;
    p.domain_bits = shape[0];
    p.num_coords = shape[1];
    p.hash_range = shape[2];
    p.expander_degree = shape[3];
    auto code = std::move(UrlCode::Create(p, rng())).value();
    for (int trial = 0; trial < 10; ++trial) {
      DomainItem x;
      for (auto& l : x.limbs) l = rng();
      x.Truncate(p.domain_bits);
      const auto cw = code.Encode(x);
      std::vector<std::vector<UrlCode::ListEntry>> lists(
          static_cast<size_t>(p.num_coords));
      // Corrupt exactly M/8 coordinates: inside the alpha budget at every
      // shape. (At M=8 the peeling cascade tolerates ~1 bad coordinate;
      // the fraction-of-M tolerance is what grows with M, per the theorem.)
      const int bad_count = std::max(1, p.num_coords / 8);
      std::vector<bool> bad(static_cast<size_t>(p.num_coords), false);
      for (int b = 0; b < bad_count; ++b) {
        bad[static_cast<size_t>(rng.UniformU64(p.num_coords))] = true;
      }
      for (int m = 0; m < p.num_coords; ++m) {
        if (bad[static_cast<size_t>(m)]) {
          lists[static_cast<size_t>(m)].push_back(
              {static_cast<uint16_t>(rng.UniformU64(p.hash_range)),
               rng() & ((uint64_t{1} << code.PayloadBits()) - 1)});
        } else {
          lists[static_cast<size_t>(m)].push_back(
              {cw.y[static_cast<size_t>(m)],
               code.PackPayload(cw.symbols[static_cast<size_t>(m)])});
        }
      }
      const auto out = code.Decode(lists, rng);
      EXPECT_TRUE(std::find(out.begin(), out.end(), x) != out.end())
          << "bits=" << p.domain_bits << " trial=" << trial;
    }
  }
}

// ---------------------------------------------------- oracle linearity --

TEST(PropertyHashtogram, EstimatesAreApproximatelyLinear) {
  // f(A) + f(B) for disjoint item sets ~ estimate sums (the sketch is a
  // linear transform of the report stream plus per-query debiasing).
  const uint64_t n = 60000;
  const Workload w = MakePlantedWorkload(n, 64, {0.25, 0.2, 0.1}, 3);
  HashtogramParams p;
  Hashtogram ht(n, 2.0, p, 5);
  Rng rng(7);
  for (uint64_t i = 0; i < n; ++i) {
    ht.Aggregate(i, ht.Encode(i, w.database[static_cast<size_t>(i)], rng));
  }
  ht.Finalize();
  double combined = 0;
  double truth = 0;
  for (const auto& [item, count] : w.heavy) {
    combined += ht.Estimate(item);
    truth += static_cast<double>(count);
  }
  EXPECT_NEAR(combined, truth, 30.0 * std::sqrt(static_cast<double>(n)));
}

// ------------------------------------------------- randomizer identities --

TEST(PropertyRandomizer, DeltaAtExactEpsilonIsZero) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const double eps = 0.1 + 3.0 * rng.UniformDouble();
    const int k = 2 + static_cast<int>(rng.UniformU64(10));
    KaryRandomizedResponse rr(k, eps);
    EXPECT_NEAR(rr.ExactDelta(rr.ExactEpsilon()), 0.0, 1e-9);
    EXPECT_TRUE(rr.CheckStochastic().ok());
  }
}

TEST(PropertyPld, CompositionDeltaMonotoneInK) {
  BinaryRandomizedResponse rr(0.4);
  const auto base = PrivacyLossDistribution::FromRandomizer(rr, 0, 1);
  double prev = 0.0;
  for (int k : {1, 2, 4, 8, 16, 32}) {
    const double d = base.SelfCompose(k).DeltaForEpsilon(1.0);
    EXPECT_GE(d, prev - 1e-12) << k;  // More composition, more leakage.
    prev = d;
  }
}

TEST(PropertyPld, GroupEpsilonSubadditive) {
  // eps'(k1 + k2) <= eps'(k1) + eps'(k2) at matched delta (triangle-ish
  // property of the exact curve).
  BinaryRandomizedResponse rr(0.2);
  const double delta = 1e-6;
  const double e8 = ExactGroupEpsilon(rr, 0, 1, 8, delta);
  const double e16 = ExactGroupEpsilon(rr, 0, 1, 16, delta);
  EXPECT_LE(e16, 2 * e8 + 1e-9);
}

// -------------------------------------------------- GenProt generality --

TEST(PropertyGenProt, WorksWithKaryRandomizer) {
  // The transformation is generic in the source randomizer: verify pure DP
  // for a 4-ary RR source (not just the binary leaky one).
  const double eps = 0.2;
  KaryRandomizedResponse rr(4, eps);
  const int t_count = 16;
  GenProt gp(&rr, eps, t_count, /*default_input=*/2);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<int> ys;
    for (int t = 0; t < t_count; ++t) ys.push_back(rr.Sample(2, rng));
    EXPECT_LE(gp.ExactEpsilonForPublicRandomness(ys), 10 * eps + 1e-9);
  }
}

// -------------------------------------------- shell mechanism sampling --

TEST(PropertyShell, EmpiricalDistanceHistogramMatchesLogProbs) {
  const int k = 24;
  ShellComposedRR m(0.3, k, 0.05);
  Rng rng(13);
  std::vector<uint8_t> x(static_cast<size_t>(k), 1);
  std::vector<double> hist(static_cast<size_t>(k + 1), 0.0);
  const int trials = 60000;
  for (int t = 0; t < trials; ++t) {
    const auto y = m.Apply(x, rng);
    int d = 0;
    for (int i = 0; i < k; ++i) d += (y[static_cast<size_t>(i)] != 1);
    ++hist[static_cast<size_t>(d)];
  }
  for (int d = 0; d <= k; ++d) {
    const double expect =
        std::exp(LogBinomial(static_cast<uint64_t>(k), static_cast<uint64_t>(d)) +
                 m.LogProbAtDistance(d));
    EXPECT_NEAR(hist[static_cast<size_t>(d)] / trials, expect,
                0.01 + 4.0 * std::sqrt(expect / trials))
        << "d=" << d;
  }
}

// ------------------------------------------------------ protocol caps --

// A 16-bit-domain PES at eps = 4 with the small test geometry.
ProtocolConfig SmallPes() {
  ProtocolConfig c("private_expander_sketch");
  c.SetUint("domain_bits", 16)
      .SetDouble("eps", 4.0)
      .SetUint("num_coords", 8)
      .SetUint("hash_range", 16)
      .SetUint("expander_degree", 4);
  return c;
}

TEST(PropertyPes, ListCapIsRespected) {
  ProtocolConfig p = SmallPes();
  p.SetUint("list_cap", 8);
  const Workload w = MakePlantedWorkload(1 << 17, 16, {0.3, 0.25}, 15);
  const auto res = RunBatch(p, w.database, 17).value();
  // Output is bounded by B * list-recovery L = O(ell); with one bucket and
  // cap 8 the list cannot exceed a small multiple of the cap.
  EXPECT_LE(res.entries.size(), 16u);
}

TEST(PropertyProtocols, SeedsChangeNoiseNotFindings) {
  const Workload w = MakePlantedWorkload(1 << 18, 16, {0.3}, 19);
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto res = RunBatch(SmallPes(), w.database, seed).value();
    bool found = false;
    for (const auto& e : res.entries) found |= (e.item == w.heavy[0].first);
    EXPECT_TRUE(found) << "seed=" << seed;
  }
}

// ------------------------------------------------------ quantile bound --

TEST(PropertyQuantiles, CdfIsMonotoneUpToNoise) {
  QuantileSketchParams p;
  p.value_bits = 8;
  p.epsilon = 2.0;
  const uint64_t n = 50000;
  Rng rng(21);
  QuantileSketch sketch(n, p, 23);
  for (uint64_t i = 0; i < n; ++i) {
    sketch.Aggregate(i, sketch.Encode(i, rng.UniformU64(256), rng));
  }
  sketch.Finalize();
  // CDF noise envelope per query.
  const double tol = 40.0 * std::sqrt(static_cast<double>(n));
  double prev = 0.0;
  for (uint64_t x = 0; x <= 256; x += 16) {
    const double cdf = sketch.EstimateCdf(x);
    EXPECT_GE(cdf, prev - tol);
    prev = std::max(prev, cdf);
  }
}

}  // namespace
}  // namespace ldphh
