// Tests for src/codes/reed_solomon: the errors-and-erasures codec backing
// the Theorem 3.6 construction ("Implementation substitutions" in
// docs/protocols.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "src/codes/reed_solomon.h"
#include "src/common/random.h"

namespace ldphh {
namespace {

std::vector<uint8_t> RandomMessage(int k, Rng& rng) {
  std::vector<uint8_t> m(static_cast<size_t>(k));
  for (auto& b : m) b = static_cast<uint8_t>(rng());
  return m;
}

// Picks `count` distinct positions in [0, n).
std::vector<int> RandomPositions(int n, int count, Rng& rng) {
  std::vector<int> pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pos[static_cast<size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    const int j = i + static_cast<int>(rng.UniformU64(static_cast<uint64_t>(n - i)));
    std::swap(pos[static_cast<size_t>(i)], pos[static_cast<size_t>(j)]);
  }
  pos.resize(static_cast<size_t>(count));
  return pos;
}

TEST(ReedSolomon, CleanRoundtrip) {
  Rng rng(1);
  ReedSolomon rs(16, 8);
  const auto msg = RandomMessage(8, rng);
  const auto cw = rs.Encode(msg);
  ASSERT_EQ(cw.size(), 16u);
  // Systematic: message is the codeword prefix.
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
  const auto dec = rs.Decode(cw);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec.value(), msg);
}

TEST(ReedSolomon, AccessorsAndCapability) {
  ReedSolomon rs(20, 8);
  EXPECT_EQ(rs.n(), 20);
  EXPECT_EQ(rs.k(), 8);
  EXPECT_EQ(rs.max_errors(), 6);
}

TEST(ReedSolomon, EverySingleErrorPositionCorrectable) {
  Rng rng(2);
  ReedSolomon rs(12, 6);
  const auto msg = RandomMessage(6, rng);
  const auto cw = rs.Encode(msg);
  for (int p = 0; p < 12; ++p) {
    auto corrupted = cw;
    corrupted[static_cast<size_t>(p)] ^= 0x3c;
    const auto dec = rs.Decode(corrupted);
    ASSERT_TRUE(dec.ok()) << "pos=" << p;
    EXPECT_EQ(dec.value(), msg) << "pos=" << p;
  }
}

TEST(ReedSolomon, EverySingleErasurePositionCorrectable) {
  Rng rng(3);
  ReedSolomon rs(12, 6);
  const auto msg = RandomMessage(6, rng);
  const auto cw = rs.Encode(msg);
  for (int p = 0; p < 12; ++p) {
    auto corrupted = cw;
    corrupted[static_cast<size_t>(p)] = 0;  // Erased symbol value unknown.
    const auto dec = rs.Decode(corrupted, {p});
    ASSERT_TRUE(dec.ok()) << "pos=" << p;
    EXPECT_EQ(dec.value(), msg) << "pos=" << p;
  }
}

TEST(ReedSolomon, WrongLengthRejected) {
  ReedSolomon rs(10, 4);
  const auto dec = rs.Decode(std::vector<uint8_t>(9, 0));
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kInvalidArgument);
}

TEST(ReedSolomon, BadErasurePositionRejected) {
  Rng rng(4);
  ReedSolomon rs(10, 4);
  const auto cw = rs.Encode(RandomMessage(4, rng));
  EXPECT_FALSE(rs.Decode(cw, {10}).ok());
  EXPECT_FALSE(rs.Decode(cw, {-1}).ok());
}

TEST(ReedSolomon, TooManyErasuresRejected) {
  Rng rng(5);
  ReedSolomon rs(10, 6);
  const auto cw = rs.Encode(RandomMessage(6, rng));
  std::vector<int> erasures = {0, 1, 2, 3, 4};  // n - k = 4 < 5.
  EXPECT_FALSE(rs.Decode(cw, erasures).ok());
}

TEST(ReedSolomon, BeyondCapabilityDetectedNotMisdecoded) {
  // With max_errors()+1 random errors, the decoder must either fail or
  // (rarely, if the corruption lands on another codeword's ball) return a
  // different message — but must never return the original silently wrong.
  Rng rng(6);
  ReedSolomon rs(16, 10);  // Corrects 3.
  const auto msg = RandomMessage(10, rng);
  const auto cw = rs.Encode(msg);
  int failures = 0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    auto corrupted = cw;
    for (int p : RandomPositions(16, 5, rng)) {
      uint8_t delta = static_cast<uint8_t>(rng());
      if (delta == 0) delta = 1;
      corrupted[static_cast<size_t>(p)] ^= delta;
    }
    const auto dec = rs.Decode(corrupted);
    if (!dec.ok()) ++failures;
  }
  // Decoding 5 errors with capability 3 should almost always be detected.
  EXPECT_GT(failures, trials * 8 / 10);
}

// Parameterized sweep: (n, k, errors, erasures) within 2e + s <= n - k.
using RsCase = std::tuple<int, int, int, int>;

class ReedSolomonSweep : public ::testing::TestWithParam<RsCase> {};

TEST_P(ReedSolomonSweep, CorrectsWithinBudget) {
  const auto [n, k, errors, erasures] = GetParam();
  ASSERT_LE(2 * errors + erasures, n - k);
  Rng rng(static_cast<uint64_t>(n * 1000003 + k * 997 + errors * 31 + erasures));
  ReedSolomon rs(n, k);
  for (int trial = 0; trial < 20; ++trial) {
    const auto msg = RandomMessage(k, rng);
    auto cw = rs.Encode(msg);
    const auto positions = RandomPositions(n, errors + erasures, rng);
    std::vector<int> erased(positions.begin(), positions.begin() + erasures);
    for (int i = erasures; i < errors + erasures; ++i) {
      uint8_t delta = static_cast<uint8_t>(rng());
      if (delta == 0) delta = 1;
      cw[static_cast<size_t>(positions[static_cast<size_t>(i)])] ^= delta;
    }
    for (int p : erased) cw[static_cast<size_t>(p)] = static_cast<uint8_t>(rng());
    const auto dec = rs.Decode(cw, erased);
    ASSERT_TRUE(dec.ok()) << "n=" << n << " k=" << k << " e=" << errors
                          << " s=" << erasures << " trial=" << trial << ": "
                          << dec.status().ToString();
    EXPECT_EQ(dec.value(), msg);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budget, ReedSolomonSweep,
    ::testing::Values(
        // The URL-code shapes used by the protocols.
        RsCase{8, 2, 0, 0}, RsCase{8, 2, 1, 0}, RsCase{8, 2, 2, 0},
        RsCase{8, 2, 3, 0}, RsCase{8, 2, 0, 6}, RsCase{8, 2, 1, 4},
        RsCase{8, 2, 2, 2}, RsCase{16, 8, 0, 0}, RsCase{16, 8, 4, 0},
        RsCase{16, 8, 0, 8}, RsCase{16, 8, 2, 4}, RsCase{16, 8, 3, 2},
        RsCase{32, 16, 8, 0}, RsCase{32, 16, 0, 16}, RsCase{32, 16, 5, 6},
        RsCase{64, 32, 16, 0}, RsCase{64, 32, 10, 12},
        // Extreme rates.
        RsCase{255, 1, 127, 0}, RsCase{255, 223, 16, 0}, RsCase{4, 2, 1, 0},
        RsCase{4, 2, 0, 2}, RsCase{255, 128, 60, 7}));

TEST(ReedSolomon, InvalidParametersCheckFail) {
  EXPECT_DEATH(ReedSolomon(1, 1), "");
  EXPECT_DEATH(ReedSolomon(256, 8), "");
  EXPECT_DEATH(ReedSolomon(8, 8), "");
  EXPECT_DEATH(ReedSolomon(8, 0), "");
}

TEST(ReedSolomon, DistinctMessagesDistinctCodewords) {
  Rng rng(9);
  ReedSolomon rs(10, 4);
  std::set<std::vector<uint8_t>> codewords;
  for (int i = 0; i < 200; ++i) {
    codewords.insert(rs.Encode(RandomMessage(4, rng)));
  }
  // Random 32-bit messages essentially never collide in 200 draws.
  EXPECT_GT(codewords.size(), 195u);
}

TEST(ReedSolomon, MinimumDistanceWitness) {
  // MDS property: any two distinct codewords differ in >= n - k + 1 places.
  Rng rng(10);
  ReedSolomon rs(12, 4);
  const auto m1 = RandomMessage(4, rng);
  auto m2 = m1;
  m2[0] ^= 1;
  const auto c1 = rs.Encode(m1);
  const auto c2 = rs.Encode(m2);
  int diff = 0;
  for (size_t i = 0; i < c1.size(); ++i) diff += (c1[i] != c2[i]);
  EXPECT_GE(diff, 12 - 4 + 1);
}

}  // namespace
}  // namespace ldphh
