#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <vector>

namespace d2dhb {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng{9};
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng{13};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.uniform_int(42, 42), 42u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng{17};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng{19};
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng{23};
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(5.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng{29};
  double sum = 0.0, sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.fork();
  // Parent continues; child diverges.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedResetsSequence) {
  Rng rng{37};
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng.next_u64());
  rng.reseed(37);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_u64(), first[i]);
}

// --- KeyedDraw: the stateless counter-based draw ----------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(KeyedDraw, EqualInputsGiveEqualValues) {
  for (std::uint64_t i = 0; i < 100; ++i) {
    const KeyedDraw a{i * 7919, i, i + 1, i * 1000};
    const KeyedDraw b{i * 7919, i, i + 1, i * 1000};
    EXPECT_TRUE(same_bits(a.uniform(), b.uniform())) << i;
    EXPECT_TRUE(same_bits(a.normal(), b.normal())) << i;
  }
}

TEST(KeyedDraw, ChangingAnyOneInputChangesTheValue) {
  const std::uint64_t base[4] = {0x5eed, 17, 42, 3'000'000};
  const KeyedDraw reference{base[0], base[1], base[2], base[3]};
  // Small steps (neighbouring node ids, the next microsecond), a high
  // bit, and zero, in each of the four positions.
  for (std::size_t input = 0; input < 4; ++input) {
    for (const std::uint64_t delta :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{1} << 63}) {
      std::uint64_t in[4] = {base[0], base[1], base[2], base[3]};
      in[input] ^= delta;
      const KeyedDraw moved{in[0], in[1], in[2], in[3]};
      EXPECT_FALSE(same_bits(moved.uniform(), reference.uniform()))
          << "input " << input << " ^ " << delta;
      EXPECT_FALSE(same_bits(moved.normal(), reference.normal()))
          << "input " << input << " ^ " << delta;
    }
  }
  // Swapping the scanner and the peer is a different measurement.
  const KeyedDraw swapped{base[0], base[2], base[1], base[3]};
  EXPECT_FALSE(same_bits(swapped.uniform(), reference.uniform()));
}

TEST(KeyedDraw, MomentsOverAMillionKeys) {
  constexpr std::uint64_t n = 1'000'000;
  double u_sum = 0.0, u_sq = 0.0, z_sum = 0.0, z_sq = 0.0;
  for (std::uint64_t key = 0; key < n; ++key) {
    const KeyedDraw draw{key, 3, 5, 60'000'000};
    const double u = draw.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    const double z = draw.normal();
    u_sum += u;
    u_sq += u * u;
    z_sum += z;
    z_sq += z * z;
  }
  const double u_mean = u_sum / n;
  const double z_mean = z_sum / n;
  // Each tolerance is about six standard errors at n = 10^6.
  EXPECT_NEAR(u_mean, 0.5, 0.002);
  EXPECT_NEAR(u_sq / n - u_mean * u_mean, 1.0 / 12.0, 0.0006);
  EXPECT_NEAR(z_mean, 0.0, 0.006);
  EXPECT_NEAR(std::sqrt(z_sq / n - z_mean * z_mean), 1.0, 0.005);
}

}  // namespace
}  // namespace d2dhb
