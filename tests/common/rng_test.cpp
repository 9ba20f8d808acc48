#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace memca {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkIsDeterministic) {
  Rng root(7);
  Rng a = root.fork("clients");
  Rng b = Rng(7).fork("clients");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ForkLabelsAreIndependent) {
  Rng root(7);
  Rng a = root.fork("clients");
  Rng b = root.fork("prober");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(9);
  Rng b(9);
  (void)a.fork("x");
  (void)a.fork("y");
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, ExponentialTimeMeanConverges) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.exponential_time(msec(10)));
  EXPECT_NEAR(sum / n, static_cast<double>(msec(10)), 300.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
}

TEST(Rng, ChanceProbability) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(4.0));
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(19);
  EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.01);
}

TEST(Rng, WeightedIndexSingleWeight) {
  Rng rng(1);
  EXPECT_EQ(rng.weighted_index({5.0}), 0u);
}

// Exact Zipf CDF over ranks [0, n): P(rank <= k) with p(k) ~ (k+1)^-theta.
std::vector<double> exact_zipf_cdf(double theta, std::uint64_t n) {
  const double zetan = FastZipf::compute_zetan(theta, n);
  std::vector<double> cdf(n, 0.0);
  double acc = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += std::pow(1.0 / static_cast<double>(k + 1), theta) / zetan;
    cdf[k] = acc;
  }
  return cdf;
}

/// Largest |empirical - exact| CDF deviation over all ranks (KS statistic).
double zipf_ks_statistic(double theta, std::uint64_t n, int draws) {
  FastZipf zipf(theta, n);
  Rng rng(12345);
  std::vector<double> counts(n, 0.0);
  for (int i = 0; i < draws; ++i) counts[zipf(rng)] += 1.0;
  const std::vector<double> exact = exact_zipf_cdf(theta, n);
  double acc = 0.0;
  double worst = 0.0;
  for (std::uint64_t k = 0; k < n; ++k) {
    acc += counts[k] / draws;
    worst = std::max(worst, std::abs(acc - exact[k]));
  }
  return worst;
}

TEST(FastZipf, MatchesExactCdfAcrossSkews) {
  // Gray et al.'s construction is exact for the two hottest ranks and a
  // continuous-power approximation beyond. The approximation carries a
  // deterministic bias at early ranks that grows with skew (measured KS vs
  // the exact CDF at n=100: ~0.001 at theta 0, ~0.006 at 0.5, ~0.016 at
  // 0.99 — stable under more draws, so bias, not noise). The bounds pin
  // that today's error survives refactors; sampling noise at 200k draws is
  // ~0.003.
  EXPECT_LT(zipf_ks_statistic(0.0, 100, 200000), 0.005);
  EXPECT_LT(zipf_ks_statistic(0.5, 100, 200000), 0.010);
  EXPECT_LT(zipf_ks_statistic(0.99, 100, 200000), 0.020);
}

TEST(FastZipf, HottestRanksMatchExactMass) {
  const double theta = 0.99;
  const std::uint64_t n = 1000;
  FastZipf zipf(theta, n);
  const double zetan = zipf.zetan();
  Rng rng(7);
  const int draws = 400000;
  int rank0 = 0;
  int rank1 = 0;
  for (int i = 0; i < draws; ++i) {
    const auto r = zipf(rng);
    rank0 += r == 0;
    rank1 += r == 1;
  }
  EXPECT_NEAR(static_cast<double>(rank0) / draws, 1.0 / zetan, 0.005);
  EXPECT_NEAR(static_cast<double>(rank1) / draws, std::pow(0.5, theta) / zetan, 0.005);
}

TEST(FastZipf, ZeroThetaIsUniform) {
  FastZipf zipf(0.0, 8);
  Rng rng(3);
  std::vector<int> counts(8, 0);
  const int draws = 80000;
  for (int i = 0; i < draws; ++i) ++counts[zipf(rng)];
  for (int count : counts) {
    EXPECT_NEAR(static_cast<double>(count) / draws, 1.0 / 8.0, 0.01);
  }
}

TEST(FastZipf, StatelessAndDeterministic) {
  FastZipf zipf(0.9, 2048);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(zipf(a), zipf(b));
  }
}

TEST(FastZipf, PrecomputedZetanMatches) {
  const double zetan = FastZipf::compute_zetan(0.7, 512);
  FastZipf plain(0.7, 512);
  FastZipf shared(0.7, 512, zetan);
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(plain(a), shared(b));
  }
}

TEST(FastZipf, SingleRecordAlwaysRankZero) {
  FastZipf zipf(0.5, 1);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zipf(rng), 0u);
  }
}

// -- the engine against std::mt19937_64 ---------------------------------------

TEST(RngEngine, MatchesStdMt19937_64) {
  // A seed of the kind components run on: drawn from a forked stream.
  const auto fork_derived = static_cast<std::uint64_t>(Rng(42).fork("clients").uniform_int(
      std::numeric_limits<std::int64_t>::min(), std::numeric_limits<std::int64_t>::max()));
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{5489}, ~std::uint64_t{0}, fork_derived}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 1'000'000; ++i) {
      ASSERT_EQ(engine(), reference()) << "output " << i;
    }
  }
}

TEST(RngEngine, KeepsTheStandardEngineSize) {
  // 312 state words and a position: a Rng snapshot stays the size it was.
  EXPECT_EQ(sizeof(Mt19937_64), sizeof(std::mt19937_64));
}

TEST(RngEngine, TenThousandthOutputIsTheStandardCheckValue) {
  // C++ [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  Mt19937_64 engine;
  std::uint64_t out = 0;
  for (int i = 0; i < 10000; ++i) out = engine();
  EXPECT_EQ(out, 9981545732273789042ULL);
}

/// The reference engine a Rng built from `seed` must match: Rng seeds its
/// engine with one SplitMix64 step of the seed.
std::mt19937_64 reference_engine(std::uint64_t seed) {
  return std::mt19937_64(splitmix64(seed));
}

TEST(Rng, HelpersDrawWhatStdDistributionsDrawOnStdMt19937_64) {
  constexpr int kDraws = 20000;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(77);
  std::mt19937_64 ref = reference_engine(77);
  for (int i = 0; i < kDraws; ++i) {
    ASSERT_EQ(rng.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(ref));
    ASSERT_EQ(rng.uniform(-3.0, 8.5), std::uniform_real_distribution<double>(-3.0, 8.5)(ref));
    // The cohort scatter draw, and the full 64-bit range.
    ASSERT_EQ(rng.uniform_int(0, 49), std::uniform_int_distribution<std::int64_t>(0, 49)(ref));
    ASSERT_EQ(rng.uniform_int(kMin, kMax),
              std::uniform_int_distribution<std::int64_t>(kMin, kMax)(ref));
    ASSERT_EQ(rng.exponential(250.0), std::exponential_distribution<double>(1.0 / 250.0)(ref));
    ASSERT_EQ(rng.exponential_time(msec(7)),
              std::llround(std::exponential_distribution<double>(
                  1.0 / static_cast<double>(msec(7)))(ref)));
    ASSERT_EQ(rng.normal(10.0, 2.0), std::normal_distribution<double>(10.0, 2.0)(ref));
    ASSERT_EQ(rng.chance(0.3), std::uniform_real_distribution<double>(0.0, 1.0)(ref) < 0.3);
    ASSERT_EQ(rng.poisson(4.0), std::poisson_distribution<std::int64_t>(4.0)(ref));
    ASSERT_EQ(rng.poisson(60.0), std::poisson_distribution<std::int64_t>(60.0)(ref));
    // libstdc++ switches binomial algorithms at n * p = 8.
    ASSERT_EQ(rng.binomial(20, 0.1), std::binomial_distribution<std::int64_t>(20, 0.1)(ref));
    ASSERT_EQ(rng.binomial(3'500'000, 0.007),
              std::binomial_distribution<std::int64_t>(3'500'000, 0.007)(ref));
    const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
    double draw = std::uniform_real_distribution<double>(0.0, 10.0)(ref);
    std::size_t want = 0;
    while (want + 1 < weights.size() && (draw -= weights[want]) >= 0.0) ++want;
    ASSERT_EQ(rng.weighted_index(weights), want) << "draw " << i;
  }
}

TEST(Rng, CopiesAroundTheRefillContinueIdentically) {
  // Snapshots copy a Rng by value; a copy taken just before, at and just
  // after the 312-output refill must continue where the original does.
  for (const int taken : {311, 312, 313}) {
    SCOPED_TRACE("copied after " + std::to_string(taken) + " outputs");
    Rng original(5);
    std::mt19937_64 ref = reference_engine(5);
    for (int i = 0; i < taken; ++i) {
      ASSERT_EQ(original.uniform(), std::uniform_real_distribution<double>(0.0, 1.0)(ref));
    }
    Rng copy = original;
    for (int i = 0; i < 1000; ++i) {
      const double want = std::uniform_real_distribution<double>(0.0, 1.0)(ref);
      ASSERT_EQ(copy.uniform(), want) << "draw " << i;
      ASSERT_EQ(original.uniform(), want) << "draw " << i;
    }
  }
}

TEST(Rng, SplitMix64Avalanche) {
  std::uint64_t s1 = 1;
  std::uint64_t s2 = 2;
  const auto a = splitmix64(s1);
  const auto b = splitmix64(s2);
  EXPECT_NE(a, b);
  // Nearby seeds should differ in roughly half the bits.
  const int bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(bits, 16);
  EXPECT_LT(bits, 48);
}

}  // namespace
}  // namespace memca
