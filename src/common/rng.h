// Deterministic, forkable random number generation.
//
// Every simulation component draws from its own `Rng` forked from a parent
// with a string label. Forking hashes the label into the child seed, so the
// stream a component sees depends only on (root seed, fork path) — adding or
// reordering unrelated components never perturbs another component's draws.
// This is what makes scenario runs reproducible and diffable.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/time.h"

namespace memca {

/// SplitMix64 step; used both as a seed scrambler and for label hashing.
std::uint64_t splitmix64(std::uint64_t& state);

/// MT19937-64 (Matsumoto & Nishimura): the engine std::mt19937_64 names,
/// with the same seed(value) initialisation, the same 312-word state and
/// the same outputs, so every std:: distribution drawn through it returns
/// what it returns on std::mt19937_64. Only the refill differs: it selects
/// the twist constant with a mask instead of a branch, which GCC vectorises
/// at -O2 without -march (libstdc++'s branchy loop does not vectorise).
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;
  static constexpr std::uint64_t kDefaultSeed = 5489;

  explicit Mt19937_64(std::uint64_t value = kDefaultSeed) { seed(value); }

  void seed(std::uint64_t value);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  /// The next output: a word of the state, tempered on read.
  result_type operator()() {
    if (next_ == kStateWords) refill();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  /// Twists all 312 words at once.
  void refill();

  std::uint64_t state_[kStateWords];
  std::size_t next_ = kStateWords;
};

/// A component's random stream: Mt19937_64 seeded with one SplitMix64 step
/// of the seed, drawn through the std:: distributions. Copying it copies
/// the stream position (snapshots do).
class Rng {
 public:
  /// Creates a root generator from a user seed.
  explicit Rng(std::uint64_t seed);

  /// Derives an independent child stream; identical (seed, label) pairs give
  /// identical streams.
  Rng fork(std::string_view label) const;

  // The distribution helpers below are defined inline: the closed-loop
  // testbed draws tens of thousands of variates per simulated second, and
  // the per-draw distribution objects are stateless wrappers the compiler
  // folds away entirely once it can see through them. The arithmetic is
  // exactly what the out-of-line versions performed, so the streams are
  // bit-identical.

  /// Uniform in [0, 1).
  double uniform() { return std::uniform_real_distribution<double>(0.0, 1.0)(engine_); }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    MEMCA_DCHECK(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    MEMCA_DCHECK(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  /// Exponential with the given mean (mean > 0).
  double exponential(double mean) {
    MEMCA_CHECK_MSG(mean > 0.0, "exponential mean must be positive");
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  /// Exponentially distributed duration with the given mean duration.
  SimTime exponential_time(SimTime mean) {
    MEMCA_CHECK_MSG(mean > 0, "exponential_time mean must be positive");
    const double draw = exponential(static_cast<double>(mean));
    return static_cast<SimTime>(std::llround(draw));
  }
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool chance(double p) {
    MEMCA_DCHECK(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }
  /// Poisson-distributed count with the given mean.
  std::int64_t poisson(double mean);
  /// Binomial count of successes in `n` trials of probability `p`. The
  /// cohort scheduler draws one of these per (page class, tick) instead of
  /// one exponential timer per user. Allocation-free, and thread-safe like
  /// poisson() (see rng.cpp).
  std::int64_t binomial(std::int64_t n, double p);
  /// Picks an index in [0, weights.size()) proportionally to weights.
  std::size_t weighted_index(const std::vector<double>& weights) {
    MEMCA_CHECK_MSG(!weights.empty(), "weighted_index needs at least one weight");
    double total = 0.0;
    for (double w : weights) {
      MEMCA_DCHECK(w >= 0.0);
      total += w;
    }
    MEMCA_CHECK_MSG(total > 0.0, "weights must not all be zero");
    double draw = uniform(0.0, total);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      draw -= weights[i];
      if (draw < 0.0) return i;
    }
    return weights.size() - 1;
  }

 private:
  std::uint64_t seed_;
  Mt19937_64 engine_;
};

/// Zipf-distributed rank sampler over [0, n) with skew theta in [0, 1):
/// P(rank = i) ∝ 1 / (i + 1)^theta, so rank 0 is the hottest record.
///
/// Uses the Gray et al. ("Quickly generating billion-record synthetic
/// databases") rejection-free construction: the two hottest ranks are drawn
/// exactly from the CDF and the rest through a continuous-power
/// approximation, making a draw one uniform plus one pow() regardless of n.
/// This is the sampler the OLTP tier pulls record ids from, so its cost is
/// paid once per transaction operation. The zeta_n normalizer is O(n) to
/// compute; precompute it once (compute_zetan) when many samplers share one
/// table size, the oltp-cc-bench idiom.
///
/// The sampler is stateless: all randomness comes from the Rng passed to
/// operator(), so checkpointing the Rng checkpoints the stream.
class FastZipf {
 public:
  FastZipf(double theta, std::uint64_t n) : FastZipf(theta, n, compute_zetan(theta, n)) {}

  FastZipf(double theta, std::uint64_t n, double zetan)
      : n_(n), theta_(theta), zetan_(zetan) {
    MEMCA_CHECK_MSG(n >= 1, "FastZipf needs a non-empty key space");
    MEMCA_CHECK_MSG(theta >= 0.0 && theta < 1.0, "FastZipf skew must be in [0, 1)");
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    // n == 1 degenerates (zetan == zeta2 at n == 2 would divide by zero for
    // n == 1's zetan == 1); operator() short-circuits before eta_ is used.
    eta_ = n > 1 ? (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
                       (1.0 - zeta2 / zetan_)
                 : 0.0;
    threshold1_ = 1.0 / zetan_;
    threshold2_ = (1.0 + std::pow(0.5, theta)) / zetan_;
  }

  /// zeta_n = sum_{i=1..n} i^-theta, the Zipf CDF normalizer.
  static double compute_zetan(double theta, std::uint64_t n) {
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += std::pow(1.0 / static_cast<double>(i), theta);
    }
    return zetan;
  }

  /// Draws one rank in [0, n).
  std::uint64_t operator()(Rng& rng) const {
    if (n_ == 1) return 0;
    const double u = rng.uniform();
    if (u < threshold1_) return 0;
    if (u < threshold2_) return 1;
    const std::uint64_t rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < n_ ? rank : n_ - 1;
  }

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }
  double zetan() const { return zetan_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  /// Exact CDF cut-offs for ranks 0 and 1 (u < t1 -> 0, u < t2 -> 1).
  double threshold1_ = 0.0;
  double threshold2_ = 0.0;
};

}  // namespace memca
