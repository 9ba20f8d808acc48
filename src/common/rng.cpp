#include "common/rng.h"

#include <cmath>
#include <mutex>
#include <vector>

#include "common/check.h"

namespace memca {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Mt19937_64::seed(std::uint64_t value) {
  state_[0] = value;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
  next_ = kStateWords;
}

namespace {
constexpr std::size_t kShift = 156;  // the recurrence's middle word offset m
constexpr std::uint64_t kTwist = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;

// One word of the twist: the upper 33 bits of `word`, the lower 31 of
// `succ`, shifted right and xored with kTwist when the odd bit is set.
inline std::uint64_t twist(std::uint64_t far, std::uint64_t word, std::uint64_t succ) {
  const std::uint64_t y = (word & kUpper) | (succ & ~kUpper);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kTwist);
}
}  // namespace

void Mt19937_64::refill() {
  // Both loops run an even count of words, so at -O2 (whose vectoriser
  // adds no scalar epilogue) they vectorise two words at a time; the last
  // two words follow one by one.
  constexpr std::size_t n = kStateWords;
  std::uint64_t* x = state_;
  for (std::size_t k = 0; k < n - kShift; ++k) x[k] = twist(x[k + kShift], x[k], x[k + 1]);
  for (std::size_t k = n - kShift; k < n - 2; ++k) {
    x[k] = twist(x[k + kShift - n], x[k], x[k + 1]);
  }
  x[n - 2] = twist(x[kShift - 2], x[n - 2], x[n - 1]);
  x[n - 1] = twist(x[kShift - 1], x[n - 1], x[0]);
  next_ = 0;
}

namespace {
std::uint64_t hash_label(std::string_view label) {
  // FNV-1a, then scrambled through splitmix64 for avalanche.
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return splitmix64(h);
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t s = seed;
  engine_.seed(splitmix64(s));
}

Rng Rng::fork(std::string_view label) const {
  std::uint64_t s = seed_ ^ hash_label(label);
  return Rng(splitmix64(s));
}

double Rng::normal(double mean, double stddev) {
  MEMCA_DCHECK(stddev >= 0.0);
  if (stddev == 0.0) return mean;
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

namespace {
// libstdc++'s binomial and poisson distributions call lgamma, and glibc's
// lgamma writes the process-global `signgam`. Rngs of parallel sweep cells
// would race on it, so those draws take one process-wide lock. The library
// code and therefore every draw stay the same.
std::mutex signgam_mutex;
}  // namespace

std::int64_t Rng::poisson(double mean) {
  MEMCA_CHECK_MSG(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  const std::lock_guard<std::mutex> lock(signgam_mutex);
  return std::poisson_distribution<std::int64_t>(mean)(engine_);
}

std::int64_t Rng::binomial(std::int64_t n, double p) {
  MEMCA_DCHECK(n >= 0);
  MEMCA_DCHECK(p >= 0.0 && p <= 1.0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const std::lock_guard<std::mutex> lock(signgam_mutex);
  return std::binomial_distribution<std::int64_t>(n, p)(engine_);
}

}  // namespace memca
