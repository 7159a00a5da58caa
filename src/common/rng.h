// Deterministic random number streams.
//
// Every stochastic component of the simulator draws from an RngStream
// identified by a (seed, stream id) pair. Stream seeding is counter based
// (SplitMix64 over the pair hash), so results are reproducible and
// independent of thread count: parallel workers derive their streams from
// stable ids (node index, job id) rather than from a shared generator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace supremm::common {

/// SplitMix64 step; used for seed derivation and cheap stateless hashing.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Hash of a key tuple: each word (as uint64) xors into the running value,
/// which then takes the SplitMix64 finalizer. The one key hash of the
/// warehouse's word-keyed hash tables (packed group keys, micro-cell keys,
/// rollup cell and unit keys), for fixed- and run-time-width keys alike.
template <typename Word>
[[nodiscard]] constexpr std::uint64_t hash_words(std::span<const Word> words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Word word : words) {
    std::uint64_t z = h ^ static_cast<std::uint64_t>(word);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

template <typename Word, std::size_t N>
[[nodiscard]] constexpr std::uint64_t hash_words(const std::array<Word, N>& words) noexcept {
  return hash_words(std::span<const Word>(words));
}

/// std::unordered_map hasher for std::array keys, through hash_words.
struct WordsHash {
  template <typename Word, std::size_t N>
  std::size_t operator()(const std::array<Word, N>& words) const noexcept {
    return static_cast<std::size_t>(hash_words(words));
  }
};

/// Stable 64-bit hash of a string (FNV-1a), for deriving streams from names.
[[nodiscard]] std::uint64_t hash_string(std::string_view s) noexcept;

/// A deterministic random stream with the distributions the facility model
/// needs. Cheap to construct; construct one per (entity, purpose).
class RngStream {
 public:
  /// Derive a stream from a master seed and a stream id.
  RngStream(std::uint64_t seed, std::uint64_t stream_id);

  /// Derive a stream from a master seed and a named purpose + index.
  RngStream(std::uint64_t seed, std::string_view purpose, std::uint64_t index);

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform();
  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal.
  [[nodiscard]] double normal();
  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sd);
  /// Lognormal parameterized by the mean/sd of the *underlying* normal.
  [[nodiscard]] double lognormal(double mu, double sigma);
  /// Exponential with given mean (not rate).
  [[nodiscard]] double exponential(double mean);
  /// Poisson with given mean.
  [[nodiscard]] std::int64_t poisson(double mean);
  /// Bernoulli.
  [[nodiscard]] bool chance(double p);
  /// Pareto with scale xm > 0 and shape alpha > 0.
  [[nodiscard]] double pareto(double xm, double alpha);
  /// Pick an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights need not be normalized.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

  /// Direct access to the engine for std distributions not wrapped here.
  [[nodiscard]] std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Zipf-like weights: w[i] = 1 / (i+1)^s, i = 0..n-1. Used for the heavy
/// tailed user activity distribution (paper: ~2000 users, a handful dominate
/// node-hours).
[[nodiscard]] std::vector<double> zipf_weights(std::size_t n, double s);

}  // namespace supremm::common
