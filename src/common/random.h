// Deterministic, fast pseudo-random number generation.
//
// All randomized algorithms in the library (rank sampling, core-set
// construction, treap priorities) draw from an explicitly seeded Rng so
// that builds and tests are reproducible. The generator is xoshiro256**,
// seeded through SplitMix64.

#ifndef TOPK_COMMON_RANDOM_H_
#define TOPK_COMMON_RANDOM_H_

#include <cstdint>

namespace topk {

// SplitMix64's increment: 2^64 / phi, odd, so stepping by it visits
// every 64-bit value once.
inline constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

// SplitMix64's output finalizer (Steele, Lea & Flood): a bijection on
// 64-bit values whose every output bit depends on every input bit. Pure
// arithmetic, so callers hash ids into placements (federate::ShardOf)
// or Bernoulli draws (SampledTopK's sample levels) with no state.
inline uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
// implementation), seeded via SplitMix64 as the authors recommend.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (int i = 0; i < 4; ++i) s_[i] = Mix64(x += kGoldenGamma);
  }

  // Uniform over all 64-bit values.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound); bound must be positive.
  uint64_t Below(uint64_t bound) {
    // Multiply-shift rejection-free mapping; bias is negligible (< 2^-64
    // relative) for the bounds used in this library.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform double in [0, 1). The top 53 bits fit a double exactly.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace topk

#endif  // TOPK_COMMON_RANDOM_H_
