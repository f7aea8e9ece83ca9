#ifndef NNCELL_COMMON_RNG_H_
#define NNCELL_COMMON_RNG_H_

#include <cstdint>

namespace nncell {

// Deterministic, seedable pseudo-random generator (xoshiro256**).
// Used everywhere instead of std::mt19937 so that experiments are exactly
// reproducible across standard library implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  uint64_t NextIndex(uint64_t n);

  // Standard normal variate (Box-Muller, no caching).
  double NextGaussian();

  // One step of splitmix64 (advances *state), which seeds the generator.
  static uint64_t SplitMix64(uint64_t* state);

 private:
  uint64_t s_[4];
};

}  // namespace nncell

#endif  // NNCELL_COMMON_RNG_H_
