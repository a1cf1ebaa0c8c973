// rng.h — deterministic pseudo-random number generation.
//
// Every stochastic component of the library (the annealer, random assay
// generation, fault injection) takes an explicit Rng so runs are exactly
// reproducible from a printed seed. The generator is xoshiro256** seeded
// via SplitMix64, the standard pairing recommended by the xoshiro authors.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace dmfb {

/// Exact 64-bit division by a fixed divisor via precomputed magic numbers
/// (Granlund–Montgomery, the libdivide schemes): one widening multiply
/// and a shift instead of a hardware divide. `divide` returns exactly
/// n / bound for every n — test_rng.cpp cross-checks against the
/// hardware divider — so Rng::next_below's rejection sampling produces
/// bit-identical streams with or without it. The annealer draws three
/// bounded samples per proposal; two hardware divides each was a
/// measurable slice of the delta engine's proposal budget.
struct FastDiv {
  std::uint64_t bound = 0;
  std::uint64_t magic = 0;
  std::uint64_t threshold = 0;  ///< (2^64 - bound) % bound, Lemire rejection
  int shift = 0;
  bool add = false;   ///< round-down scheme: needs the add fixup
  bool pow2 = false;  ///< plain shift

  static FastDiv make(std::uint64_t d) {
    FastDiv f;
    f.bound = d;
    f.threshold = (0 - d) % d;
    const int sh = 63 - std::countl_zero(d);
    f.shift = sh;
    if ((d & (d - 1)) == 0) {
      f.pow2 = true;
      return f;
    }
    const unsigned __int128 power = static_cast<unsigned __int128>(1)
                                    << (64 + sh);
    std::uint64_t proposed = static_cast<std::uint64_t>(power / d);
    const std::uint64_t rem = static_cast<std::uint64_t>(power % d);
    const std::uint64_t error = d - rem;
    if (error < (static_cast<std::uint64_t>(1) << sh)) {
      // Round-up scheme: magic = floor(2^(64+sh) / d) + 1 is exact.
      f.magic = proposed + 1;
    } else {
      // Round-down scheme with the saturating add fixup.
      proposed += proposed;
      const std::uint64_t twice_rem = rem + rem;
      if (twice_rem >= d || twice_rem < rem) ++proposed;
      f.magic = proposed + 1;
      f.add = true;
    }
    return f;
  }

  std::uint64_t divide(std::uint64_t n) const {
    if (pow2) return n >> shift;
    const std::uint64_t q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(magic) * n) >> 64);
    if (!add) return q >> shift;
    const std::uint64_t t = ((n - q) >> 1) + q;
    return t >> shift;
  }

  std::uint64_t mod(std::uint64_t n) const { return n - divide(n) * bound; }
};

/// SplitMix64: used to expand a 64-bit seed into xoshiro state. Also a
/// perfectly fine generator for non-critical uses.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality, 256-bit state. Satisfies enough of
/// std::uniform_random_bit_generator to be used with <random> if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedf00dULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    seed_ = seed;
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
  }

  /// The seed this generator was (re)constructed from; benches print it.
  std::uint64_t seed() const { return seed_; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Rejection sampling
  /// to avoid modulo bias; repeating bounds run through a per-bound
  /// FastDiv memo (the annealer redraws the same couple of bounds
  /// millions of times), while one-shot bounds (e.g. a Fisher–Yates
  /// shuffle's descending sequence) take the plain hardware-divide path
  /// — a FastDiv is only derived once a bound misses the memo twice in a
  /// row. Both paths produce bit-identical results.
  std::uint64_t next_below(std::uint64_t bound) {
    if (divs_[0].bound == bound) return next_below_with(divs_[0]);
    if (divs_[1].bound == bound) return next_below_with(divs_[1]);
    if (divs_[2].bound == bound) return next_below_with(divs_[2]);
    if (bound == last_missed_bound_) {
      FastDiv& slot = divs_[div_victim_];
      div_victim_ = (div_victim_ + 1) % 3;
      slot = FastDiv::make(bound);
      return next_below_with(slot);
    }
    last_missed_bound_ = bound;
    const std::uint64_t threshold = (0 - bound) % bound;
    // Rejection loop; expected iterations < 2 for any bound.
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in the inclusive range [lo, hi].
  int next_int(int lo, int hi) {
    return lo + static_cast<int>(next_below(
                    static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1). 53 random mantissa bits.
  double next_double() {
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with success probability p.
  bool next_bool(double p) { return next_double() < p; }

  /// Derives an independent child generator; used to give subsystems their
  /// own streams without sharing state.
  ///
  /// Stream-independence contract: the child is reseeded from one parent
  /// draw XOR the golden-ratio constant, and reseed() expands that 64-bit
  /// value through SplitMix64 into fresh 256-bit xoshiro state — the child
  /// does NOT continue, lag or mirror the parent's sequence. Distinct
  /// split() calls consume successive parent draws, so siblings get
  /// distinct seeds; the chance of any two of k such streams colliding
  /// within n draws is ~ k^2 * n / 2^64 states visited out of 2^256
  /// (test_rng.cpp pins no pairwise overlap across the parent and four
  /// children for the first 10^5 draws each). Note split() advances the
  /// parent: the order of split() calls matters for reproducibility.
  Rng split() { return Rng(next() ^ 0x9e3779b97f4a7c15ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::uint64_t next_below_with(const FastDiv& div) {
    for (;;) {
      const std::uint64_t r = next();
      if (r >= div.threshold) return div.mod(r);
    }
  }

  std::uint64_t seed_ = 0;
  std::uint64_t state_[4] = {};
  /// Three-entry direct-mapped FastDiv memo: the annealer's proposal
  /// loop draws three recurring bounds — module count, the controlling
  /// window span, and count-1 from pair interchanges — so three slots
  /// cover the hot loop without thrash (the span slot turns over once
  /// per temperature step).
  FastDiv divs_[3];
  std::uint64_t last_missed_bound_ = 0;
  int div_victim_ = 0;
};

}  // namespace dmfb
