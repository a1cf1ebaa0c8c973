// Unit tests for util/rng.h — determinism and distribution sanity, since
// every experiment's reproducibility hangs on this.
#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dmfb {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsTheStream) {
  Rng rng(77);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(rng.next());
  rng.reseed(77);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next(), first[i]);
  EXPECT_EQ(rng.seed(), 77u);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(5);
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, NextIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all seven values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);  // unbiased mean
}

TEST(RngTest, NextBoolMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
  // Degenerate probabilities.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SuccessiveSplitsAndParentShareNoDraws) {
  // The stream-independence contract (rng.h): K successive splits plus
  // the advanced parent have no pairwise overlap — here, not one value is
  // produced twice across 10^5 draws from each of the five streams.
  Rng parent(0xDA7E2005ULL);
  std::vector<Rng> streams;
  for (int k = 0; k < 4; ++k) streams.push_back(parent.split());
  streams.push_back(parent);  // the parent, post-splits
  constexpr int kDraws = 100000;
  std::set<std::uint64_t> seen;
  long long collisions = 0;
  for (Rng& stream : streams) {
    for (int i = 0; i < kDraws; ++i) {
      if (!seen.insert(stream.next()).second) ++collisions;
    }
  }
  // Even within ONE ideal stream, 5e5 draws of 64-bit values collide with
  // probability ~7e-9 (birthday bound); any overlap between streams would
  // show up as thousands of collisions.
  EXPECT_EQ(collisions, 0);
}

TEST(SplitMix64Test, KnownFirstOutputs) {
  // Reference values from the SplitMix64 reference implementation with
  // seed 0: first three outputs.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~0ULL);
  Rng rng(1);
  EXPECT_NE(rng(), rng());
}

TEST(FastDivTest, MatchesHardwareDivision) {
  // Every small divisor against awkward and random numerators; the
  // annealer's stream reproducibility rides on this being exact.
  Rng rng(0xD1Dull);
  std::vector<std::uint64_t> numerators = {
      0,    1,    2,          3,
      ~0ULL, ~0ULL - 1, 1ULL << 63, (1ULL << 63) - 1};
  for (int i = 0; i < 64; ++i) numerators.push_back(rng.next());
  for (std::uint64_t d = 1; d <= 1024; ++d) {
    const FastDiv div = FastDiv::make(d);
    EXPECT_EQ(div.threshold, (0 - d) % d) << "d=" << d;
    for (const std::uint64_t n : numerators) {
      ASSERT_EQ(div.divide(n), n / d) << "n=" << n << " d=" << d;
      ASSERT_EQ(div.mod(n), n % d) << "n=" << n << " d=" << d;
    }
  }
  // Large divisors, including > 2^63 (the add-scheme corner).
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t d = rng.next() | 1;
    const FastDiv div = FastDiv::make(d);
    for (const std::uint64_t n : numerators) {
      ASSERT_EQ(div.divide(n), n / d) << "n=" << n << " d=" << d;
    }
  }
}

TEST(FastDivTest, NextBelowStreamUnchanged) {
  // next_below must produce the exact sequence of the plain `% bound`
  // formulation it replaced (recorded from the pre-FastDiv build).
  Rng rng(42);
  auto reference = [](Rng& r, std::uint64_t bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t v = r.next();
      if (v >= threshold) return v % bound;
    }
  };
  Rng a(7), b(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t bound = 1 + rng.next_below(1000);
    ASSERT_EQ(a.next_below(bound), reference(b, bound)) << "bound=" << bound;
  }
}

}  // namespace
}  // namespace dmfb
