// Unit + property tests for the summed-area table of the FTI oracles
// (tests/oracles/reference_fti.h): the summed-area-table evaluator and
// the brute-force MER enumeration depend on exact agreement between the
// table and direct counting.
#include <gtest/gtest.h>

#include "oracles/reference_fti.h"
#include "util/rng.h"

namespace dmfb {
namespace {

using oracle::PrefixSum2D;

Matrix<std::uint8_t> random_grid(int w, int h, double density, Rng& rng) {
  Matrix<std::uint8_t> grid(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      grid.at(x, y) = rng.next_bool(density) ? 1 : 0;
    }
  }
  return grid;
}

TEST(PrefixSumTest, EmptyGridCountsZero) {
  const Matrix<std::uint8_t> grid(5, 4, 0);
  const PrefixSum2D sums(grid);
  EXPECT_EQ(sums.occupied_in(Rect{0, 0, 5, 4}), 0);
  EXPECT_TRUE(sums.is_rect_empty(Rect{1, 1, 3, 2}));
}

TEST(PrefixSumTest, FullGridCountsArea) {
  const Matrix<std::uint8_t> grid(4, 4, 1);
  const PrefixSum2D sums(grid);
  EXPECT_EQ(sums.occupied_in(Rect{0, 0, 4, 4}), 16);
  EXPECT_EQ(sums.occupied_in(Rect{1, 1, 2, 2}), 4);
  EXPECT_FALSE(sums.is_rect_empty(Rect{3, 3, 1, 1}));
}

TEST(PrefixSumTest, SingleCell) {
  Matrix<std::uint8_t> grid(3, 3, 0);
  grid.at(1, 1) = 1;
  const PrefixSum2D sums(grid);
  EXPECT_EQ(sums.occupied_in(Rect{1, 1, 1, 1}), 1);
  EXPECT_EQ(sums.occupied_in(Rect{0, 0, 1, 1}), 0);
  EXPECT_EQ(sums.occupied_in(Rect{0, 0, 3, 3}), 1);
  EXPECT_EQ(sums.occupied_in(Rect{0, 0, 2, 2}), 1);
  EXPECT_EQ(sums.occupied_in(Rect{2, 2, 1, 1}), 0);
}

TEST(PrefixSumTest, EmptyRectQueryIsZero) {
  const Matrix<std::uint8_t> grid(3, 3, 1);
  const PrefixSum2D sums(grid);
  EXPECT_EQ(sums.occupied_in(Rect{}), 0);
  EXPECT_EQ(sums.occupied_in(Rect{1, 1, 0, 2}), 0);
}

class PrefixSumPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PrefixSumPropertyTest, MatchesDirectCounting) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  for (int trial = 0; trial < 20; ++trial) {
    const int w = 1 + static_cast<int>(rng.next_below(12));
    const int h = 1 + static_cast<int>(rng.next_below(12));
    const auto grid = random_grid(w, h, rng.next_double(), rng);
    const PrefixSum2D sums(grid);
    for (int q = 0; q < 30; ++q) {
      const int x = static_cast<int>(rng.next_below(w));
      const int y = static_cast<int>(rng.next_below(h));
      const int rw = 1 + static_cast<int>(rng.next_below(w - x));
      const int rh = 1 + static_cast<int>(rng.next_below(h - y));
      const Rect r{x, y, rw, rh};
      EXPECT_EQ(sums.occupied_in(r), grid.count_in_rect(r, 1));
      EXPECT_EQ(sums.is_rect_empty(r), grid.count_in_rect(r, 1) == 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixSumPropertyTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace dmfb
