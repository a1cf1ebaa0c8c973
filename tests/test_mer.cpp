// Tests for the maximal-empty-rectangle machinery (§5.3): the staircase
// enumeration is pinned against the brute-force oracle
// (tests/oracles/reference_fti.h) on directed cases and on randomized
// grids.
#include "core/mer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "oracles/reference_fti.h"
#include "util/rng.h"

namespace dmfb {
namespace {

Matrix<std::uint8_t> grid_from(const std::vector<std::string>& rows) {
  // rows.front() is the TOP row (y = height-1), matching how humans draw.
  const int height = static_cast<int>(rows.size());
  const int width = height == 0 ? 0 : static_cast<int>(rows.front().size());
  Matrix<std::uint8_t> grid(width, height, 0);
  for (int y = 0; y < height; ++y) {
    const std::string& row = rows[static_cast<std::size_t>(height - 1 - y)];
    EXPECT_EQ(static_cast<int>(row.size()), width);
    for (int x = 0; x < width; ++x) {
      grid.at(x, y) = row[static_cast<std::size_t>(x)] == '.' ? 0 : 1;
    }
  }
  return grid;
}

std::set<std::tuple<int, int, int, int>> to_set(const std::vector<Rect>& rects) {
  std::set<std::tuple<int, int, int, int>> result;
  for (const Rect& r : rects) {
    result.emplace(r.x, r.y, r.width, r.height);
  }
  return result;
}

TEST(MerTest, EmptyGridHasOneMaximalRect) {
  const Matrix<std::uint8_t> grid(5, 4, 0);
  const auto mers = maximal_empty_rectangles(grid);
  ASSERT_EQ(mers.size(), 1u);
  EXPECT_EQ(mers.front(), (Rect{0, 0, 5, 4}));
}

TEST(MerTest, FullGridHasNone) {
  const Matrix<std::uint8_t> grid(3, 3, 1);
  EXPECT_TRUE(maximal_empty_rectangles(grid).empty());
  EXPECT_TRUE(oracle::maximal_empty_rectangles_brute(grid).empty());
}

TEST(MerTest, ZeroSizedGrid) {
  const Matrix<std::uint8_t> grid(0, 0, 0);
  EXPECT_TRUE(maximal_empty_rectangles(grid).empty());
}

TEST(MerTest, SingleObstacleCenter) {
  // 3x3 with the center occupied: four maximal 3x1 / 1x3 rects.
  const auto grid = grid_from({
      "...",
      ".#.",
      "...",
  });
  const auto mers = to_set(maximal_empty_rectangles(grid));
  const auto expected = to_set({
      Rect{0, 0, 3, 1},  // bottom row
      Rect{0, 2, 3, 1},  // top row
      Rect{0, 0, 1, 3},  // left column
      Rect{2, 0, 1, 3},  // right column
  });
  EXPECT_EQ(mers, expected);
}

TEST(MerTest, LShapedFreeSpace) {
  const auto grid = grid_from({
      "..##",
      "..##",
      "....",
  });
  const auto mers = to_set(maximal_empty_rectangles(grid));
  const auto expected = to_set({
      Rect{0, 0, 4, 1},  // bottom strip
      Rect{0, 0, 2, 3},  // left block
  });
  EXPECT_EQ(mers, expected);
}

TEST(MerTest, MatchesBruteForceOnDirectedCases) {
  const std::vector<std::vector<std::string>> cases = {
      {"....", "....", "...."},
      {"#...", "....", "...#"},
      {"#.#.", ".#.#", "#.#."},
      {"....", ".##.", ".##.", "...."},
      {"######", "#....#", "#.##.#", "#....#", "######"},
      {".", "#", "."},
      {"..#..#..", "########", "..#..#.."},
  };
  for (const auto& rows : cases) {
    const auto grid = grid_from(rows);
    EXPECT_EQ(to_set(maximal_empty_rectangles(grid)),
              to_set(oracle::maximal_empty_rectangles_brute(grid)))
        << "case with " << rows.size() << " rows";
  }
}

TEST(MerTest, EveryReportedRectIsEmptyAndMaximal) {
  Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const int w = 2 + static_cast<int>(rng.next_below(9));
    const int h = 2 + static_cast<int>(rng.next_below(9));
    Matrix<std::uint8_t> grid(w, h, 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        grid.at(x, y) = rng.next_bool(0.3) ? 1 : 0;
      }
    }
    for (const Rect& r : maximal_empty_rectangles(grid)) {
      // Empty.
      EXPECT_EQ(grid.count_in_rect(r, 1), 0);
      // Maximal: every one-cell extension hits an obstacle or the border.
      auto blocked = [&](const Rect& probe) {
        if (!probe.within_bounds(w, h)) return true;
        return grid.count_in_rect(probe, 1) > 0;
      };
      EXPECT_TRUE(blocked(Rect{r.x - 1, r.y, 1, r.height}));
      EXPECT_TRUE(blocked(Rect{r.right(), r.y, 1, r.height}));
      EXPECT_TRUE(blocked(Rect{r.x, r.y - 1, r.width, 1}));
      EXPECT_TRUE(blocked(Rect{r.x, r.top(), r.width, 1}));
    }
  }
}

class MerRandomEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(MerRandomEquivalence, StaircaseEqualsBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const int w = 1 + static_cast<int>(rng.next_below(11));
    const int h = 1 + static_cast<int>(rng.next_below(11));
    const double density = rng.next_double() * 0.8;
    Matrix<std::uint8_t> grid(w, h, 0);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w; ++x) {
        grid.at(x, y) = rng.next_bool(density) ? 1 : 0;
      }
    }
    EXPECT_EQ(to_set(maximal_empty_rectangles(grid)),
              to_set(oracle::maximal_empty_rectangles_brute(grid)))
        << "grid " << w << "x" << h << " density " << density;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MerRandomEquivalence, ::testing::Range(0, 10));

TEST(MerTest, StepShapedFreeSpace) {
  const auto grid = grid_from({
      "....",
      "##..",
      "##..",
  });
  const auto mers = to_set(maximal_empty_rectangles(grid));
  const auto expected = to_set({
      Rect{2, 0, 2, 3},  // right block: a 2x3 fits, a 3x2 does not
      Rect{0, 2, 4, 1},  // top strip: a 4x1 fits, a 4x2 does not
  });
  EXPECT_EQ(mers, expected);
}

}  // namespace
}  // namespace dmfb
