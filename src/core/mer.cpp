#include "core/mer.h"

#include <algorithm>

namespace dmfb {
namespace {

/// Sorts rectangles into the documented deterministic order.
void sort_rects(std::vector<Rect>& rects) {
  std::sort(rects.begin(), rects.end(), [](const Rect& a, const Rect& b) {
    if (a.y != b.y) return a.y < b.y;
    if (a.x != b.x) return a.x < b.x;
    if (a.width != b.width) return a.width < b.width;
    return a.height < b.height;
  });
}

}  // namespace

std::vector<Rect> maximal_empty_rectangles(
    const Matrix<std::uint8_t>& occupied) {
  const int width = occupied.width();
  const int height = occupied.height();
  std::vector<Rect> result;
  if (width == 0 || height == 0) return result;

  // heights[x] = number of consecutive empty cells in column x ending at the
  // current row y (the "staircase" profile of empty space below/at y).
  std::vector<int> heights(static_cast<std::size_t>(width), 0);

  struct StackEntry {
    int height;
    int left;  // leftmost column with profile >= height
  };
  std::vector<StackEntry> stack;

  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      heights[x] = occupied.at(x, y) != 0 ? 0 : heights[x] + 1;
    }

    // A rectangle with top edge at row y cannot extend upward iff y is the
    // last row or the row above has an occupied cell within its span.
    // row_above_occupied_prefix[x] = #occupied cells in row y+1, cols [0,x).
    std::vector<int> above_prefix(static_cast<std::size_t>(width) + 1, 0);
    if (y + 1 < height) {
      for (int x = 0; x < width; ++x) {
        above_prefix[x + 1] =
            above_prefix[x] + (occupied.at(x, y + 1) != 0 ? 1 : 0);
      }
    }
    auto up_blocked = [&](int x1, int x2) {
      if (y + 1 >= height) return true;
      return above_prefix[x2 + 1] - above_prefix[x1] > 0;
    };

    // Stack walk over the histogram. Each maximal (height, span) pair —
    // span maximal for that height, height = min over span — is produced
    // exactly once; it is a maximal empty rectangle iff it is up-blocked.
    stack.clear();
    for (int x = 0; x <= width; ++x) {
      const int h = x < width ? heights[x] : 0;
      int left = x;
      while (!stack.empty() && stack.back().height >= h) {
        const StackEntry entry = stack.back();
        stack.pop_back();
        if (entry.height > h && entry.height > 0 &&
            up_blocked(entry.left, x - 1)) {
          result.push_back(Rect{entry.left, y - entry.height + 1,
                                x - entry.left, entry.height});
        }
        left = entry.left;
      }
      if (h > 0 && (stack.empty() || stack.back().height < h)) {
        stack.push_back(StackEntry{h, left});
      }
    }
  }

  sort_rects(result);
  return result;
}

}  // namespace dmfb
