#include "oracles/reference_fti.h"

#include <algorithm>

#include "core/mer.h"

namespace dmfb::oracle {
namespace {

/// Binary occupancy of `region` by modules that time-overlap module
/// `excluded` (excluding itself): exactly the cells unavailable to the
/// module were it relocated.
Matrix<std::uint8_t> occupancy_excluding(const Placement& placement,
                                         int excluded, const Rect& region) {
  Matrix<std::uint8_t> grid(region.width, region.height, 0);
  const PlacedModule& target = placement.module(excluded);
  for (int i = 0; i < placement.module_count(); ++i) {
    if (i == excluded) continue;
    const PlacedModule& other = placement.module(i);
    if (!target.time_overlaps(other)) continue;
    Rect fp = other.footprint();
    fp.x -= region.x;
    fp.y -= region.y;
    grid.fill_rect(fp, 1);
  }
  return grid;
}

/// One orientation's relocation query for a module: a summed-area table
/// over its valid-anchor grid, so "can the module relocate avoiding
/// `cell`?" is one O(1) count.
struct OrientationQuery {
  int w = 0;
  int h = 0;
  long long total_positions = 0;
  PrefixSum2D position_sums;

  /// Valid anchors whose footprint would contain `cell` (region-relative).
  long long positions_containing(Point cell) const {
    const int x1 = std::max(0, cell.x - w + 1);
    const int y1 = std::max(0, cell.y - h + 1);
    const int x2 = std::min(cell.x, position_sums.width() - 1);
    const int y2 = std::min(cell.y, position_sums.height() - 1);
    if (x2 < x1 || y2 < y1) return 0;
    return position_sums.occupied_in(Rect{x1, y1, x2 - x1 + 1, y2 - y1 + 1});
  }

  bool relocatable_avoiding(Point cell) const {
    return total_positions - positions_containing(cell) > 0;
  }
};

/// The queries (one or two orientations) for module `index` over `region`.
std::vector<OrientationQuery> build_relocation_queries(
    const Placement& placement, int index, const Rect& region,
    const FtiOptions& options) {
  const PlacedModule& m = placement.module(index);
  const PrefixSum2D occupied_sums(
      occupancy_excluding(placement, index, region));
  const int grid_w = occupied_sums.width();
  const int grid_h = occupied_sums.height();

  // Cell (x, y) of the valid-anchor grid is valid iff rect (x, y, w, h)
  // is empty and inside the grid.
  std::vector<OrientationQuery> queries;
  const auto add = [&](int qw, int qh) {
    OrientationQuery q;
    q.w = qw;
    q.h = qh;
    q.position_sums.rebuild_from(grid_w, grid_h, [&](int x, int y) {
      return x + qw <= grid_w && y + qh <= grid_h &&
             occupied_sums.is_rect_empty(Rect{x, y, qw, qh});
    });
    q.total_positions =
        q.position_sums.occupied_in(Rect{0, 0, grid_w, grid_h});
    queries.push_back(std::move(q));
  };
  const int w = m.spec.footprint_width();
  const int h = m.spec.footprint_height();
  add(w, h);
  if (options.allow_rotation && w != h) add(h, w);
  return queries;
}

}  // namespace

FtiResult evaluate_fti_reference(const Placement& placement,
                                 const FtiOptions& options,
                                 std::optional<Rect> region_opt) {
  const Rect region = region_opt.value_or(placement.bounding_box());
  FtiResult result;
  result.array = region;
  result.total_cells = region.area();
  result.covered = Matrix<std::uint8_t>(region.width, region.height, 1);
  if (region.empty()) return result;

  for (int index = 0; index < placement.module_count(); ++index) {
    const Rect fp = placement.module(index).footprint().intersection(region);
    if (fp.empty()) continue;

    const auto queries =
        build_relocation_queries(placement, index, region, options);
    for (int y = fp.y; y < fp.top(); ++y) {
      for (int x = fp.x; x < fp.right(); ++x) {
        const Point cell{x - region.x, y - region.y};
        if (result.covered.at(cell) == 0) continue;  // already uncovered
        bool relocatable = false;
        for (const auto& q : queries) {
          if (q.relocatable_avoiding(cell)) {
            relocatable = true;
            break;
          }
        }
        if (!relocatable) result.covered.at(cell) = 0;
      }
    }
  }

  long long covered = 0;
  for (const auto v : result.covered) covered += v;
  result.covered_cells = covered;
  return result;
}

bool is_cell_covered_reference(const Placement& placement, Point cell,
                               const FtiOptions& options, const Rect& region) {
  if (!region.contains(cell)) return false;
  for (int index = 0; index < placement.module_count(); ++index) {
    const PlacedModule& m = placement.module(index);
    if (!m.footprint().contains(cell)) continue;

    // Encode the configuration per §5.3: cells of concurrently operational
    // modules are 1, the faulty cell is 1, the failed module's own cells
    // are freed (it is "temporarily removed from the placement").
    Matrix<std::uint8_t> occupied =
        occupancy_excluding(placement, index, region);
    occupied.at(cell.x - region.x, cell.y - region.y) = 1;

    const int w = m.spec.footprint_width();
    const int h = m.spec.footprint_height();
    bool relocatable = false;
    for (const Rect& mer : maximal_empty_rectangles(occupied)) {
      if ((mer.width >= w && mer.height >= h) ||
          (options.allow_rotation && mer.width >= h && mer.height >= w)) {
        relocatable = true;
        break;
      }
    }
    if (!relocatable) return false;
  }
  return true;
}

std::vector<Rect> maximal_empty_rectangles_brute(
    const Matrix<std::uint8_t>& occupied) {
  const int width = occupied.width();
  const int height = occupied.height();
  std::vector<Rect> result;
  if (width == 0 || height == 0) return result;

  const PrefixSum2D sums(occupied);
  for (int y1 = 0; y1 < height; ++y1) {
    for (int y2 = y1; y2 < height; ++y2) {
      for (int x1 = 0; x1 < width; ++x1) {
        for (int x2 = x1; x2 < width; ++x2) {
          const Rect rect{x1, y1, x2 - x1 + 1, y2 - y1 + 1};
          if (!sums.is_rect_empty(rect)) continue;
          const bool left_blocked =
              x1 == 0 || sums.occupied_in(Rect{x1 - 1, y1, 1, rect.height}) > 0;
          const bool right_blocked =
              x2 + 1 == width ||
              sums.occupied_in(Rect{x2 + 1, y1, 1, rect.height}) > 0;
          const bool down_blocked =
              y1 == 0 || sums.occupied_in(Rect{x1, y1 - 1, rect.width, 1}) > 0;
          const bool up_blocked =
              y2 + 1 == height ||
              sums.occupied_in(Rect{x1, y2 + 1, rect.width, 1}) > 0;
          if (left_blocked && right_blocked && down_blocked && up_blocked) {
            result.push_back(rect);
          }
        }
      }
    }
  }

  // dmfb::maximal_empty_rectangles' documented order.
  std::sort(result.begin(), result.end(), [](const Rect& a, const Rect& b) {
    if (a.y != b.y) return a.y < b.y;
    if (a.x != b.x) return a.x < b.x;
    if (a.width != b.width) return a.width < b.width;
    return a.height < b.height;
  });
  return result;
}

}  // namespace dmfb::oracle
