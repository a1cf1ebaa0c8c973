// mer.h — maximal empty rectangles (§5.3 of the paper).
//
// A maximal empty rectangle (MER) is an all-free axis-aligned rectangle of
// cells not contained in any larger all-free rectangle. Partial
// reconfiguration relocates a module whose cell failed into an MER large
// enough for its footprint; the paper finds MERs with the staircase
// technique of Edmonds et al. ("Mining for empty spaces in large data
// sets", TCS 2003).
//
// maximal_empty_rectangles is the staircase/histogram sweep, the paper's
// fast algorithm (output-sensitive, one stack walk per row). Its
// O(W^2 H^2) brute-force reference lives outside the library as a test
// oracle (tests/oracles/reference_fti.h).
#pragma once

#include <cstdint>
#include <vector>

#include "util/geometry.h"
#include "util/matrix.h"

namespace dmfb {

/// All maximal empty rectangles of the binary grid (nonzero = occupied).
/// Deterministic order: by top row, then left column.
std::vector<Rect> maximal_empty_rectangles(const Matrix<std::uint8_t>& occupied);

}  // namespace dmfb
