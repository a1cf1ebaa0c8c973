// reference_route.h — the two original space-time searches, kept as the
// test oracles of the production kernel (sim/route_planner.h
// routing::route_transfer).
//
// route_transfer: the prioritized search. A visited-set A* over (cell,
// step) with unit step cost: a state that violates the fluidic rule
// against an earlier route is never entered, and the first push of a
// state owns its parent. The production kernel reproduces it in
// hard-conflict mode (present weight kHardConflict, no history); it shares
// only the fluidic rule (routing::conflicts_with_route) with that kernel,
// so test_router_registry's route-for-route match pins the kernel's
// priced search, tie order and pruning against this reading of the
// decoupled planner.
//
// route_transfer_priced: the plain priced A* — fresh best-cost and parent
// arrays per search, and a penalty that scans every other route at every
// state it prices, where the kernel stamps reused buffers and reads a
// reservation table. test_router_registry pins the kernel to it route for
// route and cost for cost at fractional weights.
//
// Built into the dmfb_oracles library; the dmfb library never sees it.
#pragma once

#include <optional>
#include <vector>

#include "sim/route_planner.h"

namespace dmfb::oracle {

/// Routes `request` against `earlier` routes' space-time reservations
/// under hard fluidic constraints (merging partners exempt). Returns the
/// per-step positions, or nullopt when no conflict-free path exists
/// within `horizon` steps.
std::optional<std::vector<Point>> route_transfer(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& earlier, int horizon, int separation);

/// The scan-based priced search, with routing::route_transfer's contract
/// (same arguments minus the scratch, same result).
std::optional<routing::PricedRoute> route_transfer_priced(
    const TransferRequest& request, const Matrix<std::uint8_t>& blocked,
    const std::vector<TimedRoute>& others, std::size_t self, int horizon,
    int separation, double present_weight, const std::vector<double>& history,
    double history_weight);

}  // namespace dmfb::oracle
