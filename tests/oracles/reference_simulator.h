// reference_simulator.h — the original straight-line droplet simulator,
// kept as the test oracle of the production engine (sim/sim_engine.h).
//
// It walks the schedule module by module in (start_s, index) order,
// builds a chip-sized blocked matrix from scratch for every routing call
// and routes each droplet with sim/router.h's find_path. Slow, but a
// direct reading of the simulation model, and it shares no code with
// EventSimEngine beyond the router: the event≡reference audit in
// test_sim_engine and bench_perf_sim's throughput comparison check the
// engine against it. Built into the dmfb_oracles library; the dmfb
// library never sees it.
#pragma once

#include "assay/schedule.h"
#include "assay/sequencing_graph.h"
#include "biochip/chip.h"
#include "core/placement.h"
#include "sim/simulator.h"

namespace dmfb::oracle {

/// Executes the assay the way EventSimEngine::run does, and returns the
/// bit-identical SimulationResult (events, op_outputs, route accounting,
/// failure reasons). Same std::invalid_argument validation: module counts
/// must agree and the chip must cover the placement's bounding box.
SimulationResult run_reference(const SequencingGraph& graph,
                               const Schedule& schedule,
                               const Placement& placement, const Chip& chip,
                               const SimOptions& options = {});

}  // namespace dmfb::oracle
