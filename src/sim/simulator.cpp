#include "sim/simulator.h"

#include <utility>

#include "sim/sim_engine.h"

namespace dmfb {

SimulationResult Simulator::run(const SequencingGraph& graph,
                                const Schedule& schedule,
                                const Placement& placement,
                                const Chip& chip) const {
  EventSimEngine engine(options_);
  return std::move(engine.run(graph, schedule, placement, chip).result);
}

}  // namespace dmfb
