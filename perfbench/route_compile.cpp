// route_compile — routing-hard compiles.
//
// Why this workload: with the "greedy" placer (no annealing, no FTI
// pricing) and the "negotiated" router, route is ~98% of the wall time,
// place ~0.4% and simulate ~0.5%. This is the home of the routers, and it
// bypasses the anneal loop entirely, so a placer change should not move
// it.
//
// Corpus: 180 assays per seed in fixed proportions — 60 corridor_assay
// (detector walls across two crossing traffic waves), 60
// permutation_assay (4 or 5 crossing droplets per wave, 2 or 3 waves, in
// turn) and 60 random_assay draws of 12 to 24 mixes. The seed picks each
// generator's structure, each compile's seed and the order. One client;
// routing.threads stays 1; simulate on.
#include "assay/random_assay.h"
#include "compile.h"

namespace perfbench {
namespace {

constexpr int kPerFamily = 60;

class RouteCompile final : public CompileCorpus {
 public:
  void setup(std::uint64_t seed) override {
    const dmfb::ModuleLibrary library = dmfb::ModuleLibrary::standard();
    SeedStream rng(seed ^ 0x20C7E0000000002ULL);
    items_.clear();
    for (int i = 0; i < 3 * kPerFamily; ++i) {
      CompileInput input;
      const int k = i % kPerFamily;
      switch (i / kPerFamily) {
        case 0:
          input.assay = dmfb::corridor_assay(dmfb::StressAssayParams{},
                                             library, rng.next());
          break;
        case 1:
          input.assay = dmfb::permutation_assay(4 + k % 2, 2 + (k / 2) % 2,
                                                library, rng.next());
          break;
        default: {
          dmfb::RandomAssayParams params;
          params.mix_operations = 12 + k % 13;
          input.assay = dmfb::random_assay(params, library, rng.next());
        }
      }
      input.options.placer = "greedy";
      input.options.router = "negotiated";
      input.options.simulate = true;
      input.options.simulation.record_events = false;
      input.options.seed = rng.next();
      items_.push_back(std::move(input));
    }
    rng.shuffle(items_);
  }
};

}  // namespace

std::unique_ptr<Workload> make_route_compile() {
  return std::make_unique<RouteCompile>();
}

}  // namespace perfbench
