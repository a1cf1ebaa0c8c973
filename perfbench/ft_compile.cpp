// ft_compile — the paper's fault-tolerant compile.
//
// Why this workload: SynthesisPipeline with the "sa" placer at beta = 30
// prices the Fault Tolerance Index inside the anneal, the paper's
// area-versus-fault-tolerance trade. Placement is ~99.8% of such a
// compile, and most of that is FTI pricing, so this is the home of the
// anneal loop and of FTI pricing; no other workload here runs them at
// beta > 0.
//
// Corpus: 80 small assays per seed, 20 of each family — PCR mixing
// stages, 3-level protein dilutions, 2x2 multiplexed diagnostics panels
// and random_assay draws of 7 mixes, at most 3 per layer. Each compiles
// in about the same time (10 to 15 modules), so a pass costs about the
// same under every seed and no percentile sits on a gap between two
// families. (Random draws of 8 to 10 mixes spanned 22 to 77 ms a
// compile and set item_ms_p90 by themselves, so it moved with the seed.)
// The seed picks the random assays' structure, each compile's anneal
// seed, one manufacturing defect per compile in the 12x12 corner where
// placements pack, and the order.
//
// Anneal schedule: T0 = 1e4, alpha = 0.9, T_min = 0.05 (the paper's
// temperatures, 116 steps) with Na = 8 proposals per module per step
// instead of 400, so one pass takes about 2.5 s on a 4-core x86
// container and a 25 s run repeats each compile about ten times. One client, one thread; routing with
// the default "prioritized" router; simulate on (under 0.5% of a
// compile) so every design is also executed.
#include "assay/random_assay.h"
#include "compile.h"

namespace perfbench {
namespace {

constexpr int kPerFamily = 20;  // compiles per assay family
constexpr int kItersPerModule = 8;

class FtCompile final : public CompileCorpus {
 public:
  void setup(std::uint64_t seed) override {
    const dmfb::ModuleLibrary library = dmfb::ModuleLibrary::standard();
    SeedStream rng(seed ^ 0xF7C0A9117E000001ULL);
    items_.clear();
    for (int i = 0; i < 4 * kPerFamily; ++i) {
      CompileInput input;
      const int family = i / kPerFamily;
      const int k = i % kPerFamily;
      switch (family) {
        case 0:
          input.assay = dmfb::pcr_mixing_assay();
          break;
        case 1:
          input.assay = dmfb::protein_dilution_assay(3, library);
          break;
        case 2:
          input.assay = dmfb::multiplexed_diagnostics_assay(2, 2, library);
          break;
        default: {
          dmfb::RandomAssayParams params;
          params.mix_operations = 7;
          params.max_layer_width = 3;
          input.assay = dmfb::random_assay(params, library, rng.next());
        }
      }
      input.options.placer = "sa";
      input.options.placer_context.weights.beta = 30.0;
      input.options.placer_context.annealing.iterations_per_module =
          kItersPerModule;
      input.options.placer_context.defects.push_back(
          dmfb::Point{rng.range(0, 11), rng.range(0, 11)});
      input.options.simulate = true;
      input.options.simulation.record_events = false;
      input.options.seed = rng.next();
      items_.push_back(std::move(input));
    }
    rng.shuffle(items_);
  }
};

}  // namespace

std::unique_ptr<Workload> make_ft_compile() {
  return std::make_unique<FtCompile>();
}

}  // namespace perfbench
