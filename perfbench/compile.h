// compile.h — the compile-shaped workloads' shared parts: one timed
// SynthesisPipeline compile per item, and the output checks run on every
// item after its clock stops. A check that fails marks the item failed
// (Item::ok = false) and names the first problem; `ok_share` counts the
// items that passed them all.
//
// The checks recompute what they verify from the inputs and the returned
// artifacts instead of trusting the fields the program reports:
//   - the placement is overlap-free, inside its canvas and off every
//     known defect;
//   - the schedule respects the sequencing graph's precedence;
//   - the reported area and FTI equal the values recomputed from the
//     placement (evaluate_fti over the placement's bounding box);
//   - every routed changeover passes validate_changeover against the
//     blocked grid routing::extract_problems derives, as the router
//     conformance suite checks it.
#pragma once

#include <string>
#include <vector>

#include "assay/pipeline.h"
#include "harness.h"

namespace perfbench {

/// Checks a finished pipeline compile of `assay` under `options`. Returns
/// the first problem, or an empty string when every check passed. When
/// the problem is a known program defect (see compile.cpp), sets
/// `*known_defect`.
std::string check_compile(const dmfb::AssayCase& assay,
                          const dmfb::PipelineOptions& options,
                          const dmfb::PipelineResult& result,
                          bool* known_defect = nullptr);

/// Placement checks shared with the recovery workload: feasible, and no
/// module footprint on any of `defects`.
std::string check_placement(const dmfb::Placement& placement,
                            const std::vector<dmfb::Point>& defects);

/// Quality and digest of a compile's output.
Quality compile_quality(const dmfb::PipelineResult& result);
std::uint64_t compile_digest(const dmfb::PipelineResult& result);

/// Per-layer counts of a compile: annealing proposals and acceptances,
/// route steps and negotiation rounds.
void add_compile_counts(const dmfb::PipelineResult& result, Item& item);

/// One timed SynthesisPipeline compile, checked. With a tracer, the
/// pipeline's stages become child spans of `span`, which closes when the
/// compile returns.
Item run_compile(const dmfb::AssayCase& assay,
                 const dmfb::PipelineOptions& options, Tracer* tracer,
                 int span);

/// One compile of a corpus: the assay and the options it compiles under.
struct CompileInput {
  dmfb::AssayCase assay;
  dmfb::PipelineOptions options;
};

/// A workload that compiles a fixed corpus with one client, cycling
/// through it in order (ft_compile, route_compile). Subclasses fill
/// `items_` in setup().
class CompileCorpus : public Workload {
 public:
  Phase measure(double seconds, bool traced) override;

 protected:
  std::vector<CompileInput> items_;
};

}  // namespace perfbench
