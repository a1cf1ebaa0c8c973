// Tests for the text interchange format (io/assay_format.h): round trips
// and error reporting.
#include "io/assay_format.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "assay/scheduler.h"
#include "core/greedy_placer.h"

namespace dmfb {
namespace {

TEST(AssayFormatTest, PcrRoundTrip) {
  const ModuleLibrary library = ModuleLibrary::standard();
  const AssayCase original = pcr_mixing_assay();
  const std::string text = assay_to_string(original);
  const AssayCase parsed = assay_from_string(text, library);

  EXPECT_EQ(parsed.name, original.graph.name());
  ASSERT_EQ(parsed.graph.operation_count(),
            original.graph.operation_count());
  for (const auto& op : original.graph.operations()) {
    const auto& p = parsed.graph.operation(op.id);
    EXPECT_EQ(p.type, op.type);
    EXPECT_EQ(p.label, op.label);
    EXPECT_EQ(p.reagent, op.reagent);
    EXPECT_EQ(parsed.graph.successors(op.id),
              original.graph.successors(op.id));
  }
  ASSERT_EQ(parsed.binding.size(), original.binding.size());
  for (const auto& [id, spec] : original.binding) {
    EXPECT_EQ(parsed.binding.at(id).name, spec.name);
  }
  EXPECT_EQ(parsed.scheduler_options.constraints.max_concurrent_modules,
            original.scheduler_options.constraints.max_concurrent_modules);
  EXPECT_EQ(parsed.scheduler_options.insert_storage,
            original.scheduler_options.insert_storage);

  // The parsed assay synthesizes identically.
  const Schedule a =
      list_schedule(original.graph, original.binding,
                    original.scheduler_options);
  const Schedule b =
      list_schedule(parsed.graph, parsed.binding, parsed.scheduler_options);
  EXPECT_DOUBLE_EQ(a.makespan_s(), b.makespan_s());
  EXPECT_EQ(a.peak_concurrent_cells(), b.peak_concurrent_cells());
}

TEST(AssayFormatTest, CommentsAndBlankLinesIgnored) {
  const ModuleLibrary library = ModuleLibrary::standard();
  const std::string text = R"(
# a tiny assay
assay demo

op 0 dispense D1 water   # the input
op 1 mix M1
op 2 output Out
dep 0 1
dep 1 2
bind 1 mixer-2x2
end
)";
  const AssayCase assay = assay_from_string(text, library);
  EXPECT_EQ(assay.graph.operation_count(), 3);
  EXPECT_EQ(assay.binding.at(1).name, "mixer-2x2");
}

TEST(AssayFormatTest, ErrorsCarryLineNumbers) {
  const ModuleLibrary library = ModuleLibrary::standard();
  try {
    assay_from_string("assay x\nop 0 warp D1\nend\n", library);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("unknown operation type"),
              std::string::npos);
  }
}

TEST(AssayFormatTest, RejectsBadInputs) {
  const ModuleLibrary lib = ModuleLibrary::standard();
  // Missing header.
  EXPECT_THROW(assay_from_string("op 0 mix M\nend\n", lib), ParseError);
  // Missing end.
  EXPECT_THROW(assay_from_string("assay x\nop 0 mix M\n", lib), ParseError);
  // Sparse ids.
  EXPECT_THROW(assay_from_string("assay x\nop 1 mix M\nend\n", lib),
               ParseError);
  // Duplicate ids.
  EXPECT_THROW(
      assay_from_string("assay x\nop 0 mix M\nop 0 mix N\nend\n", lib),
      ParseError);
  // Unknown module.
  EXPECT_THROW(assay_from_string(
                   "assay x\nop 0 mix M\nbind 0 warp-drive\nend\n", lib),
               ParseError);
  // Dangling dependency.
  EXPECT_THROW(
      assay_from_string("assay x\nop 0 mix M\ndep 0 7\nend\n", lib),
      ParseError);
  // Cycle.
  EXPECT_THROW(
      assay_from_string(
          "assay x\nop 0 mix A\nop 1 mix B\ndep 0 1\ndep 1 0\nend\n", lib),
      ParseError);
  // Bad integer.
  EXPECT_THROW(assay_from_string("assay x\nop zero mix M\nend\n", lib),
               ParseError);
}

TEST(AssayFormatTest, PlacementRoundTrip) {
  const AssayCase assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement original = place_greedy(schedule, 20, 20);
  const std::string text = placement_to_string(original);

  Placement restored(schedule, 20, 20);
  apply_placement_from_string(text, restored);
  for (int i = 0; i < original.module_count(); ++i) {
    EXPECT_EQ(restored.module(i).anchor, original.module(i).anchor);
    EXPECT_EQ(restored.module(i).rotated, original.module(i).rotated);
  }
  EXPECT_EQ(restored.bounding_box(), original.bounding_box());
}

TEST(AssayFormatTest, PlacementRejectsMismatchedCanvas) {
  const AssayCase assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const Placement original = place_greedy(schedule, 20, 20);
  Placement other(schedule, 24, 24);
  EXPECT_THROW(
      apply_placement_from_string(placement_to_string(original), other),
      ParseError);
}

TEST(AssayFormatTest, PlacementRejectsBadIndex) {
  const AssayCase assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  Placement placement(schedule, 20, 20);
  EXPECT_THROW(apply_placement_from_string(
                   "placement 20 20\nplace 99 0 0 0\nend\n", placement),
               ParseError);
}

// --- canonical form + fingerprint (the service's cache key) -----------

/// Two dispenses fanning out to two mixes that join at an output, with
/// the dependency edges inserted in a caller-chosen order. Fan-out is the
/// point: an operation with several successors enumerates them in
/// insertion order, so the two variants are structurally identical assays
/// whose graphs (and serializations) enumerate differently.
AssayCase branching_assay(bool reversed) {
  SequencingGraph graph("branching");
  const OperationId d1 =
      graph.add_operation(OperationType::kDispense, "D1", "sample");
  const OperationId d2 =
      graph.add_operation(OperationType::kDispense, "D2", "buffer");
  const OperationId m1 = graph.add_operation(OperationType::kMix, "M1");
  const OperationId m2 = graph.add_operation(OperationType::kMix, "M2");
  const OperationId out =
      graph.add_operation(OperationType::kOutput, "Out");
  std::vector<std::pair<OperationId, OperationId>> edges = {
      {d1, m1}, {d1, m2}, {d2, m1}, {d2, m2}, {m1, out}, {m2, out}};
  if (reversed) std::reverse(edges.begin(), edges.end());
  for (const auto& [from, to] : edges) graph.add_dependency(from, to);
  AssayCase assay;
  assay.name = "branching";
  assay.graph = std::move(graph);
  return assay;
}

TEST(AssayFormatTest, CanonicalTextIgnoresInsertionOrder) {
  const AssayCase a = branching_assay(/*reversed=*/false);
  const AssayCase b = branching_assay(/*reversed=*/true);
  // The graphs really do enumerate differently...
  EXPECT_NE(a.graph.successors(0), b.graph.successors(0));
  // ...which is exactly what the canonical form must erase.
  EXPECT_EQ(canonical_assay_text(a), canonical_assay_text(b));
  EXPECT_EQ(assay_fingerprint(a), assay_fingerprint(b));
}

TEST(AssayFormatTest, CanonicalTextSurvivesSerializationRoundTrip) {
  const ModuleLibrary library = ModuleLibrary::standard();
  const AssayCase original = pcr_mixing_assay();
  const AssayCase parsed =
      assay_from_string(assay_to_string(original), library);
  EXPECT_EQ(assay_fingerprint(original), assay_fingerprint(parsed));
}

TEST(AssayFormatTest, FingerprintSeesEveryStructuralField) {
  const AssayCase base = pcr_mixing_assay();
  const std::uint64_t fp = assay_fingerprint(base);

  AssayCase renamed = base;
  renamed.name = "pcr-variant";
  EXPECT_NE(assay_fingerprint(renamed), fp);

  AssayCase rebound = base;
  ASSERT_FALSE(rebound.binding.empty());
  rebound.binding.begin()->second.duration_s += 1.0;
  EXPECT_NE(assay_fingerprint(rebound), fp);

  AssayCase constrained = base;
  constrained.scheduler_options.constraints.max_concurrent_modules = 3;
  EXPECT_NE(assay_fingerprint(constrained), fp);

  AssayCase no_storage = base;
  no_storage.scheduler_options.insert_storage = false;
  EXPECT_NE(assay_fingerprint(no_storage), fp);

  AssayCase limited = base;
  limited.scheduler_options.constraints
      .max_concurrent_by_kind[ModuleKind::kMixer] = 1;
  EXPECT_NE(assay_fingerprint(limited), fp);
}

}  // namespace
}  // namespace dmfb
