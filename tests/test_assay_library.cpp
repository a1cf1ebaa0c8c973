// Tests for the benchmark assays (assay/assay_library.h): the PCR case
// must match Fig. 5 + Table 1 of the paper exactly.
#include "assay/assay_library.h"

#include <gtest/gtest.h>

#include "assay/scheduler.h"

namespace dmfb {
namespace {

TEST(PcrGraphTest, MatchesFigure5Structure) {
  const auto g = pcr_mixing_graph();
  // 8 dispenses + 7 mixes + 1 output.
  EXPECT_EQ(g.operation_count(), 16);
  EXPECT_EQ(g.sources().size(), 8u);
  EXPECT_EQ(g.sinks().size(), 1u);
  EXPECT_TRUE(g.is_acyclic());
  // Binary tree depth: dispense -> leaf mix -> mid mix -> root mix -> out.
  EXPECT_EQ(g.longest_path_length(), 5);
  EXPECT_EQ(g.reconfigurable_operations().size(), 7u);
}

TEST(PcrGraphTest, MixTreeDependencies) {
  const auto g = pcr_mixing_graph();
  // Find labelled operations.
  auto by_label = [&](const std::string& label) {
    for (const auto& op : g.operations()) {
      if (op.label == label) return op.id;
    }
    return OperationId{-1};
  };
  const auto m5 = by_label("M5");
  const auto m7 = by_label("M7");
  ASSERT_GE(m5, 0);
  ASSERT_GE(m7, 0);
  // M5's predecessors are M1 and M2.
  std::vector<std::string> pred_labels;
  for (const auto pred : g.predecessors(m5)) {
    pred_labels.push_back(g.operation(pred).label);
  }
  EXPECT_EQ(pred_labels, (std::vector<std::string>{"M1", "M2"}));
  // M7 is the root: successors contain only the output.
  ASSERT_EQ(g.successors(m7).size(), 1u);
  EXPECT_EQ(g.operation(g.successors(m7).front()).type,
            OperationType::kOutput);
}

TEST(PcrBindingTest, MatchesTable1) {
  const auto g = pcr_mixing_graph();
  const auto binding = pcr_table1_binding(g);
  ASSERT_EQ(binding.size(), 7u);

  // Expected (footprint w x h, duration) for M1..M7 per Table 1.
  struct Row {
    const char* label;
    int w, h;
    double duration;
  };
  const Row rows[] = {
      {"M1", 4, 4, 10.0}, {"M2", 3, 6, 5.0}, {"M3", 4, 5, 6.0},
      {"M4", 3, 6, 5.0},  {"M5", 3, 6, 5.0}, {"M6", 4, 4, 10.0},
      {"M7", 4, 6, 3.0},
  };
  for (const auto& row : rows) {
    OperationId id = -1;
    for (const auto& op : g.operations()) {
      if (op.label == row.label) id = op.id;
    }
    ASSERT_GE(id, 0) << row.label;
    const auto it = binding.find(id);
    ASSERT_NE(it, binding.end()) << row.label;
    EXPECT_EQ(it->second.footprint_width(), row.w) << row.label;
    EXPECT_EQ(it->second.footprint_height(), row.h) << row.label;
    EXPECT_DOUBLE_EQ(it->second.duration_s, row.duration) << row.label;
  }
}

TEST(PcrAssayTest, SynthesizesWithTwoConcurrentMixers) {
  const auto assay = pcr_mixing_assay();
  EXPECT_EQ(assay.scheduler_options.constraints.max_concurrent_modules, 2);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  EXPECT_TRUE(schedule.validate_against(assay.graph).empty());
  EXPECT_GT(schedule.makespan_s(), 0.0);
  // Peak concurrent area must stay below the paper's 63-cell chip.
  EXPECT_LE(schedule.peak_concurrent_cells(), 63);
}

TEST(MultiplexedAssayTest, StructureScalesWithSamplesAndReagents) {
  const auto lib = ModuleLibrary::standard();
  for (int samples : {1, 2, 3}) {
    for (int reagents : {1, 2}) {
      const auto assay = multiplexed_diagnostics_assay(samples, reagents, lib);
      const int pairs = samples * reagents;
      // 2 dispenses + mix + detect + output per pair.
      EXPECT_EQ(assay.graph.operation_count(), pairs * 5);
      EXPECT_EQ(static_cast<int>(assay.binding.size()), pairs * 2);
      EXPECT_TRUE(assay.graph.is_acyclic());
      const Schedule schedule =
          list_schedule(assay.graph, assay.binding, assay.scheduler_options);
      EXPECT_TRUE(schedule.validate_against(assay.graph).empty());
    }
  }
}

TEST(MultiplexedAssayTest, RejectsBadCounts) {
  const auto lib = ModuleLibrary::standard();
  EXPECT_THROW(multiplexed_diagnostics_assay(0, 2, lib),
               std::invalid_argument);
  EXPECT_THROW(multiplexed_diagnostics_assay(2, -1, lib),
               std::invalid_argument);
}

TEST(ProteinDilutionTest, TreeGrowsWithLevels) {
  const auto lib = ModuleLibrary::standard();
  const auto one = protein_dilution_assay(1, lib);
  const auto three = protein_dilution_assay(3, lib);
  EXPECT_GT(three.graph.operation_count(), one.graph.operation_count());
  EXPECT_TRUE(three.graph.is_acyclic());
  // Dilutor count: 1 + 2 + 4 = 7 for three levels.
  int dilutors = 0;
  for (const auto& op : three.graph.operations()) {
    if (op.type == OperationType::kDilute) ++dilutors;
  }
  EXPECT_EQ(dilutors, 7);
  const Schedule schedule =
      list_schedule(three.graph, three.binding, three.scheduler_options);
  EXPECT_TRUE(schedule.validate_against(three.graph).empty());
}

TEST(ProteinDilutionTest, RejectsBadLevels) {
  const auto lib = ModuleLibrary::standard();
  EXPECT_THROW(protein_dilution_assay(0, lib), std::invalid_argument);
  EXPECT_THROW(protein_dilution_assay(7, lib), std::invalid_argument);
}

TEST(SynthesisTest, AutoBindingFlow) {
  const auto lib = ModuleLibrary::standard();
  const auto graph = pcr_mixing_graph();
  const Binding binding = bind_operations(graph, lib, BindingPolicy::kFastest);
  const Schedule schedule = list_schedule(graph, binding);
  EXPECT_EQ(binding.size(), 7u);
  EXPECT_TRUE(schedule.validate_against(graph).empty());
  EXPECT_GT(schedule.peak_concurrent_cells(), 0);
}

TEST(SynthesisTest, GanttRendersEveryModule) {
  const auto assay = pcr_mixing_assay();
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  const std::string gantt = render_gantt(schedule);
  for (const auto& m : schedule.modules()) {
    EXPECT_NE(gantt.find(m.label), std::string::npos) << m.label;
  }
  EXPECT_NE(gantt.find('#'), std::string::npos);
}

}  // namespace
}  // namespace dmfb
