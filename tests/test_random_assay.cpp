// Tests for the synthetic assay generator (assay/random_assay.h).
#include "assay/random_assay.h"

#include <gtest/gtest.h>

#include "assay/scheduler.h"

namespace dmfb {
namespace {

TEST(RandomAssayTest, DeterministicForSameSeed) {
  const auto lib = ModuleLibrary::standard();
  RandomAssayParams params;
  params.mix_operations = 10;
  Rng rng_a(123);
  Rng rng_b(123);
  const auto a = random_assay(params, lib, rng_a);
  const auto b = random_assay(params, lib, rng_b);
  EXPECT_EQ(a.graph.operation_count(), b.graph.operation_count());
  ASSERT_EQ(a.binding.size(), b.binding.size());
  for (auto it_a = a.binding.begin(), it_b = b.binding.begin();
       it_a != a.binding.end(); ++it_a, ++it_b) {
    EXPECT_EQ(it_a->first, it_b->first);
    EXPECT_EQ(it_a->second.name, it_b->second.name);
  }
}

TEST(RandomAssayTest, RequestedMixCount) {
  const auto lib = ModuleLibrary::standard();
  for (int mixes : {1, 4, 12, 25}) {
    RandomAssayParams params;
    params.mix_operations = mixes;
    Rng rng(7);
    const auto assay = random_assay(params, lib, rng);
    int counted = 0;
    for (const auto& op : assay.graph.operations()) {
      if (op.type == OperationType::kMix) ++counted;
    }
    EXPECT_EQ(counted, mixes);
  }
}

TEST(RandomAssayTest, GraphsAreAlwaysValid) {
  const auto lib = ModuleLibrary::standard();
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    RandomAssayParams params;
    params.mix_operations = 2 + static_cast<int>(rng.next_below(15));
    params.max_layer_width = 1 + static_cast<int>(rng.next_below(5));
    params.detect_fraction = rng.next_double() * 0.5;
    const auto assay = random_assay(params, lib, rng);
    EXPECT_TRUE(assay.graph.is_acyclic());
    EXPECT_TRUE(validate_binding(assay.graph, assay.binding).empty());
    // Mixes have exactly two inputs (droplet-pair mixing).
    for (const auto& op : assay.graph.operations()) {
      if (op.type == OperationType::kMix) {
        EXPECT_EQ(assay.graph.predecessors(op.id).size(), 2u);
      }
      if (op.type == OperationType::kOutput) {
        EXPECT_TRUE(assay.graph.successors(op.id).empty());
      }
    }
    // Every sink is an output (possibly behind a detect).
    for (const auto id : assay.graph.sinks()) {
      EXPECT_EQ(assay.graph.operation(id).type, OperationType::kOutput);
    }
  }
}

TEST(RandomAssayTest, SynthesizesEndToEnd) {
  const auto lib = ModuleLibrary::standard();
  Rng rng(5);
  RandomAssayParams params;
  params.mix_operations = 9;
  const auto assay = random_assay(params, lib, rng);
  const Schedule schedule =
      list_schedule(assay.graph, assay.binding, assay.scheduler_options);
  EXPECT_TRUE(schedule.validate_against(assay.graph).empty());
  EXPECT_GT(schedule.makespan_s(), 0.0);
}

TEST(RandomAssayTest, RejectsBadParams) {
  const auto lib = ModuleLibrary::standard();
  Rng rng(1);
  RandomAssayParams bad;
  bad.mix_operations = 0;
  EXPECT_THROW(random_assay(bad, lib, rng), std::invalid_argument);
  bad.mix_operations = 5;
  bad.max_layer_width = 0;
  EXPECT_THROW(random_assay(bad, lib, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dmfb
