// Tests for the polymorphic placer interface and its string-keyed registry
// (core/placer.h): the five built-ins resolve by name and produce feasible
// placements, unknown names fail with the known-name list, and the
// user-facing enums round-trip through text.
#include "core/placer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "assay/assay_library.h"
#include "assay/pipeline.h"

namespace dmfb {
namespace {

Schedule pcr_schedule() {
  static const Schedule schedule =
      SynthesisPipeline().run(pcr_mixing_assay()).schedule;
  return schedule;
}

/// M1..M4 + storage only — small enough for the exact search.
Schedule small_schedule() {
  Schedule reduced;
  const Schedule full = pcr_schedule();
  for (const auto& m : full.modules()) {
    if (m.label == "M1" || m.label == "M2" || m.label == "M3" ||
        m.label == "M4" || m.label == "S(M3)") {
      reduced.add(m);
    }
  }
  return reduced;
}

/// Short annealing runs so the whole suite stays fast.
PlacerContext fast_context() {
  PlacerContext context;
  context.annealing.initial_temperature = 1000.0;
  context.annealing.cooling_rate = 0.8;
  context.annealing.iterations_per_module = 60;
  context.ltsa.iterations_per_module = 60;
  return context;
}

TEST(PlacerRegistryTest, ListsExactlyTheFiveBuiltins) {
  auto names = registered_placers();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // CustomRegistration adds "null-test" process-wide; ignore it whatever
  // the test order.
  names.erase(std::remove(names.begin(), names.end(), "null-test"),
              names.end());
  const std::vector<std::string> expected{"greedy", "kamer", "optimal", "sa",
                                          "two-stage"};
  EXPECT_EQ(names, expected);
}

TEST(PlacerRegistryTest, UnknownNameThrowsWithKnownNames) {
  try {
    make_placer("does-not-exist");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("does-not-exist"), std::string::npos);
    for (const auto& name : registered_placers()) {
      EXPECT_NE(message.find("\"" + name + "\""), std::string::npos)
          << "message should list " << name << ": " << message;
    }
  }
}

TEST(PlacerRegistryTest, NameAccessorMatchesRegistryKey) {
  for (const auto& name : registered_placers()) {
    EXPECT_EQ(make_placer(name)->name(), name);
  }
}

TEST(PlacerRegistryTest, EveryBuiltinPlacesTheSmallInstanceFeasibly) {
  const Schedule schedule = small_schedule();
  const PlacerContext context = fast_context();
  for (const auto& name : registered_placers()) {
    const auto placer = make_placer(name);
    const PlacementOutcome outcome = placer->place(schedule, context);
    EXPECT_TRUE(outcome.placement.feasible()) << name;
    EXPECT_EQ(outcome.placement.overlap_cells(), 0) << name;
    EXPECT_EQ(outcome.placement.module_count(), schedule.module_count())
        << name;
    EXPECT_GT(outcome.cost.area_cells, 0) << name;
  }
}

TEST(PlacerRegistryTest, CustomRegistration) {
  class NullPlacer final : public Placer {
   public:
    std::string name() const override { return "null-test"; }
    PlacementOutcome place(const Schedule& schedule,
                           const PlacerContext& context) const override {
      PlacementOutcome outcome;
      outcome.placement = Placement(schedule, context.canvas_width,
                                    context.canvas_height);
      return outcome;
    }
  };
  auto& registry = PlacerRegistry::global();
  if (!registry.contains("null-test")) {
    registry.register_placer("null-test",
                             [] { return std::make_unique<NullPlacer>(); });
  }
  EXPECT_TRUE(registry.contains("null-test"));
  EXPECT_EQ(make_placer("null-test")->name(), "null-test");
  EXPECT_THROW(
      registry.register_placer("null-test",
                               [] { return std::make_unique<NullPlacer>(); }),
      std::invalid_argument);
}

TEST(PlacerRegistryTest, SaIsDeterministicForSeed) {
  const Schedule schedule = small_schedule();
  PlacerContext context = fast_context();
  context.seed = 42;
  const auto placer = make_placer("sa");
  const auto a = placer->place(schedule, context);
  const auto b = placer->place(schedule, context);
  ASSERT_EQ(a.placement.module_count(), b.placement.module_count());
  for (int i = 0; i < a.placement.module_count(); ++i) {
    EXPECT_EQ(a.placement.module(i).anchor, b.placement.module(i).anchor);
    EXPECT_EQ(a.placement.module(i).rotated, b.placement.module(i).rotated);
  }
}

template <typename Enum>
void expect_round_trip(Enum value) {
  EXPECT_EQ(from_string<Enum>(to_string(value)), value);
  std::stringstream stream;
  stream << value;
  Enum parsed{};
  stream >> parsed;
  EXPECT_EQ(parsed, value);
}

TEST(EnumTextTest, BindingPolicyRoundTrips) {
  for (const BindingPolicy policy :
       {BindingPolicy::kFastest, BindingPolicy::kSmallest,
        BindingPolicy::kRoundRobin}) {
    expect_round_trip(policy);
  }
  EXPECT_THROW(from_string<BindingPolicy>("slowest"), std::invalid_argument);
}

TEST(EnumTextTest, MoveKindRoundTrips) {
  for (const MoveKind kind :
       {MoveKind::kDisplace, MoveKind::kDisplaceRotate, MoveKind::kSwap,
        MoveKind::kSwapRotate}) {
    expect_round_trip(kind);
  }
  EXPECT_THROW(from_string<MoveKind>("teleport"), std::invalid_argument);
}

TEST(PlacerContextTest, DefectObliviousBackendsRejectDefectMaps) {
  const Schedule schedule = small_schedule();
  PlacerContext context = fast_context();
  context.defects.push_back(Point{1, 1});
  EXPECT_THROW(make_placer("kamer")->place(schedule, context),
               std::invalid_argument);
  EXPECT_THROW(make_placer("optimal")->place(schedule, context),
               std::invalid_argument);
  // Defect-aware backends accept the same context.
  const auto outcome = make_placer("greedy")->place(schedule, context);
  EXPECT_TRUE(outcome.placement.feasible());
}

}  // namespace
}  // namespace dmfb
