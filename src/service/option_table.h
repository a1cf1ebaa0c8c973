// option_table.h — the one declaration of every PipelineOptions field:
// its wire key, its role in the compile-cache key and its valid range,
// plus the one rule that spans fields (the anneal work bound).
// parse_pipeline_options and pipeline_options_to_json (server.cpp) and
// options_fingerprint (compile_cache.cpp) walk it and name no field
// themselves; tests/test_service.cpp checks that it lists every field of
// every option struct exactly once. Fields are chains of member pointers,
// so a walk compiles to the straight-line code of a hand-written list.
#pragma once

#include <cmath>
#include <limits>
#include <stdexcept>

#include "assay/pipeline.h"

namespace dmfb::option_table {

/// What a field means to the compile cache. In a record (below), a field
/// takes the greater of its own role and the record's.
enum class Role {
  kIdentity,       ///< changes the result: part of the cache key
  kFaultIdentity,  ///< part of the key iff fault_plan is non-empty
  kExecution,      ///< where or how fast a compile runs, not what it yields
  kWarmStart,      ///< a warm-start input, which the cache itself supplies
  kOverridden,     ///< the pipeline overwrites it from another field
};

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Every number under a wire key lies in [lo, hi], or in (lo, hi) when
/// `open`; NaN in neither. The default admits any finite number.
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool open = true;
  bool admits(double v) const {
    return open ? lo < v && v < hi : lo <= v && v <= hi;
  }
};
inline constexpr Range kCount{0, kInf, false};

/// Largest canvas or chip side on the wire. The paper's arrays are tens
/// of electrodes a side and no wire caller in this repository asks for
/// more than 32. A routing search's states can grow to
/// (4 (W + H) + 1) W H entries of 16 bytes, 269 MB at 128; the bound
/// keeps each request's memory small, not just allocatable.
inline constexpr int kMaxSide = 128;

/// A role, plus a wire key and range iff OnWire (a type-level flag, so
/// walkers compile wire code only for fields that have a wire form).
template <Role R, bool OnWire>
struct Entry {
  static constexpr Role role = R;
  static constexpr bool on_wire = OnWire;
  const char* key = nullptr;
  Range range{};
};
template <Role R>
using Wire = Entry<R, true>;
template <Role R>
using Off = Entry<R, false>;

/// A field, as the chain of members that reaches it from its record.
template <auto... Members>
struct Field {
  static auto& of(auto& record) { return (record .* ... .* Members); }
};
template <auto... Members>
inline constexpr Field<Members...> at{};

// Each table calls visit(entry, field...). On the wire, the fields make
// up one key's value ([width,height] when two); off it, each field stands
// alone. A field whose type has a table of its own is a record: a nested
// object on the wire.

/// "annealing" on the wire; `ltsa` reuses it off the wire. The ranges
/// keep a schedule finite, as check_schedule does.
template <class Visit>
void for_each_option(std::type_identity<AnnealingSchedule>, Visit&& visit) {
  using A = AnnealingSchedule;
  using enum Role;
  visit(Wire<kIdentity>{"T0"}, at<&A::initial_temperature>);
  visit(Wire<kIdentity>{"alpha", {0, 1}}, at<&A::cooling_rate>);
  visit(Wire<kIdentity>{"iterations_per_module", kCount},
        at<&A::iterations_per_module>);
  visit(Wire<kIdentity>{"min_temperature", {0, kInf}},
        at<&A::min_temperature>);
}

template <class Visit>
void for_each_option(std::type_identity<PipelineOptions>, Visit&& visit) {
  using enum Role;
  using O = PipelineOptions;
  using C = PlacerContext;
  using R = RecoveryOptions;
  using W = CostWeights;
  constexpr auto c = &O::placer_context;
  constexpr auto r = &O::recovery;
  constexpr auto w = &C::weights;

  // The wire surface, in emission order.
  visit(Wire<kIdentity>{"seed"}, at<&O::seed>);
  visit(Wire<kIdentity>{"placer"}, at<&O::placer>);
  visit(Wire<kIdentity>{"router"}, at<&O::router>);
  visit(Wire<kIdentity>{"canvas", {1, kMaxSide, false}},
        at<c, &C::canvas_width>, at<c, &C::canvas_height>);
  visit(Wire<kIdentity>{"chip", {0, kMaxSide, false}}, at<&O::chip_width>,
        at<&O::chip_height>);
  visit(Wire<kIdentity>{"defects", {0, kMaxSide - 1, false}},
        at<c, &C::defects>);
  visit(Wire<kIdentity>{"gamma"}, at<c, w, &W::gamma>);
  visit(Wire<kIdentity>{"beta"}, at<c, w, &W::beta>);
  visit(Wire<kIdentity>{"annealing"}, at<c, &C::annealing>);
  visit(Wire<kIdentity>{"feedback_rounds", kCount}, at<&O::feedback_rounds>);
  visit(Wire<kIdentity>{"deadline_s"}, at<&O::deadline_s>);
  visit(Wire<kIdentity>{"plan_droplet_routes"}, at<&O::plan_droplet_routes>);
  visit(Wire<kIdentity>{"simulate"}, at<&O::simulate>);
  visit(Wire<kIdentity>{"fault_plan"}, at<&O::fault_plan>);
  visit(Wire<kExecution>{"recovery_deadline_s"}, at<r, &R::deadline_s>);
  visit(Wire<kFaultIdentity>{"recovery_max_cycles", kCount},
        at<r, &R::max_cycles>);
  visit(Wire<kIdentity>{"evaluate_fault_tolerance"},
        at<&O::evaluate_fault_tolerance>);
  visit(Wire<kIdentity>{"binding_policy"}, at<&O::binding_policy>);

  // Off the wire. AssayCase runs take the case's scheduler options, which
  // the canonical assay text covers; graph and binding runs take these.
  using L = ResourceConstraints;
  using M = ModuleSpec;
  constexpr auto s = &O::scheduler;
  constexpr auto l = &SchedulerOptions::constraints;
  constexpr auto spec = &SchedulerOptions::storage_spec;
  visit(Off<kIdentity>{}, at<s, l, &L::max_concurrent_modules>,
        at<s, l, &L::max_concurrent_by_kind>, at<s, l, &L::dispense_duration_s>,
        at<s, l, &L::max_concurrent_dispenses>,
        at<s, &SchedulerOptions::insert_storage>, at<s, spec, &M::name>,
        at<s, spec, &M::kind>, at<s, spec, &M::functional_width>,
        at<s, spec, &M::functional_height>, at<s, spec, &M::duration_s>);
  // The rest of the placer context. The master seed overrides its seed;
  // the pipeline fills route_links from the schedule.
  using Move = MoveOptions;
  using Opt = OptimalPlacerOptions;
  constexpr auto m = &C::moves;
  constexpr auto opt = &C::optimal;
  visit(Off<kIdentity>{}, at<c, m, &Move::single_move_probability>,
        at<c, m, &Move::rotate_probability>,
        at<c, m, &Move::use_controlling_window>, at<c, m, &Move::min_window>,
        at<c, w, &W::alpha>, at<c, w, &W::lambda_overlap>,
        at<c, w, &W::lambda_defect>,
        at<c, &C::fti_options, &FtiOptions::allow_rotation>,
        at<c, &C::two_stage_beta>, at<c, &C::ltsa>,
        at<c, opt, &Opt::max_modules>, at<c, opt, &Opt::allow_rotation>,
        at<c, opt, &Opt::max_nodes>, at<c, &C::kamer_policy>,
        at<c, &C::allow_rotation>);
  visit(Off<kWarmStart>{}, at<c, &C::route_links>,
        at<c, &C::initial_placement>);
  visit(Off<kOverridden>{}, at<c, &C::seed>);
  // Routing: the master seed overrides its seed.
  using P = RoutePlannerOptions;
  constexpr auto rt = &O::routing;
  visit(Off<kIdentity>{}, at<rt, &P::step_horizon>,
        at<rt, &P::separation_cells>, at<rt, &P::negotiation_rounds>,
        at<rt, &P::present_congestion_weight>,
        at<rt, &P::history_congestion_weight>, at<rt, &P::max_restarts>);
  visit(Off<kOverridden>{}, at<rt, &P::seed>);
  // Simulation and recovery. The pipeline overrides recovery.sim with
  // `simulation` and the replace rung's context with placer_context;
  // recovery.deadline_s (above) is a host-wall budget.
  using Sim = SimOptions;
  visit(Off<kIdentity>{}, at<&O::place>,
        at<&O::simulation, &Sim::droplet_speed_cells_per_s>,
        at<&O::simulation, &Sim::verify_routing>,
        at<&O::simulation, &Sim::record_events>);
  visit(Off<kFaultIdentity>{}, at<r, &R::fti, &FtiOptions::allow_rotation>,
        at<r, &R::policy>, at<r, &R::enable_reconfigure>,
        at<r, &R::enable_reroute>, at<r, &R::enable_replace>,
        at<r, &R::replace_placer>);
  visit(Off<kOverridden>{}, at<r, &R::sim>, at<r, &R::replace_context>);
  visit(Off<kWarmStart>{}, at<&O::initial_placement>, at<&O::warm_links>);
  visit(Off<kExecution>{}, at<&O::threads>, at<&O::observer>);
}

/// Most anneal work a wire request may ask for: (feedback_rounds + 1) x
/// temperature steps x iterations per module, since every round
/// re-anneals (and with gamma 0 the rounds never reach a fixed point).
/// The paper's schedule (T0 = 1e4, alpha = 0.9, Na = 400, stop at 0.05)
/// is 116 x 400 = 46,400 per round.
inline constexpr double kMaxAnnealWork = 4e6;

/// The one rule across fields, which parse_pipeline_options checks after
/// the ranges (they keep a wire schedule finite). Throws
/// std::invalid_argument.
inline void check_anneal_work(const PipelineOptions& options) {
  const AnnealingSchedule& s = options.placer_context.annealing;
  const double steps =
      s.initial_temperature > s.min_temperature
          ? std::ceil(std::log(s.min_temperature / s.initial_temperature) /
                      std::log(s.cooling_rate))
          : 0.0;
  if (!((options.feedback_rounds + 1.0) * steps * s.iterations_per_module <=
        kMaxAnnealWork)) {
    throw std::invalid_argument(
        "annealing exceeds the per-request work limit ((feedback_rounds + "
        "1) x temperature steps x iterations_per_module > 4e6)");
  }
}

/// A type with a table of its own.
template <class T>
concept Record = requires {
  for_each_option(std::type_identity<T>{}, [](auto&&...) {});
};

}  // namespace dmfb::option_table
