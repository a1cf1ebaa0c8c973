// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--ledger <dir>]
//
// Workloads (one per process; each file says why it was chosen):
//   ft_compile     the paper's fault-tolerant compile (sa, beta = 30)
//   route_compile  routing-hard compiles (greedy placer, negotiated router)
//   recovery       mid-run fault plans through OnlineRecoveryEngine::run
//   service_mix    dmfb_serve traffic through CompileServer::serve
//
// --trace 0 sets up the workload at least nine times and for at least a
// second (setup_s is the median), then measures for --seconds and prints
// the end-to-end metrics. --trace 1 sets up once and measures for half of
// --seconds untraced and half with spans around every call into the
// program, and prints the per-layer metrics plus a layer-share report.
//
// End-to-end times read as time on a host at the nominal speed: each
// item's fastest repeat, scaled by how fast the host ran a fixed kernel
// of the benchmark's own during the same run (SpeedProbe in harness.h).
// The report lines above the result give the unscaled figures too.
//
// "attempted" counts the distinct inputs of the workload's fixed pass and
// "failed" those of them that failed a check on any run. Both are
// functions of the seed, so every run with a seed reports the same pair
// however many repeats the host's speed allowed.
// The last line of standard output is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// Determinism gate: every repeat of an item within the run must reproduce
// the first one's output digest, and with --ledger the quality metrics
// and per-layer counts must equal those an earlier run of the same binary
// recorded for the same workload and seed. Either failure sets
// "correct": false and exits 1.
//
// Validate later speed claims on a second seed as well, e.g. --seed 7 and
// --seed 1009.
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

// Set-up repeats: at least kSetupRepeats and kSetupSeconds, at most
// kSetupMaxRepeats, so a cheap set-up takes its median over a spread of
// the host's moments rather than over a few milliseconds of them.
constexpr std::size_t kSetupRepeats = 9;
constexpr std::size_t kSetupMaxRepeats = 101;
constexpr double kSetupSeconds = 1.0;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload ft_compile|route_compile|"
               "recovery|service_mix --seed N --seconds S --trace 0|1 "
               "[--ledger DIR]\n";
  std::exit(2);
}

/// The run's settings, from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string ledger;  ///< determinism ledger directory; empty = none
};

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--ledger") {
        options.ledger = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!have_workload || !have_seed) usage("--workload and --seed are required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "ft_compile") return make_ft_compile();
  if (name == "route_compile") return make_route_compile();
  if (name == "recovery") return make_recovery();
  if (name == "service_mix") return make_service_mix();
  usage("unknown workload " + name);
}

/// The deterministic part of a run: quality over the first pass's scored
/// items and the per-layer counts. Must repeat exactly for a given binary
/// and seed.
Metrics deterministic_metrics(const Phase& phase) {
  double n = 0, area = 0, fti = 0, makespan = 0, routed = 0, completed = 0,
         lost = 0;
  std::map<std::string, double> counts;
  for (const Item& item : phase.first_pass) {
    for (const auto& [name, value] : item.counts) counts[name] += value;
    const Quality& q = item.quality;
    if (!q.scored) continue;
    ++n;
    area += q.area_cells;
    fti += q.fti;
    makespan += q.transport_makespan_s;
    routed += q.routed ? 1 : 0;
    completed += q.completed ? 1 : 0;
    lost += q.time_lost_s;
  }
  Metrics m;
  m["area_cells_mean"] = {area / n, "cells"};
  m["fti_mean"] = {fti / n, "ratio"};
  m["transport_makespan_s_mean"] = {makespan / n, "s"};
  m["routed_share"] = {routed / n, "ratio"};
  m["completed_share"] = {completed / n, "ratio"};
  m["time_lost_s_mean"] = {lost / n, "s"};
  for (const char* name :
       {"core.proposals", "sim.route_steps", "sim.negotiation_rounds",
        "sim.recovery.faults_fired", "sim.recovery.cycles",
        "sim.recovery.reconfigure", "sim.recovery.reroute",
        "sim.recovery.replace", "service.exact_hits", "service.warm_hits",
        "service.misses"}) {
    m[name] = {counts[name], "count"};
  }
  m["io.request_bytes"] = {counts["io.request_bytes"], "bytes"};
  m["core.accept_ratio"] = {
      counts["core.proposals"] > 0
          ? counts["core.accepted"] / counts["core.proposals"]
          : 0.0,
      "ratio"};
  return m;
}

std::string format_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ",";
    out += "\"" + name + "\":{\"value\":" + format_number(metric.value) +
           ",\"unit\":\"" + metric.unit + "\"}";
  }
  return out + "}";
}

/// Compares `record` with the ledger entry for this workload and seed,
/// writing it when absent. Returns the names that differ.
std::vector<std::string> check_ledger(const std::string& dir,
                                      const Options& run,
                                      const Metrics& record) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const fs::path path =
      fs::path(dir) / (run.workload + "-" + std::to_string(run.seed) + ".txt");
  std::map<std::string, std::string> stored;
  if (std::ifstream in(path); in) {
    std::string name, value;
    while (in >> name >> value) stored[name] = value;
  }
  std::vector<std::string> differ;
  if (stored.empty()) {
    std::ofstream out(path);
    for (const auto& [name, metric] : record) {
      out << name << ' ' << format_number(metric.value) << '\n';
    }
    return differ;
  }
  for (const auto& [name, metric] : record) {
    if (stored[name] != format_number(metric.value)) differ.push_back(name);
  }
  return differ;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Self-time share of each layer in the traced phase.
void print_layer_shares(const Options& run, const Phase& traced,
                        double overhead) {
  double total = 0.0;
  for (const auto& [layer, seconds] : traced.layer_seconds) total += seconds;
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [layer, seconds] : traced.layer_seconds) {
    rows.emplace_back(seconds, layer);
  }
  std::sort(rows.rbegin(), rows.rend());
  std::cout << "layer shares (" << run.workload << ", self time, "
            << traced.attempted << " traced items):\n";
  for (const auto& [seconds, layer] : rows) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-24s %7.3f%%  %.6f s/item\n",
                  layer.c_str(), total > 0 ? 100.0 * seconds / total : 0.0,
                  seconds / static_cast<double>(traced.attempted));
    std::cout << line;
  }
  for (const std::string& note : traced.notes) {
    std::cout << "  " << note << "\n";
  }
  std::cout << "  trace overhead: x" << overhead << "\n";
}

/// The factor that turns this phase's fastest-of-repeats times into time
/// at the nominal host speed. The fastest of k repeats meets the host at
/// about its 1/(k+1) best moment, so it is matched with that quantile of
/// the probe's samples.
double host_scale(const Phase& phase, std::ostream& report) {
  std::vector<double> repeats;
  for (const std::vector<double>& times : phase.slot_times) {
    repeats.push_back(static_cast<double>(times.size()));
  }
  const double k = median(repeats);
  const double reference = phase.probe.reference_s(1.0 / (k + 1.0));
  report << "host speed: " << phase.probe.size()
         << " reference samples; quantile 1/" << k + 1.0 << " reads "
         << reference * 1e3 << " ms against the nominal "
         << kNominalReferenceS * 1e3 << " ms\n";
  return kNominalReferenceS / reference;
}

/// End-to-end metrics of an untraced phase. Robust to host contention:
/// each item's time is the fastest of its repeats, and a pass takes the
/// sum of those (or the fastest pass wall when items overlap in time),
/// all scaled to the nominal host speed; set-up time is the median
/// set-up scaled by the probe's median over the set-up.
/// `failed` counts the pass's distinct inputs that failed.
Metrics end_to_end(const Phase& phase, long failed,
                   const Metrics& deterministic,
                   const std::vector<double>& setups,
                   const SpeedProbe& setup_probe, std::ostream& report) {
  const double scale = host_scale(phase, report);
  std::vector<double> item_ms;
  double pass_s = 0.0;
  for (const double seconds : slot_fastest(phase)) {
    item_ms.push_back(seconds * 1e3);
    pass_s += seconds;
  }
  if (!phase.pass_walls.empty()) {
    pass_s = *std::min_element(phase.pass_walls.begin(),
                               phase.pass_walls.end());
  }
  const double n = static_cast<double>(item_ms.size());
  report << "unscaled: items_per_s " << n / pass_s << ", item_ms_p50 "
         << percentile(item_ms, 0.50) << ", item_ms_p90 "
         << percentile(item_ms, 0.90) << ", setup_s " << median(setups)
         << "\n";
  for (double& ms : item_ms) ms *= scale;
  pass_s *= scale;
  Metrics m;
  m["setup_s"] = {median(setups) * kNominalReferenceS /
                      setup_probe.reference_s(0.5),
                  "s"};
  m["items_per_s"] = {n / pass_s, "1/s"};
  m["item_ms_p50"] = {percentile(item_ms, 0.50), "ms"};
  m["item_ms_p90"] = {percentile(item_ms, 0.90), "ms"};
  m["ok_share"] = {(n - static_cast<double>(failed)) / n, "ratio"};
  for (const char* name :
       {"area_cells_mean", "fti_mean", "transport_makespan_s_mean",
        "routed_share", "completed_share", "time_lost_s_mean"}) {
    m[name] = deterministic.at(name);
  }
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  return m;
}

/// Per-layer metrics: span self times per traced item, queue wait from
/// the untraced phase, and the deterministic counts.
Metrics per_layer(const Phase& untraced, const Phase& traced,
                  const Metrics& deterministic) {
  const double n = static_cast<double>(traced.attempted);
  const auto per_item = [&](const char* layer) {
    const auto it = traced.layer_seconds.find(layer);
    return it == traced.layer_seconds.end() ? 0.0 : it->second / n;
  };
  Metrics m;
  for (const char* layer :
       {"assay.bind", "assay.schedule", "core.place", "sim.route",
        "sim.simulate", "sim.recovery.repair", "sim.recovery.resume",
        "io.parse", "service.render"}) {
    m[std::string(layer) + "_s"] = {per_item(layer), "s"};
  }
  m["sim.recovery_s"] = {
      per_item("sim.recovery.repair") + per_item("sim.recovery.resume"), "s"};
  m["service.compile_self_s"] = {per_item("service.compile"), "s"};
  const auto wait = untraced.extra_seconds.find("service.queue_wait");
  m["service.queue_wait_s"] = {
      wait == untraced.extra_seconds.end()
          ? 0.0
          : wait->second / static_cast<double>(untraced.attempted),
      "s"};
  m["harness_s"] = {per_item("harness"), "s"};
  m["trace_overhead"] = {
      (traced.timed_wall_s / n) /
          (untraced.timed_wall_s / static_cast<double>(untraced.attempted)),
      "ratio"};
  for (const auto& [name, metric] : deterministic) {
    if (name.find('.') != std::string::npos) m[name] = metric;
  }
  return m;
}

int run(const Options& options) {
  const Options& run = options;
  std::unique_ptr<Workload> workload = make_workload(run.workload);

  std::vector<double> setups;
  SpeedProbe setup_probe;
  double setup_total = 0.0;
  while (setups.empty() ||
         (!run.trace && setups.size() < kSetupMaxRepeats &&
          (setups.size() < kSetupRepeats || setup_total < kSetupSeconds))) {
    const auto start = Clock::now();
    workload->setup(run.seed);
    setups.push_back(seconds_between(start, Clock::now()));
    setup_total += setups.back();
    setup_probe.sample();
  }

  const double phase_seconds = run.trace ? run.seconds / 2 : run.seconds;
  const Phase untraced = workload->measure(phase_seconds, false);
  const Metrics deterministic = deterministic_metrics(untraced);
  std::vector<const Phase*> phases{&untraced};
  std::optional<Phase> traced;
  if (run.trace) {
    traced = workload->measure(phase_seconds, true);
    phases.push_back(&*traced);
  }

  const long attempted = static_cast<long>(untraced.first_pass.size());
  std::vector<bool> slot_failed(untraced.first_pass.size(), false);
  long unexpected = 0, mismatches = 0;
  for (const Phase* phase : phases) {
    for (std::size_t slot = 0; slot < slot_failed.size(); ++slot) {
      if (phase->slot_failed[slot]) slot_failed[slot] = true;
    }
    unexpected += phase->unexpected_failures;
    mismatches += phase->digest_mismatches;
    for (std::size_t slot = 0; slot < phase->first_pass.size(); ++slot) {
      if (phase->first_pass[slot].digest != untraced.first_pass[slot].digest) {
        ++mismatches;
      }
    }
  }
  const long failed = static_cast<long>(
      std::count(slot_failed.begin(), slot_failed.end(), true));
  std::vector<std::string> ledger_diff;
  if (!options.ledger.empty()) {
    Metrics record = deterministic;
    record["failed"] = {static_cast<double>(failed), "count"};
    ledger_diff = check_ledger(options.ledger, run, record);
  }

  std::cout << "perfbench " << run.workload << " seed " << run.seed << ": "
            << untraced.attempted << " item runs (pass of " << attempted
            << ") in " << untraced.timed_wall_s << " s timed; p50 and p90 over "
            << attempted << " per-item fastest repeats; failed " << failed
            << " of " << attempted << " inputs; setup_s over "
            << setups.size() << " set-ups\n";
  for (const std::string& failure : untraced.failures) {
    std::cout << "failed item, " << failure << "\n";
  }
  if (mismatches > 0) {
    std::cout << "determinism: " << mismatches
              << " repeated items differ from their first run\n";
  }
  for (const std::string& name : ledger_diff) {
    std::cout << "determinism: " << name
              << " differs from an earlier run's ledger entry\n";
  }

  Metrics metrics;
  if (run.trace) {
    metrics = per_layer(untraced, *traced, deterministic);
    print_layer_shares(run, *traced, metrics.at("trace_overhead").value);
  } else {
    metrics = end_to_end(untraced, failed, deterministic, setups, setup_probe,
                         std::cout);
  }

  const bool correct = attempted > 0 && unexpected == 0 && mismatches == 0 &&
                       ledger_diff.empty();
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  // Fixed malloc thresholds. By default glibc moves its mmap threshold as
  // blocks are freed, so whether the router's per-transfer search arrays
  // come from the heap or from fresh, page-faulting mmaps depends on the
  // order of every earlier allocation. That made one route_compile seed
  // 25% slower than another with the same mix of assays. Pinned, an
  // item's time follows its own work.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 3;
  }
}
