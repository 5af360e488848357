// The traced run: one workload call with its time split over the repo's
// layers, measured from the benchmark's own code around the calls into each
// module's public functions.
//
//   tta    Cluster::successors / Cluster::reduce (model and reductions)
//   store  hash, recent cache and state map (support/)
//   mc     the engines' level loop: busy, idle, barrier tail
//   bmc    StarIr build, k-induction, reachability-diameter sweep
//   sat    the incremental solver's queries (kind.depth spans)
//   obs    the tracing itself
#pragma once

#include <string>
#include <vector>

#include "tta/cluster.hpp"
#include "workloads.hpp"

namespace ttbench {

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

struct TracedResult {
  Outcome outcome;
  double wall_s = 0.0;  ///< time to verdict of the traced call
  /// The per-layer metrics of this call (all but the sample-pass ones and
  /// obs.trace_overhead); metrics of layers the workload does not reach
  /// are absent and reported as 0.
  std::vector<Metric> metrics;
  /// A fixed, schedule-independent sample of the states the engine
  /// expanded (lowest hashes first); empty for the proof engine.
  std::vector<tt::tta::Cluster::State> sample;
};

/// Every per-layer metric a traced run reports, with its unit, in output
/// order (the names BENCHMARK.json lists under per_layer).
[[nodiscard]] const std::vector<Metric>& layer_metric_names();

/// Runs `w` on `cfg` with obs tracing on: the explicit workloads through a
/// timing adapter around tta::Cluster handed to the same mc entry points
/// core::verify uses, the proof workload through tta::StarIr and
/// bmc::check_invariant_kind. Writes the Chrome trace to `chrome_out`
/// unless it is empty.
[[nodiscard]] TracedResult traced_call(const Workload& w, const tt::tta::ClusterConfig& cfg,
                                       const std::string& chrome_out);

/// The untimed-pass and microbenchmark metrics over `sample`:
/// tta.distinct_per_emitted, tta.reduce_ns and store.intern_ns.
[[nodiscard]] std::vector<Metric> sample_metrics(
    const Workload& w, const tt::tta::ClusterConfig& cfg,
    const std::vector<tt::tta::Cluster::State>& sample);

}  // namespace ttbench
