// The benchmark's workloads and the exact outcomes each one must reproduce.
//
// A workload is one Fig. 6 lemma cell (fault degree 6, feedback on,
// init_window = hub_init_window = n) run through one engine and reduction.
// The workload seed picks only the faulty node id (seed mod n; 0 is the
// paper's cell); the model checker receives the resulting config and never
// sees the seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "mc/engine.hpp"
#include "tta/config.hpp"

namespace ttbench {

enum class Kind {
  kSafetyPar,    ///< Lemma 1 on the parallel frontier BFS
  kLivenessPar,  ///< Lemma 2 on the parallel OWCTY engine
  kKInduction,   ///< Lemma 1 on the k-induction proof engine
};

struct Workload {
  const char* name;
  Kind kind;
  int n;  ///< cluster size of the full workload (the self-test runs n = 3)
  tt::mc::ReductionKind reduction;
  int threads;  ///< 1 for the single-threaded proof engine
};

/// The four workloads, in BENCHMARK.json order.
[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr when `name` names no workload.
[[nodiscard]] const Workload* find_workload(const std::string& name);

[[nodiscard]] tt::core::Lemma lemma_of(Kind k);
[[nodiscard]] tt::mc::EngineKind engine_of(Kind k);
/// The fig6 node-fault cell of size `n` with node `faulty` Byzantine.
[[nodiscard]] tt::tta::ClusterConfig cell_config(int n, int faulty);
[[nodiscard]] tt::core::VerifyOptions verify_options(const Workload& w);

/// What one call must reproduce. Pinned from sequential-engine runs
/// (`ttbench pin`). Transitions are reported, never pinned: counting
/// distinct edges instead of emitted combinations must not break the
/// benchmark. For the proof engine only `holds` is gated (the seq oracle's
/// verdict); its depth label is the engine's own and may change.
struct Expected {
  const char* workload;
  int n;
  int faulty;
  bool holds;
  std::size_t states;
  int depth;
  std::vector<std::size_t> frontier;
};

/// nullptr when no outcome is pinned for this (workload, n, faulty) cell.
[[nodiscard]] const Expected* find_expected(const std::string& workload, int n, int faulty);

/// The outcome of one call, as far as the gate looks at it.
struct Outcome {
  bool holds = false;
  bool exhausted = false;
  std::size_t states = 0;
  int depth = 0;
  std::size_t transitions = 0;
  std::vector<std::size_t> frontier;
};

/// Empty when `got` matches `want`; otherwise a one-line reason.
[[nodiscard]] std::string check_outcome(Kind kind, const Expected& want, const Outcome& got);

[[nodiscard]] Outcome outcome_of(const tt::core::VerificationResult& r);

}  // namespace ttbench
