// Shared result vocabulary of the unbounded SAT-based proof engines
// (k-induction and IC3/PDR, DESIGN.md §3.10). Unlike plain BMC, these
// engines can return PROVED — an unbounded guarantee — rather than merely
// failing to refute within a depth bound.
#pragma once

#include <cstdint>
#include <vector>

namespace tt::bmc {

enum class ProofVerdict {
  kProved,    ///< the invariant holds on every reachable state
  kViolated,  ///< a concrete counterexample trace was found
  kUnknown,   ///< resource cap hit before either answer
};

[[nodiscard]] constexpr const char* to_string(ProofVerdict v) noexcept {
  switch (v) {
    case ProofVerdict::kProved: return "PROVED";
    case ProofVerdict::kViolated: return "VIOLATED";
    case ProofVerdict::kUnknown: return "UNKNOWN";
  }
  return "?";
}

struct ProofResult {
  ProofVerdict verdict = ProofVerdict::kUnknown;
  /// kProved: the k (induction depth / converged frame) closing the proof.
  /// kViolated: depth of the counterexample (trace length - 1).
  int depth = -1;
  std::vector<std::vector<int>> trace;  ///< valuations, only for kViolated
  std::uint64_t solver_calls = 0;       ///< SAT queries issued
  std::uint64_t clauses_reused = 0;     ///< learned clauses carried across queries
  std::uint64_t total_conflicts = 0;
  std::uint64_t propagations = 0;       ///< literals propagated, summed over the run's solvers
  std::uint64_t frames = 0;             ///< IC3 frame count / k-induction frames unrolled
  std::uint64_t proof_obligations = 0;  ///< IC3 obligations processed (0 for k-induction)
  /// k-induction only: the proof was closed by the explicit reachability
  /// diameter (completeness threshold) rather than a pure inductive step.
  bool via_diameter = false;
  double seconds = 0.0;
};

}  // namespace tt::bmc
