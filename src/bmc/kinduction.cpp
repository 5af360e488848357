#include "bmc/kinduction.hpp"

#include "bmc/encoder.hpp"
#include "kernel/packed_system.hpp"
#include "mc/reachability.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace tt::bmc {

namespace {

/// Result of the lazy explicit reachability sweep (the completeness
/// threshold). Exactly one of the two fields is >= 0 unless the state
/// budget ran out (then both are -1): `violation_depth` is the minimal BFS
/// depth of a reachable property-violating state, `diameter` the BFS depth
/// of the reachable graph when no such state exists.
struct ReachSweep {
  int diameter = -1;
  int violation_depth = -1;
};

/// Runs the sequential explicit engine over the packed system: its BFS
/// returns a shortest counterexample, so the trace length is the minimal
/// violating depth, and an exhausted run's depth is the diameter.
ReachSweep reachability_sweep(const kernel::System& system, kernel::ExprId property,
                              std::size_t state_budget) {
  obs::Span span("kind.diameter");
  const kernel::PackedSystem ps(system);
  const auto r = mc::check_invariant(
      ps,
      [&](const kernel::PackedSystem::State& s) {
        return system.exprs().eval(property, ps.unpack(s)) != 0;
      },
      {.max_states = state_budget});
  ReachSweep out;
  switch (r.verdict) {
    case mc::Verdict::kHolds: out.diameter = r.stats.depth; break;
    case mc::Verdict::kViolated: out.violation_depth = static_cast<int>(r.trace.size()) - 1; break;
    case mc::Verdict::kLimit: break;
  }
  span.set_arg("depth", r.stats.depth);
  span.set_arg("states", static_cast<std::int64_t>(r.stats.states));
  return out;
}

/// Span-arg names for one solver instance (static storage, as obs needs).
struct InstanceArgNames {
  const char* vars;
  const char* clauses;
  const char* conflicts;
  const char* propagations;
};
constexpr InstanceArgNames kBaseArgs{"base_vars", "base_clauses", "base_conflicts",
                                     "base_propagations"};
constexpr InstanceArgNames kStepArgs{"step_vars", "step_clauses", "step_conflicts",
                                     "step_propagations"};

/// Records the solver work of one k-induction depth as `kind.depth` span
/// args when the depth ends, on every exit path: per instance, `vars` and
/// `clauses` are its size at the end of the depth, `conflicts` and
/// `propagations` the work done during the depth.
class DepthSolverArgs {
 public:
  DepthSolverArgs(obs::Span& span, const sat::Solver& base, const sat::Solver& step)
      : span_(span), base_(base), step_(step), base_start_(base.stats()),
        step_start_(step.stats()) {}
  DepthSolverArgs(const DepthSolverArgs&) = delete;
  DepthSolverArgs& operator=(const DepthSolverArgs&) = delete;
  ~DepthSolverArgs() {
    record(kBaseArgs, base_, base_start_);
    record(kStepArgs, step_, step_start_);
  }

 private:
  void record(const InstanceArgNames& names, const sat::Solver& s,
              const sat::Solver::Stats& start) {
    span_.set_arg(names.vars, s.num_vars());
    span_.set_arg(names.clauses, static_cast<std::int64_t>(s.num_clauses()));
    span_.set_arg(names.conflicts,
                  static_cast<std::int64_t>(s.stats().conflicts - start.conflicts));
    span_.set_arg(names.propagations,
                  static_cast<std::int64_t>(s.stats().propagations - start.propagations));
  }

  obs::Span& span_;
  const sat::Solver& base_;
  const sat::Solver& step_;
  sat::Solver::Stats base_start_;
  sat::Solver::Stats step_start_;
};

}  // namespace

ProofResult check_invariant_kind(const kernel::System& system, kernel::ExprId property,
                                 const KindOptions& options) {
  Timer timer;
  obs::Span run_span("kind.run");
  ProofResult result;

  Unroller base(system);
  Unroller step(system, {.constrain_initial = false});

  bool diameter_tried = false;

  auto finish = [&](ProofVerdict verdict, int depth) {
    result.verdict = verdict;
    result.depth = depth;
    result.solver_calls =
        base.solver().stats().solve_calls + step.solver().stats().solve_calls;
    result.clauses_reused =
        base.solver().stats().clauses_reused + step.solver().stats().clauses_reused;
    result.total_conflicts =
        base.solver().stats().conflicts + step.solver().stats().conflicts;
    result.propagations =
        base.solver().stats().propagations + step.solver().stats().propagations;
    result.seconds = timer.seconds();
    return result;
  };

  for (int k = 0; k <= options.max_k; ++k) {
    obs::Span depth_span("kind.depth");
    depth_span.set_arg("k", k);
    const DepthSolverArgs depth_args(depth_span, base.solver(), step.solver());
    result.frames = static_cast<std::uint64_t>(k) + 1;

    // Base case: is P violated at depth exactly k? (Shallower depths were
    // already refuted, so the first SAT is a minimal counterexample.)
    base.ensure_frames(k + 1);
    if (base.solver().solve({~base.bool_expr(property, k)}) == sat::Result::kSat) {
      result.trace.reserve(static_cast<std::size_t>(k) + 1);
      for (int t = 0; t <= k; ++t) result.trace.push_back(base.decode_frame(t));
      return finish(ProofVerdict::kViolated, k);
    }

    // Inductive step: can k frames of P end in ¬P, starting anywhere?
    // (Only reached while the completeness threshold is unattempted or out
    // of budget — a successful sweep finishes the run by itself.)
    step.ensure_frames(k + 1);
    if (k >= 1) {
      // P holds permanently at the previous frame (asserted once, kept).
      step.solver().add_clause({step.bool_expr(property, k - 1)});
      if (options.simple_path) {
        for (int j = 0; j < k; ++j) {
          step.solver().add_clause({step.frames_differ(j, k)});
        }
      }
    }
    if (step.solver().solve({~step.bool_expr(property, k)}) == sat::Result::kUnsat) {
      return finish(ProofVerdict::kProved, k);
    }

    obs::progress_tick({.phase = "kind", .depth = k, .seconds = timer.seconds()});

    // Pure induction did not close quickly: run the explicit reachability
    // sweep once (the completeness threshold). It either certifies P on
    // every reachable state — closing the proof with no further SAT work —
    // or pins the exact minimal violating depth, which the base instance
    // then reaches with per-depth probes (keeping the counterexample
    // SAT-derived and minimal-length).
    if (!diameter_tried && k >= options.diameter_after_k &&
        options.diameter_state_budget > 0) {
      diameter_tried = true;
      const ReachSweep sweep =
          reachability_sweep(system, property, options.diameter_state_budget);
      run_span.set_arg("diameter", sweep.diameter);
      if (sweep.violation_depth >= 0) {
        TT_ASSERT(sweep.violation_depth > k);  // depths <= k are refuted
        for (int t = k + 1; t <= sweep.violation_depth; ++t) {
          base.ensure_frames(t + 1);
          result.frames = static_cast<std::uint64_t>(t) + 1;
          if (base.solver().solve({~base.bool_expr(property, t)}) == sat::Result::kSat) {
            result.trace.reserve(static_cast<std::size_t>(t) + 1);
            for (int f = 0; f <= t; ++f) result.trace.push_back(base.decode_frame(f));
            return finish(ProofVerdict::kViolated, t);
          }
          obs::progress_tick({.phase = "kind", .depth = t, .seconds = timer.seconds()});
        }
        TT_ASSERT(false && "explicit violation depth not reached by the base instance");
      }
      if (sweep.diameter >= 0) {
        result.via_diameter = true;
        return finish(ProofVerdict::kProved, sweep.diameter);
      }
      // Budget ran out: pure induction is the only remaining route.
    }
  }
  return finish(ProofVerdict::kUnknown, -1);
}

}  // namespace tt::bmc
