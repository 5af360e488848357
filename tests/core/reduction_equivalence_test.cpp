// Reduction-equivalence suite (DESIGN.md §3.6, §3.8): for every lemma class
// and a grid of holds- and VIOLATED-configurations, exploring a reduced
// state space (VerifyOptions::reduction = kSymmetry, kPartialOrder or
// kSymPor) must preserve the verdict of the unreduced run on every engine —
// sequential, parallel at 1/2/4 threads, symbolic — while all reduced
// engines agree on the exact quotient state/transition counts, and every
// re-concretized counterexample replays edge-by-edge through the RAW model
// (validate_lasso / inline invariant path replay), exactly like an
// unreduced counterexample would.
// Suite name carries the "EngineEquivalence" stem so the TSan CI job picks
// the parallel reduced runs up.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "mc/lasso_check.hpp"
#include "tta/properties.hpp"

namespace tt::core {
namespace {

struct ReductionCell {
  int n;
  int degree;  ///< 0 = faulty-hub cell (channel swap inadmissible there)
  Lemma lemma;
  mc::ReductionKind reduction = mc::ReductionKind::kSymmetry;
};

std::string reduction_suffix(mc::ReductionKind k) {
  switch (k) {
    case mc::ReductionKind::kSymmetry: return "sym";
    case mc::ReductionKind::kPartialOrder: return "por";
    case mc::ReductionKind::kSymPor: return "sympor";
    case mc::ReductionKind::kNone: break;
  }
  return "none";
}

std::string cell_name(const ::testing::TestParamInfo<ReductionCell>& info) {
  return std::string(to_string(info.param.lemma)) + "_n" + std::to_string(info.param.n) +
         (info.param.degree == 0 ? "_hub" : "_deg" + std::to_string(info.param.degree)) + "_" +
         reduction_suffix(info.param.reduction);
}

tta::ClusterConfig cell_config(const ReductionCell& cell) {
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.init_window = 3;
  if (cell.degree == 0) {
    cfg.faulty_hub = 0;
    cfg.hub_init_window = 1;  // the §5.2 VIOLATED liveness configuration
  } else {
    cfg.faulty_node = 0;
    cfg.fault_degree = cell.degree;
    cfg.hub_init_window = 3;
  }
  if (cell.lemma == Lemma::kTimeliness) cfg.timeliness_bound = 10 * cell.n;
  if (cell.lemma == Lemma::kReintegration) cfg.transient_restarts = 1;
  return cfg;
}

VerificationResult run(const ReductionCell& cell, mc::EngineKind engine, int threads,
                       mc::ReductionKind reduction) {
  VerifyOptions opts;
  opts.engine = engine;
  opts.threads = threads;
  opts.reduction = reduction;
  return verify(cell_config(cell), cell.lemma, opts);
}

/// Replays a concretized counterexample against the RAW model: initial root,
/// every consecutive pair an edge, final state violating the lemma's
/// invariant (liveness lassos go through mc::validate_lasso instead).
void expect_invariant_trace_replays(const ReductionCell& cell, const VerificationResult& r,
                                    const std::string& label) {
  const tta::ClusterConfig cfg = prepare_config(cell_config(cell), cell.lemma);
  const tta::Cluster raw(cfg);
  ASSERT_FALSE(r.trace.empty()) << label;

  bool is_init = false;
  raw.initial_states([&](const tta::Cluster::State& s) {
    if (s == r.trace.front()) is_init = true;
  });
  EXPECT_TRUE(is_init) << label << ": concretized trace must start at a raw initial state";

  for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
    bool found = false;
    raw.successors(r.trace[i], [&](const tta::Cluster::State& t) {
      if (t == r.trace[i + 1]) found = true;
    });
    ASSERT_TRUE(found) << label << ": missing raw edge at index " << i;
  }
  const tta::ClusterState last = raw.unpack(r.trace.back());
  const bool ok = cell.lemma == Lemma::kHubAgreement ? tta::holds_hub_agreement(cfg, last)
                                                     : tta::holds_safety(cfg, last);
  EXPECT_FALSE(ok) << label << ": final state does not violate the invariant";
}

void expect_lasso_replays(const ReductionCell& cell, const VerificationResult& r,
                          bool require_initial_root, const std::string& label) {
  const tta::ClusterConfig cfg = prepare_config(cell_config(cell), cell.lemma);
  const tta::Cluster raw(cfg);
  auto goal = [&](const tta::Cluster::State& s) {
    return tta::all_correct_active(cfg, raw.unpack(s));
  };
  std::string why;
  if (r.verdict_text == "VIOLATED(deadlock)") {
    EXPECT_TRUE(mc::validate_deadlock_path(raw, goal, r.trace,
                                           /*goal_free_path=*/cell.lemma == Lemma::kLiveness,
                                           &why))
        << label << ": " << why;
    return;
  }
  EXPECT_TRUE(mc::validate_lasso(raw, goal, r.trace, r.loop_start, require_initial_root, &why))
      << label << ": " << why;
}

class ReductionEngineEquivalence : public ::testing::TestWithParam<ReductionCell> {};

TEST_P(ReductionEngineEquivalence, QuotientPreservesVerdictsAcrossAllEngines) {
  const ReductionCell cell = GetParam();
  const auto raw = run(cell, mc::EngineKind::kSequential, 1, mc::ReductionKind::kNone);
  ASSERT_TRUE(raw.exhausted);

  const auto red_seq = run(cell, mc::EngineKind::kSequential, 1, cell.reduction);
  EXPECT_EQ(red_seq.verdict_text, raw.verdict_text);
  EXPECT_EQ(red_seq.holds, raw.holds);
  if (raw.holds) {
    // Exhaustive sweeps: the quotient never has MORE states than the raw
    // graph. (Violated runs stop at the first counterexample, so their
    // partial counts depend on search order and are not comparable.)
    EXPECT_LE(red_seq.stats.states, raw.stats.states);
    EXPECT_LE(red_seq.stats.transitions, raw.stats.transitions);
    EXPECT_LE(red_seq.stats.emitted, raw.stats.emitted);
  }
  if (cell.reduction != mc::ReductionKind::kPartialOrder) {
    EXPECT_GT(red_seq.stats.canon_ops, std::size_t{0});
  } else {
    EXPECT_EQ(red_seq.stats.canon_ops, std::size_t{0});  // no symmetry component
  }
  if (cell.reduction != mc::ReductionKind::kSymmetry && cell.lemma != Lemma::kReintegration) {
    // Every candidate that reached the packing sink met the por gate exactly
    // once; the sink sits between the hub-pair skip and the first-occurrence
    // filter, so that count lies between the distinct edges and the
    // labelled emissions. (The AG AF engine sweeps the graph twice —
    // reachable set, then lasso search — so its cluster-level counters
    // cover both sweeps and are excluded.)
    const std::size_t gated = red_seq.stats.ample_sets + red_seq.stats.proviso_fallbacks;
    EXPECT_LE(red_seq.stats.transitions, gated);
    EXPECT_LE(gated, red_seq.stats.emitted);
  }

  for (int threads : {1, 2, 4}) {
    const auto red_par = run(cell, mc::EngineKind::kParallel, threads, cell.reduction);
    const std::string label = "par@" + std::to_string(threads);
    EXPECT_EQ(red_par.verdict_text, raw.verdict_text) << label;
    if (raw.holds && cell.lemma != Lemma::kReintegration) {
      // Exhaustive holds-runs sweep the same quotient: exact counts agree
      // with the sequential reduced engine at every thread count. (AG AF
      // holds-runs differ structurally between DFS and OWCTY sweeps.)
      EXPECT_EQ(red_par.stats.states, red_seq.stats.states) << label;
      EXPECT_EQ(red_par.stats.transitions, red_seq.stats.transitions) << label;
    }
    if (!raw.holds) {
      const bool liveness = !is_invariant_lemma(cell.lemma);
      if (liveness) {
        expect_lasso_replays(cell, red_par, /*require_initial_root=*/true, label);
      } else {
        expect_invariant_trace_replays(cell, red_par, label);
      }
    }
  }

  const auto red_sym = run(cell, mc::EngineKind::kSymbolic, 1, cell.reduction);
  EXPECT_EQ(red_sym.verdict_text, raw.verdict_text) << "sym";
  if (raw.holds && cell.lemma == Lemma::kLiveness) {
    EXPECT_EQ(red_sym.stats.states, red_seq.stats.states) << "sym";
    EXPECT_EQ(red_sym.stats.transitions, red_seq.stats.transitions) << "sym";
  }
  if (is_invariant_lemma(cell.lemma) && raw.holds) {
    EXPECT_EQ(red_sym.stats.states, red_seq.stats.states) << "sym";
    EXPECT_EQ(red_sym.stats.transitions, red_seq.stats.transitions) << "sym";
  }
  if (!raw.holds) {
    if (!is_invariant_lemma(cell.lemma)) {
      expect_lasso_replays(cell, red_sym, /*require_initial_root=*/true, "sym");
    } else {
      expect_invariant_trace_replays(cell, red_sym, "sym");
    }
  }

  if (!raw.holds) {
    const bool liveness = !is_invariant_lemma(cell.lemma);
    if (liveness) {
      // Sequential AG AF lassos root anywhere in the reachable set; the
      // concretized stem then starts at the (raw-valid) representative.
      expect_lasso_replays(cell, red_seq,
                           /*require_initial_root=*/cell.lemma == Lemma::kLiveness, "seq");
    } else {
      expect_invariant_trace_replays(cell, red_seq, "seq");
    }
  }
}

TEST_P(ReductionEngineEquivalence, ReducedParallelIsDeterministicAcrossThreadCounts) {
  const ReductionCell cell = GetParam();
  const auto base = run(cell, mc::EngineKind::kParallel, 1, cell.reduction);
  for (int threads : {2, 4}) {
    const auto r = run(cell, mc::EngineKind::kParallel, threads, cell.reduction);
    EXPECT_EQ(r.verdict_text, base.verdict_text) << "threads=" << threads;
    EXPECT_EQ(r.stats.states, base.stats.states) << "threads=" << threads;
    EXPECT_EQ(r.stats.transitions, base.stats.transitions) << "threads=" << threads;
    EXPECT_EQ(r.stats.frontier_sizes, base.stats.frontier_sizes) << "threads=" << threads;
    // Identical concretized counterexample at every thread count: the
    // quotient trace is deterministic and the replay itself is too.
    EXPECT_EQ(r.trace, base.trace) << "threads=" << threads;
    EXPECT_EQ(r.loop_start, base.loop_start) << "threads=" << threads;
  }
}

std::vector<ReductionCell> grid_cells() {
  // The lemma/config grid, independent of the reduction:
  //  - invariant holds-cells (safety at several degrees, timeliness);
  //  - invariant VIOLATED cells (hub agreement breaks at degree >= 3):
  //    exercises invariant-trace concretization;
  //  - liveness holds- and VIOLATED cells (degree 0 = faulty hub with a
  //    one-slot wake window, the §5.2 violation): exercises lasso
  //    concretization with loop_start remapping;
  //  - AG AF cells (restart budget): seq lassos root mid-graph, so the
  //    concretized stem starts at a representative instead.
  const ReductionCell base[] = {
      {3, 2, Lemma::kSafety},        {3, 6, Lemma::kSafety},
      {4, 6, Lemma::kSafety},        {3, 6, Lemma::kTimeliness},
      {3, 3, Lemma::kHubAgreement},  {3, 6, Lemma::kHubAgreement},
      {3, 2, Lemma::kLiveness},      {3, 0, Lemma::kLiveness},
      {4, 0, Lemma::kLiveness},      {3, 2, Lemma::kReintegration},
      {3, 0, Lemma::kReintegration},
  };
  std::vector<ReductionCell> out;
  for (const auto& cell : base) {
    // The full grid under sym (the PR 6 suite) and under sym+por (the fig. 6
    // workhorse; acceptance requires every golden cell to agree with the
    // unreduced run under it). Note the faulty-hub and hub-agreement cells
    // double as por-gate-decline coverage: there the clamp certificate is
    // inadmissible or the gate closes, and sym+por must degrade to sym.
    for (const auto red : {mc::ReductionKind::kSymmetry, mc::ReductionKind::kSymPor}) {
      ReductionCell c = cell;
      c.reduction = red;
      out.push_back(c);
    }
  }
  // por alone on a representative subset: a holds-invariant, the VIOLATED
  // invariant, a holds- and a VIOLATED liveness cell, and an AG AF cell.
  for (const auto& cell :
       {ReductionCell{3, 6, Lemma::kSafety}, ReductionCell{3, 6, Lemma::kHubAgreement},
        ReductionCell{3, 2, Lemma::kLiveness}, ReductionCell{3, 0, Lemma::kLiveness},
        ReductionCell{3, 2, Lemma::kReintegration}}) {
    ReductionCell c = cell;
    c.reduction = mc::ReductionKind::kPartialOrder;
    out.push_back(c);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, ReductionEngineEquivalence, ::testing::ValuesIn(grid_cells()),
                         cell_name);

TEST(ReductionGoldenQuotients, Fig6AndFig4QuotientCountsAreExact) {
  // The reduced companion of golden_counts_test.cpp's grid: exact quotient
  // state, distinct-transition and labelled-emission counts, pinned. The
  // reduction_ratio table in EXPERIMENTS.md derives from these numbers.
  struct Cell {
    const char* name;
    Lemma lemma;
    int n;
    int degree;
    std::size_t states;
    std::size_t transitions;  ///< distinct edges
    std::size_t emitted;      ///< labelled successors (choice combinations)
    mc::ReductionKind reduction = mc::ReductionKind::kSymmetry;
  };
  const auto kSymPor = mc::ReductionKind::kSymPor;
  const Cell cells[] = {
      {"fig6_safety_n3", Lemma::kSafety, 3, 6, 534, 1242, 6289},
      {"fig6_safety_n4", Lemma::kSafety, 4, 6, 3706, 8055, 52449},
      {"fig4_safety_deg1", Lemma::kSafety, 4, 1, 18190, 22439, 22463},
      {"fig4_safety_deg3", Lemma::kSafety, 4, 3, 31326, 70262, 469042},
      {"fig4_liveness_deg1", Lemma::kLiveness, 4, 1, 18186, 22435, 22459},
      {"fig4_liveness_deg3", Lemma::kLiveness, 4, 3, 31168, 69895, 467918},
      {"fig4_timeliness_deg1", Lemma::kTimeliness, 4, 1, 18300, 22549, 22573},
      {"fig4_timeliness_deg3", Lemma::kTimeliness, 4, 3, 32218, 72079, 474323},
      // The sym+por quotients of the same cells (the clamp rides on top of
      // the orbit reduction; DESIGN.md §3.8 derives the expected shrink).
      {"fig6_safety_n3_sympor", Lemma::kSafety, 3, 6, 531, 1236, 6277, kSymPor},
      {"fig6_safety_n4_sympor", Lemma::kSafety, 4, 6, 2847, 6297, 41949, kSymPor},
      {"fig4_safety_deg1_sympor", Lemma::kSafety, 4, 1, 11377, 15459, 15481, kSymPor},
      {"fig4_safety_deg3_sympor", Lemma::kSafety, 4, 3, 16055, 37007, 293851, kSymPor},
      {"fig4_liveness_deg1_sympor", Lemma::kLiveness, 4, 1, 11373, 15455, 15477, kSymPor},
      {"fig4_liveness_deg3_sympor", Lemma::kLiveness, 4, 3, 15897, 36640, 292727, kSymPor},
      {"fig4_timeliness_deg1_sympor", Lemma::kTimeliness, 4, 1, 12285, 16397, 16419, kSymPor},
      {"fig4_timeliness_deg3_sympor", Lemma::kTimeliness, 4, 3, 18995, 42932, 320104,
       kSymPor},
  };
  for (const auto& cell : cells) {
    tta::ClusterConfig cfg;
    cfg.faulty_node = 0;
    cfg.feedback = true;
    if (cell.degree == 6 && cell.lemma == Lemma::kSafety) {
      cfg.n = cell.n;
      cfg.fault_degree = 6;
      cfg.init_window = cell.n;
      cfg.hub_init_window = cell.n;
    } else {
      cfg.n = 4;
      cfg.fault_degree = cell.degree;
      cfg.init_window = 8;
      cfg.hub_init_window = 8;
      if (cell.lemma == Lemma::kTimeliness) cfg.timeliness_bound = 6 * cfg.n;
    }
    VerifyOptions opts;
    opts.engine = mc::EngineKind::kSequential;
    opts.reduction = cell.reduction;
    const auto r = verify(cfg, cell.lemma, opts);
    ASSERT_TRUE(r.holds) << cell.name << ": " << r.verdict_text;
    EXPECT_EQ(r.stats.states, cell.states) << cell.name;
    EXPECT_EQ(r.stats.transitions, cell.transitions) << cell.name;
    EXPECT_EQ(r.stats.emitted, cell.emitted) << cell.name;
    if (cell.lemma != Lemma::kLiveness) {
      // Hash-once carries over to the quotient: exactly one hash per
      // distinct edge plus one per emitted initial state, and exactly one
      // canonicalization per candidate that reached the packing sink plus
      // one per emitted initial state. The sink sits between the hub-pair
      // skip and the first-occurrence filter, so its candidates number
      // between the distinct edges and the labelled emissions.
      ASSERT_FALSE(r.stats.frontier_sizes.empty()) << cell.name;
      const std::size_t initials = r.stats.frontier_sizes[0];
      EXPECT_EQ(r.stats.hash_ops, r.stats.transitions + initials) << cell.name;
      ASSERT_GE(r.stats.canon_ops, initials) << cell.name;
      const std::size_t sunk = r.stats.canon_ops - initials;
      EXPECT_LE(r.stats.transitions, sunk) << cell.name;
      EXPECT_LE(sunk, r.stats.emitted) << cell.name;
      if (cell.reduction == kSymPor) {
        // Every candidate that reached the sink met the por gate exactly
        // once.
        EXPECT_EQ(r.stats.ample_sets + r.stats.proviso_fallbacks, sunk) << cell.name;
      }
    }
    if (cell.reduction == kSymPor) {
      const std::size_t gated = r.stats.ample_sets + r.stats.proviso_fallbacks;
      EXPECT_LE(r.stats.transitions, gated) << cell.name;
      EXPECT_LE(gated, r.stats.emitted) << cell.name;
      // The clamp actually pruned something on every one of these cells.
      EXPECT_GT(r.stats.pruned_combos, std::size_t{0}) << cell.name;
    }
  }
}

TEST(ReductionGoldenQuotients, Fig6SymPorCountsAndSinkWorkAtEveryFaultyNodePlacement) {
  // fig6 n = 4 under sym+por with the faulty node at each placement. The
  // counts do not depend on the kernel's enumeration order, so they are
  // pinned exactly. The faulty node is the fastest odometer digit wherever
  // it sits, so one epoch holds all of its output pairs and the hub-pair
  // skip keeps the sink's work near the distinct edges at every placement;
  // a kernel that splits those pairs across epochs reads ~2x here off
  // node 0.
  struct Cell {
    int faulty_node;
    std::size_t states;
    std::size_t transitions;
    std::size_t emitted;
  };
  const Cell cells[] = {
      {0, 2847, 6297, 41949},
      {1, 2738, 6424, 40699},
      {2, 2513, 5745, 37119},
      {3, 2927, 6570, 43581},
  };
  for (const auto& cell : cells) {
    tta::ClusterConfig cfg;
    cfg.n = 4;
    cfg.faulty_node = cell.faulty_node;
    cfg.fault_degree = 6;
    cfg.init_window = 4;
    cfg.hub_init_window = 4;
    VerifyOptions opts;
    opts.engine = mc::EngineKind::kSequential;
    opts.reduction = mc::ReductionKind::kSymPor;
    const auto r = verify(cfg, Lemma::kSafety, opts);
    const std::string label = "faulty node " + std::to_string(cell.faulty_node);
    ASSERT_TRUE(r.holds) << label << ": " << r.verdict_text;
    EXPECT_EQ(r.stats.states, cell.states) << label;
    EXPECT_EQ(r.stats.transitions, cell.transitions) << label;
    EXPECT_EQ(r.stats.emitted, cell.emitted) << label;
    ASSERT_FALSE(r.stats.frontier_sizes.empty()) << label;
    const std::size_t initials = r.stats.frontier_sizes[0];
    EXPECT_LE(2 * r.stats.canon_ops, 3 * (r.stats.transitions + initials)) << label;
  }
}

}  // namespace
}  // namespace tt::core
