// Counterexample replay over the real model: every lasso a liveness engine
// returns for a violating cluster configuration is re-executed through the
// Cluster successor relation (mc::validate_lasso) — stem edges, closing
// edge, and goal-freedom of the cycle all confirmed against the model
// itself, not the engine's bookkeeping. Covers the §5.2 faulty-guardian
// configurations (the documented VIOLATED liveness cells) for seq, par at
// 1/2/4 threads, and sym, plus cross-thread lasso identity for par.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "mc/lasso_check.hpp"
#include "tta/cluster.hpp"
#include "tta/properties.hpp"

namespace tt::mc {
namespace {

// gtest appends the cell's byte image to each test name; the explicit zero
// bytes stand where the compiler would pad, so the name is the same in every
// build.
struct ReplayCell {
  int n;
  core::Lemma lemma;
  bool big_bang;
  std::uint8_t zero_pad[3] = {};
};

std::string replay_name(const ReplayCell& cell) {
  return "hub_n" + std::to_string(cell.n) + (cell.big_bang ? "" : "_nobigbang") +
         (cell.lemma == core::Lemma::kReintegration ? "_reintegration" : "");
}

/// The §5.2 residual-clique configuration: a faulty guardian with a tight
/// hub window keeps one node colliding between two ghost schedules forever,
/// so full liveness is VIOLATED (the paper's power-on arrangement excludes
/// exactly these runs; see lemma_sweep_test.cpp).
tta::ClusterConfig violating_config(const ReplayCell& cell) {
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;
  cfg.big_bang = cell.big_bang;
  if (cell.lemma == core::Lemma::kReintegration) cfg.transient_restarts = 1;
  return cfg;
}

class LassoReplayGrid : public ::testing::TestWithParam<ReplayCell> {};

TEST_P(LassoReplayGrid, EveryEngineLassoReplaysThroughTheModel) {
  const ReplayCell cell = GetParam();
  const std::string name = replay_name(cell);
  const tta::ClusterConfig cfg =
      core::prepare_config(violating_config(cell), cell.lemma);
  const tta::Cluster cluster(cfg);
  auto goal = [&](const tta::Cluster::State& s) {
    return tta::all_correct_active(cfg, cluster.unpack(s));
  };

  core::VerifyOptions seq_opts;
  seq_opts.engine = EngineKind::kSequential;
  const auto seq = core::verify(violating_config(cell), cell.lemma, seq_opts);
  ASSERT_TRUE(seq.exhausted) << name;
  ASSERT_FALSE(seq.holds) << name << ": expected the §5.2 violation, got "
                          << seq.verdict_text;
  std::string why;
  ASSERT_TRUE(validate_lasso(cluster, goal, seq.trace, seq.loop_start,
                             /*require_initial_root=*/cell.lemma == core::Lemma::kLiveness,
                             &why))
      << name << "/seq: " << why;

  std::vector<tta::Cluster::State> first_trace;
  std::size_t first_loop = 0;
  for (int threads : {1, 2, 4}) {
    core::VerifyOptions par_opts;
    par_opts.engine = EngineKind::kParallel;
    par_opts.threads = threads;
    const auto par = core::verify(violating_config(cell), cell.lemma, par_opts);
    ASSERT_EQ(par.engine_used, EngineKind::kParallel);
    ASSERT_FALSE(par.holds) << name << "/par@" << threads << ": " << par.verdict_text;
    EXPECT_EQ(par.verdict_text, seq.verdict_text) << name << "/par@" << threads;
    ASSERT_TRUE(validate_lasso(cluster, goal, par.trace, par.loop_start,
                               /*require_initial_root=*/true, &why))
        << name << "/par@" << threads << ": " << why;
    if (threads == 1) {
      first_trace = par.trace;
      first_loop = par.loop_start;
    } else {
      // Bit-identical lasso at every thread count.
      EXPECT_EQ(par.trace, first_trace) << name << "/par@" << threads;
      EXPECT_EQ(par.loop_start, first_loop) << name << "/par@" << threads;
    }
  }

  core::VerifyOptions sym_opts;
  sym_opts.engine = EngineKind::kSymbolic;
  const auto sym = core::verify(violating_config(cell), cell.lemma, sym_opts);
  ASSERT_EQ(sym.engine_used, EngineKind::kSymbolic);
  ASSERT_FALSE(sym.holds) << name << "/sym: " << sym.verdict_text;
  ASSERT_TRUE(validate_lasso(cluster, goal, sym.trace, sym.loop_start,
                             /*require_initial_root=*/true, &why))
      << name << "/sym: " << why;
}

constexpr ReplayCell kReplayCells[] = {{3, core::Lemma::kLiveness, true},
                                       {4, core::Lemma::kLiveness, true},
                                       {3, core::Lemma::kLiveness, false},
                                       {3, core::Lemma::kReintegration, true}};

INSTANTIATE_TEST_SUITE_P(Violating, LassoReplayGrid, ::testing::ValuesIn(kReplayCells),
                         [](const ::testing::TestParamInfo<ReplayCell>& info) {
                           return replay_name(info.param);
                         });

TEST(LassoReplay, ValidatorRejectsCorruptedLassos) {
  // Sanity-check the validator itself: break a genuine lasso in each way it
  // is supposed to catch.
  const ReplayCell cell = kReplayCells[0];  // hub_n3
  const tta::ClusterConfig cfg = core::prepare_config(violating_config(cell), cell.lemma);
  const tta::Cluster cluster(cfg);
  auto goal = [&](const tta::Cluster::State& s) {
    return tta::all_correct_active(cfg, cluster.unpack(s));
  };
  const auto r = core::verify(violating_config(cell), cell.lemma, {});
  ASSERT_FALSE(r.holds);
  std::string why;
  ASSERT_TRUE(validate_lasso(cluster, goal, r.trace, r.loop_start, true, &why)) << why;

  EXPECT_FALSE(validate_lasso(cluster, goal, {}, 0, false, &why));  // empty
  EXPECT_FALSE(validate_lasso(cluster, goal, r.trace, r.trace.size(), false, &why));
  auto broken = r.trace;
  broken[broken.size() / 2][0] ^= 1;  // corrupt a stem/cycle state
  EXPECT_FALSE(validate_lasso(cluster, goal, broken, r.loop_start, false, &why));
}

}  // namespace
}  // namespace tt::mc
