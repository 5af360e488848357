// Parameterized sweeps over the experiment grid (cluster size x fault degree
// x feedback x big-bang), asserting the paper's verdicts on every cell the
// CI budget allows. This is the regression net for the whole reproduction:
// any semantic change to the node/guardian automata that breaks a lemma
// anywhere in the grid fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "core/verifier.hpp"

namespace tt::core {
namespace {

// gtest appends the cell's byte image to each test name; the explicit zero
// bytes stand where the compiler would pad, so the name is the same in every
// build.
struct Cell {
  int n;
  int degree;
  bool feedback;
  std::uint8_t zero_pad[3] = {};
};

std::string cell_name(const ::testing::TestParamInfo<Cell>& info) {
  return "n" + std::to_string(info.param.n) + "_deg" + std::to_string(info.param.degree) +
         (info.param.feedback ? "_fb" : "_nofb");
}

tta::ClusterConfig grid_config(const Cell& cell) {
  tta::ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.faulty_node = 0;
  cfg.fault_degree = cell.degree;
  cfg.feedback = cell.feedback;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  return cfg;
}

class FaultyNodeGrid : public ::testing::TestWithParam<Cell> {};

TEST_P(FaultyNodeGrid, SafetyHolds) {
  auto r = verify(grid_config(GetParam()), Lemma::kSafety);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST_P(FaultyNodeGrid, LivenessHolds) {
  auto r = verify(grid_config(GetParam()), Lemma::kLiveness);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST_P(FaultyNodeGrid, TimelinessHoldsAtGenerousBound) {
  auto cfg = grid_config(GetParam());
  cfg.timeliness_bound = 10 * cfg.n;
  auto r = verify(cfg, Lemma::kTimeliness);
  EXPECT_TRUE(r.holds) << r.verdict_text;
}

TEST_P(FaultyNodeGrid, HubAgreementBoundary) {
  // Extension finding (EXPERIMENTS.md): node/guardian schedule agreement is
  // guaranteed only up to fault degree 2. From degree 3 on, the faulty node
  // can fabricate a plausible i-frame during STARTUP and later confirm the
  // resulting ghost tentative round from its own slot, dragging a guardian
  // onto a schedule offset from the nodes'. The paper's lemmas (which do not
  // cover guardian agreement) still hold there — this is an observation our
  // exhaustive fault simulation surfaced beyond the paper's claims.
  auto r = verify(grid_config(GetParam()), Lemma::kHubAgreement);
  EXPECT_TRUE(r.exhausted);
  if (GetParam().degree <= 2) {
    EXPECT_TRUE(r.holds) << r.verdict_text;
  } else {
    EXPECT_FALSE(r.holds) << "ghost-schedule scenario unexpectedly vanished";
  }
}

constexpr Cell kGridCells[] = {{3, 1, true},  {3, 2, true}, {3, 3, true},
                               {3, 4, true},  {3, 5, true}, {3, 6, true},
                               {3, 6, false}, {4, 6, true}, {4, 3, false}};

INSTANTIATE_TEST_SUITE_P(Grid, FaultyNodeGrid, ::testing::ValuesIn(kGridCells), cell_name);

class FaultyHubGrid : public ::testing::TestWithParam<int> {};

TEST_P(FaultyHubGrid, Safety2HoldsWithGuardiansFirst) {
  tta::ClusterConfig cfg;
  cfg.n = GetParam();
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;  // guardians power up before nodes (§5.2/§5.4)
  cfg.timeliness_bound = 8 * cfg.n;
  auto r = verify(cfg, Lemma::kSafety2);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST_P(FaultyHubGrid, LivenessBoundaryUnderFaultyHub) {
  // Documented boundary (EXPERIMENTS.md): full liveness under a faulty
  // guardian fails through the residual clique class of §5.2 (the paper
  // excludes those scenarios by the power-on arrangement and accordingly
  // only claims safety_2 for the faulty-hub configuration — Fig. 6(d)).
  // A faulty hub can split the cold-starting nodes onto offset schedules
  // and then keep one node "colliding" between the two ghosts forever.
  tta::ClusterConfig cfg;
  cfg.n = GetParam();
  cfg.faulty_hub = 0;
  cfg.init_window = 3;
  cfg.hub_init_window = 1;
  auto r = verify(cfg, Lemma::kLiveness);
  EXPECT_TRUE(r.exhausted);
  EXPECT_FALSE(r.holds) << "residual §5.2 clique scenario unexpectedly vanished";
}

INSTANTIATE_TEST_SUITE_P(Sizes, FaultyHubGrid, ::testing::Values(3, 4));

TEST(BigBangGrid, CliqueDepthStrictlyLaterWithBigBang) {
  // The §5.2 result in regression form: under a faulty guardian the earliest
  // agreement violation (clique) sits strictly deeper with the big-bang
  // than without it, for every cluster size we can afford here.
  for (int n : {3, 4}) {
    int depth[2] = {0, 0};
    for (bool bb : {false, true}) {
      tta::ClusterConfig cfg;
      cfg.n = n;
      cfg.faulty_hub = 0;
      cfg.big_bang = bb;
      cfg.init_window = 3;
      cfg.hub_init_window = 1;
      auto r = verify(cfg, Lemma::kSafety);
      ASSERT_FALSE(r.holds) << "expected a residual clique scenario, n=" << n;
      depth[bb ? 1 : 0] = static_cast<int>(r.trace.size()) - 1;
    }
    EXPECT_GT(depth[1], depth[0]) << "n=" << n;
  }
}

}  // namespace
}  // namespace tt::core
