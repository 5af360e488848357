#include "core/verifier.hpp"

#include <gtest/gtest.h>

#include "tta/properties.hpp"
#include "tta/trace_printer.hpp"

namespace tt::core {
namespace {

tta::ClusterConfig tiny() {
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.hub_init_window = 2;
  return cfg;
}

TEST(Verifier, FaultFreeSafetyHolds) {
  auto r = verify(tiny(), Lemma::kSafety);
  EXPECT_TRUE(r.holds);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GT(r.stats.states, 100u);
  EXPECT_TRUE(r.trace.empty());
}

TEST(Verifier, FaultFreeLivenessHolds) {
  auto r = verify(tiny(), Lemma::kLiveness);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST(Verifier, FaultFreeHubAgreementHolds) {
  auto r = verify(tiny(), Lemma::kHubAgreement);
  EXPECT_TRUE(r.holds) << r.verdict_text;
}

TEST(Verifier, SafetyHoldsWithLowDegreeFaultyNode) {
  auto cfg = tiny();
  cfg.faulty_node = 0;
  cfg.fault_degree = 2;
  auto r = verify(cfg, Lemma::kSafety);
  EXPECT_TRUE(r.holds) << r.verdict_text;
  EXPECT_TRUE(r.exhausted);
}

TEST(Verifier, LivenessHoldsWithLowDegreeFaultyNode) {
  auto cfg = tiny();
  cfg.faulty_node = 0;
  cfg.fault_degree = 2;
  auto r = verify(cfg, Lemma::kLiveness);
  EXPECT_TRUE(r.holds) << r.verdict_text;
}

TEST(Verifier, TimelinessNeedsBound) {
  EXPECT_THROW((void)verify(tiny(), Lemma::kTimeliness), std::invalid_argument);
}

TEST(Verifier, Safety2NeedsFaultyHub) {
  auto cfg = tiny();
  cfg.timeliness_bound = 10;
  EXPECT_THROW((void)verify(cfg, Lemma::kSafety2), std::invalid_argument);
}

TEST(Verifier, TimelinessFailsForTinyBoundAndHoldsForLargeBound) {
  auto cfg = tiny();
  cfg.timeliness_bound = 2;  // absurdly tight: must be violated
  auto r = verify(cfg, Lemma::kTimeliness);
  EXPECT_FALSE(r.holds);
  ASSERT_FALSE(r.trace.empty());
  // The violating state carries the saturated counter value bound+1.
  {
    const tta::Cluster cluster(prepare_config(cfg, Lemma::kTimeliness));
    const auto last = cluster.unpack(r.trace.back());
    EXPECT_EQ(last.startup_time, 3);
  }

  cfg.timeliness_bound = 60;  // generous: must hold
  auto r2 = verify(cfg, Lemma::kTimeliness);
  EXPECT_TRUE(r2.holds) << r2.verdict_text;
}

TEST(Verifier, CounterexampleTraceIsWellFormed) {
  auto cfg = tiny();
  cfg.timeliness_bound = 2;
  auto r = verify(cfg, Lemma::kTimeliness);
  ASSERT_FALSE(r.trace.empty());
  // Each consecutive pair must be a real transition of the model.
  const tta::Cluster cluster(prepare_config(cfg, Lemma::kTimeliness));
  for (std::size_t i = 0; i + 1 < r.trace.size(); ++i) {
    bool found = false;
    cluster.successors(r.trace[i], [&](const tta::Cluster::State& t) {
      if (t == r.trace[i + 1]) found = true;
    });
    EXPECT_TRUE(found) << "trace step " << i << " is not a transition";
  }
}

TEST(Verifier, MemoryBudgetNeedsTheLockFreeStore) {
  // The locked store has no spill tier: a budget or spill directory on it
  // is rejected instead of silently running the whole search in RAM.
  VerifyOptions budget;
  budget.store.mem_budget_bytes = 1;
  EXPECT_THROW((void)verify(tiny(), Lemma::kSafety, budget), std::invalid_argument);
  VerifyOptions spill_dir;
  spill_dir.store.spill_dir = ".";
  EXPECT_THROW((void)verify(tiny(), Lemma::kSafety, spill_dir), std::invalid_argument);
  budget.store.kind = mc::StoreKind::kLockFree;
  EXPECT_TRUE(verify(tiny(), Lemma::kSafety, budget).holds);
}

TEST(Verifier, ParallelInvariantMemoryTracksTheClosedSet) {
  // fig. 6 safety at n=3 (1,276 states): the parallel engine's reported
  // footprint must scale with the states it stored, not with fixed
  // per-shard scaffolding.
  auto cfg = tiny();
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  VerifyOptions opts;
  opts.engine = mc::EngineKind::kParallel;
  opts.threads = 1;
  const auto r = verify(cfg, Lemma::kSafety, opts);
  ASSERT_TRUE(r.holds) << r.verdict_text;
  EXPECT_EQ(r.stats.states, 1276u);
  EXPECT_LT(r.stats.memory_bytes, std::size_t{2} << 20);
}

TEST(Verifier, SearchLimitReportedAsNotExhausted) {
  mc::SearchLimits limits;
  limits.max_states = 50;
  auto r = verify(tiny(), Lemma::kSafety, limits);
  EXPECT_FALSE(r.exhausted);
  EXPECT_TRUE(r.holds == false || !r.exhausted);
}

TEST(Verifier, PrepareConfigClearsBoundForSafety) {
  auto cfg = tiny();
  cfg.timeliness_bound = 10;
  const auto prepared = prepare_config(cfg, Lemma::kSafety);
  EXPECT_EQ(prepared.timeliness_bound, 0);
}

}  // namespace
}  // namespace tt::core
