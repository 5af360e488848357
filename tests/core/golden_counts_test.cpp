// Golden-count regression net for the successor pipeline: the exact
// reachable-state, distinct-transition and labelled-emission counts of small
// fig4/fig5/fig6 bench configurations, pinned for the sequential engine, the
// parallel engine at 1, 2 and 4 threads, and the symbolic (BDD-set) engine,
// whose count comes from exact model counting instead of a table size. Any
// change to successor enumeration order, fault enumeration, packing,
// interning, duplicate suppression or BDD counting that alters the explored
// graph — rather than merely its cost — trips these exact numbers. The
// emitted count is the size of the labelled choice product the kernel
// enumerates (what `transitions` counted before the kernel emitted each
// distinct successor once, DESIGN.md §3.2).
//
// The same runs assert the hash-once contract end to end on the real model:
// stats.hash_ops == transitions + initial-state emissions, i.e. hash_words
// ran exactly once per candidate and was reused for the cache probe, the
// find, the shard routing and the insert (DESIGN.md §3.2).
#include <gtest/gtest.h>

#include <string>

#include "core/verifier.hpp"
#include "mc/reachability.hpp"
#include "mc/symbolic_reachability.hpp"
#include "tta/cluster.hpp"

namespace tt::core {
namespace {

// gtest appends the cell's byte image to each test name. The cell holds no
// pointer and no padding, so the name is the same in every build.
struct GoldenCell {
  int figure;  ///< 6: fig6_config(n); 4: fig4_config(degree, lemma)
  Lemma lemma;
  int n;
  int degree;
  std::size_t states;
  std::size_t transitions;  ///< distinct edges
  std::size_t emitted;      ///< labelled successors (choice combinations)
};

std::string golden_name(const GoldenCell& cell) {
  return "fig" + std::to_string(cell.figure) + "_" + to_string(cell.lemma) +
         (cell.figure == 6 ? "_n" + std::to_string(cell.n)
                           : "_deg" + std::to_string(cell.degree));
}

tta::ClusterConfig fig6_config(int n) {
  tta::ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.feedback = true;
  cfg.init_window = n;
  cfg.hub_init_window = n;
  return cfg;
}

tta::ClusterConfig fig4_config(int degree, Lemma lemma) {
  tta::ClusterConfig cfg;
  cfg.n = 4;
  cfg.faulty_node = 0;
  cfg.fault_degree = degree;
  cfg.feedback = true;
  cfg.init_window = 8;
  cfg.hub_init_window = 8;
  if (lemma == Lemma::kTimeliness) cfg.timeliness_bound = 6 * cfg.n;
  return cfg;
}

void expect_hash_once(const VerificationResult& r, const std::string& label) {
  // One hash per enumerated transition plus one per emitted initial state
  // (these configs have a single initial state: no faulty hub, so no frozen
  // pattern dimension). frontier_sizes[0] is the interned initial count,
  // which equals the emitted count because initial states are distinct.
  ASSERT_FALSE(r.stats.frontier_sizes.empty()) << label;
  EXPECT_EQ(r.stats.hash_ops, r.stats.transitions + r.stats.frontier_sizes[0]) << label;
}

class GoldenCounts : public ::testing::TestWithParam<GoldenCell> {};

TEST_P(GoldenCounts, ExactAcrossEnginesAndThreadCounts) {
  const GoldenCell& cell = GetParam();
  const std::string name = golden_name(cell);
  const tta::ClusterConfig cfg =
      cell.figure == 6 ? fig6_config(cell.n) : fig4_config(cell.degree, cell.lemma);

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  const auto seq = verify(cfg, cell.lemma, seq_opts);
  ASSERT_TRUE(seq.holds) << name << ": " << seq.verdict_text;
  EXPECT_EQ(seq.stats.states, cell.states) << name;
  EXPECT_EQ(seq.stats.transitions, cell.transitions) << name;
  EXPECT_EQ(seq.stats.emitted, cell.emitted) << name;

  if (cell.lemma == Lemma::kLiveness) {
    // F(goal) liveness: the sequential DFS, the parallel OWCTY engine and
    // the symbolic EG engine all sweep exactly the reachable goal-free
    // region once on a holds-run, so states and transitions are pinned for
    // all three, hash_ops matches between seq and par (hash-once on the
    // same candidate stream; the hash-once formula below is BFS-specific),
    // and sym never hashes at all.
    EXPECT_GT(seq.stats.hash_ops, std::size_t{0}) << name;
    for (int threads : {1, 2, 4}) {
      VerifyOptions par_opts;
      par_opts.engine = mc::EngineKind::kParallel;
      par_opts.threads = threads;
      const auto par = verify(cfg, cell.lemma, par_opts);
      const std::string label = name + "/par@" + std::to_string(threads);
      ASSERT_TRUE(par.holds) << label << ": " << par.verdict_text;
      EXPECT_EQ(par.engine_used, mc::EngineKind::kParallel) << label;
      EXPECT_EQ(par.stats.states, cell.states) << label;
      EXPECT_EQ(par.stats.transitions, cell.transitions) << label;
      EXPECT_EQ(par.stats.emitted, cell.emitted) << label;
      EXPECT_EQ(par.stats.hash_ops, seq.stats.hash_ops) << label;
      EXPECT_EQ(par.stats.residue_states, std::size_t{0}) << label;
    }
    VerifyOptions sym_opts;
    sym_opts.engine = mc::EngineKind::kSymbolic;
    const auto sym = verify(cfg, cell.lemma, sym_opts);
    const std::string label = name + "/sym";
    ASSERT_TRUE(sym.holds) << label << ": " << sym.verdict_text;
    EXPECT_EQ(sym.engine_used, mc::EngineKind::kSymbolic) << label;
    EXPECT_EQ(sym.stats.states, cell.states) << label;
    EXPECT_EQ(sym.stats.transitions, cell.transitions) << label;
    EXPECT_EQ(sym.stats.emitted, cell.emitted) << label;
    EXPECT_EQ(sym.stats.hash_ops, std::size_t{0}) << label;
    return;
  }
  expect_hash_once(seq, name + "/seq");

  for (int threads : {1, 2, 4}) {
    VerifyOptions par_opts;
    par_opts.engine = mc::EngineKind::kParallel;
    par_opts.threads = threads;
    const auto par = verify(cfg, cell.lemma, par_opts);
    const std::string label = name + "/par@" + std::to_string(threads);
    ASSERT_TRUE(par.holds) << label << ": " << par.verdict_text;
    EXPECT_EQ(par.stats.states, cell.states) << label;
    EXPECT_EQ(par.stats.transitions, cell.transitions) << label;
    EXPECT_EQ(par.stats.emitted, cell.emitted) << label;
    expect_hash_once(par, label);
  }

  // The symbolic engine's state count comes from exact BDD model counting
  // over the compressed reached set — it must agree bit-for-bit with the
  // interning tables of the explicit engines, and never hash a state.
  VerifyOptions sym_opts;
  sym_opts.engine = mc::EngineKind::kSymbolic;
  const auto sym = verify(cfg, cell.lemma, sym_opts);
  const std::string label = name + "/sym";
  ASSERT_TRUE(sym.holds) << label << ": " << sym.verdict_text;
  EXPECT_EQ(sym.engine_used, mc::EngineKind::kSymbolic) << label;
  EXPECT_EQ(sym.stats.states, cell.states) << label;
  EXPECT_EQ(sym.stats.transitions, cell.transitions) << label;
  EXPECT_EQ(sym.stats.emitted, cell.emitted) << label;
  EXPECT_EQ(sym.stats.hash_ops, std::size_t{0}) << label;
  EXPECT_GT(sym.stats.bdd_peak_live_nodes, std::size_t{0}) << label;
}

TEST_P(GoldenCounts, LockFreeStoreReproducesGoldenCountsExactly) {
  // The store swap must be invisible against the pinned golden counts:
  // same states, transitions and hash-ops (hash-once survives the store) on
  // the sequential engine and the parallel engine at 1/2/4 threads.
  const GoldenCell& cell = GetParam();
  const std::string name = golden_name(cell);
  const tta::ClusterConfig cfg =
      cell.figure == 6 ? fig6_config(cell.n) : fig4_config(cell.degree, cell.lemma);

  VerifyOptions seq_opts;
  seq_opts.engine = mc::EngineKind::kSequential;
  seq_opts.store.kind = mc::StoreKind::kLockFree;
  const auto seq = verify(cfg, cell.lemma, seq_opts);
  ASSERT_TRUE(seq.holds) << name << ": " << seq.verdict_text;
  EXPECT_EQ(seq.stats.states, cell.states) << name;
  EXPECT_EQ(seq.stats.transitions, cell.transitions) << name;
  EXPECT_EQ(seq.stats.emitted, cell.emitted) << name;
  if (cell.lemma != Lemma::kLiveness) {
    expect_hash_once(seq, name + "/lockfree_seq");
  }

  for (int threads : {1, 2, 4}) {
    VerifyOptions par_opts;
    par_opts.engine = mc::EngineKind::kParallel;
    par_opts.threads = threads;
    par_opts.store.kind = mc::StoreKind::kLockFree;
    const auto par = verify(cfg, cell.lemma, par_opts);
    const std::string label =
        name + "/lockfree_par@" + std::to_string(threads);
    ASSERT_TRUE(par.holds) << label << ": " << par.verdict_text;
    EXPECT_EQ(par.stats.states, cell.states) << label;
    EXPECT_EQ(par.stats.transitions, cell.transitions) << label;
    EXPECT_EQ(par.stats.emitted, cell.emitted) << label;
    EXPECT_EQ(par.stats.hash_ops, seq.stats.hash_ops) << label;
  }
}

TEST_P(GoldenCounts, ProofEngineProvesInvariantCellsUnbounded) {
  // The proof-engine cross-check on the golden grid: every invariant cell
  // the explicit engines verify by exhaustion must also come back PROVED@k
  // from k-induction over the star IR — an unbounded guarantee, not a
  // failed refutation — with the run's single incremental solver showing
  // real clause reuse across its solve() calls. (ic3 is exercised on
  // reduced cells in engine_equivalence_test.cpp: the full-window golden
  // cells are beyond its obligation budget in test time.)
  const GoldenCell& cell = GetParam();
  const std::string name = golden_name(cell);
  if (cell.lemma == Lemma::kLiveness) {
    GTEST_SKIP() << "proof engines are invariant-only";
  }
  const tta::ClusterConfig cfg =
      cell.figure == 6 ? fig6_config(cell.n) : fig4_config(cell.degree, cell.lemma);

  VerifyOptions opts;
  opts.engine = mc::EngineKind::kKInduction;
  const auto proof = verify(cfg, cell.lemma, opts);
  ASSERT_TRUE(proof.holds) << name << ": " << proof.verdict_text;
  EXPECT_EQ(proof.engine_used, mc::EngineKind::kKInduction) << name;
  EXPECT_EQ(proof.verdict_text.rfind("PROVED@", 0), 0u)
      << name << ": " << proof.verdict_text;
  EXPECT_GT(proof.stats.solver_calls, 0u) << name;
  EXPECT_GT(proof.stats.clauses_reused, 0u) << name;
}

constexpr GoldenCell kGoldenCells[] = {
    {6, Lemma::kSafety, 3, 6, 1276, 3401, 45899},
    {6, Lemma::kSafety, 4, 6, 6592, 16973, 482344},
    {4, Lemma::kSafety, 4, 1, 18404, 22677, 22677},
    {4, Lemma::kSafety, 4, 3, 46944, 120881, 1238320},
    {4, Lemma::kLiveness, 4, 1, 18400, 22673, 22673},
    {4, Lemma::kLiveness, 4, 3, 46350, 119465, 1232486},
    {4, Lemma::kTimeliness, 4, 1, 18514, 22787, 22787},
    {4, Lemma::kTimeliness, 4, 3, 49467, 126607, 1262793}};

INSTANTIATE_TEST_SUITE_P(Grid, GoldenCounts, ::testing::ValuesIn(kGoldenCells),
                         [](const ::testing::TestParamInfo<GoldenCell>& info) {
                           return golden_name(info.param);
                         });

TEST(GoldenCounts, Fig5FaultFreeReachableCounts) {
  // The fig5 "measured reachable states" column: fault-free model,
  // two-slot wake-up window.
  const struct {
    int n;
    std::size_t states;
    std::size_t transitions;
    std::size_t emitted;
  } cells[] = {{3, 160, 186, 186}, {4, 368, 421, 421}};
  for (const auto& cell : cells) {
    tta::ClusterConfig cfg;
    cfg.n = cell.n;
    cfg.init_window = 2;
    cfg.hub_init_window = 2;
    const tta::Cluster cluster(cfg);
    const auto stats = mc::count_reachable(cluster);
    EXPECT_TRUE(stats.exhausted) << "n=" << cell.n;
    EXPECT_EQ(stats.states, cell.states) << "n=" << cell.n;
    EXPECT_EQ(stats.transitions, cell.transitions) << "n=" << cell.n;
    EXPECT_EQ(cluster.emitted(), cell.emitted) << "n=" << cell.n;

    const auto sym = mc::count_reachable_symbolic(cluster);
    EXPECT_TRUE(sym.exhausted) << "n=" << cell.n << "/sym";
    EXPECT_EQ(sym.states, cell.states) << "n=" << cell.n << "/sym";
    EXPECT_EQ(sym.transitions, cell.transitions) << "n=" << cell.n << "/sym";
  }
}

}  // namespace
}  // namespace tt::core
