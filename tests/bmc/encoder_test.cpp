#include "bmc/encoder.hpp"

#include <gtest/gtest.h>

#include "kernel/packed_system.hpp"
#include "kernel/ttalite.hpp"
#include "mc/reachability.hpp"
#include "tta/star_ir.hpp"

namespace tt::bmc {
namespace {

kernel::System make_counter(int m, bool can_pause) {
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId c = s.add_var("c", m, 0);
  const int g = s.add_group("counter", false);
  const kernel::ExprId always = e.ge_const(e.var(c), 0);
  s.add_command(g, always, {{c, e.add_mod(e.var(c), 1, m)}});
  if (can_pause) s.add_command(g, always, {{c, e.var(c)}});
  return s;
}

TEST(Bmc, FindsShallowViolationAtExactDepth) {
  kernel::System s = make_counter(10, false);
  auto& e = s.exprs();
  const kernel::ExprId never7 = e.lnot(e.eq_const(e.var(0), 7));
  auto r = check_invariant_bounded(s, never7, 20);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, 7);  // counter reaches 7 after exactly 7 steps
  ASSERT_EQ(r.trace.size(), 8u);
  for (int t = 0; t <= 7; ++t) EXPECT_EQ(r.trace[static_cast<std::size_t>(t)][0], t);
}

TEST(Bmc, ReportsNoViolationWithinBound) {
  kernel::System s = make_counter(10, false);
  auto& e = s.exprs();
  const kernel::ExprId never7 = e.lnot(e.eq_const(e.var(0), 7));
  auto r = check_invariant_bounded(s, never7, 5);  // too shallow
  EXPECT_FALSE(r.violation_found);
  EXPECT_EQ(r.depth, -1);
}

TEST(Bmc, ViolationInInitialState) {
  kernel::System s = make_counter(4, false);
  auto& e = s.exprs();
  const kernel::ExprId not_zero = e.lnot(e.eq_const(e.var(0), 0));
  auto r = check_invariant_bounded(s, not_zero, 3);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, 0);
}

TEST(Bmc, NondeterministicChoicesExplored) {
  // With the pause command the counter can dawdle; the shortest route to 3
  // is still 3 steps, and BMC must find exactly that.
  kernel::System s = make_counter(6, true);
  auto& e = s.exprs();
  const kernel::ExprId never3 = e.lnot(e.eq_const(e.var(0), 3));
  auto r = check_invariant_bounded(s, never3, 10);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, 3);
}

TEST(Bmc, TraceStepsAreRealTransitions) {
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.faulty_node = 0;
  cfg.fault_degree = 2;  // babbling node: safety is violated (see ttalite tests)
  kernel::TtaLite model(cfg);
  auto r = check_invariant_bounded(model.system(), model.safety_expr(), 25);
  ASSERT_TRUE(r.violation_found);
  EXPECT_FALSE(model.safety(r.trace.back()));
  // Validate every step against the interpreter semantics.
  for (std::size_t t = 0; t + 1 < r.trace.size(); ++t) {
    bool found = false;
    model.system().successor_valuations(r.trace[t], [&](const std::vector<int>& next) {
      if (next == r.trace[t + 1]) found = true;
    });
    EXPECT_TRUE(found) << "BMC trace step " << t << " is not a model transition";
  }
}

TEST(Bmc, DepthAgreesWithExplicitBfs) {
  // The explicit BFS produces minimal counterexamples; BMC's first SAT depth
  // must coincide (paper §5.2 compares exactly these two engines).
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  cfg.faulty_node = 0;
  cfg.fault_degree = 3;
  kernel::TtaLite model(cfg);

  const kernel::PackedSystem ps(model.system());
  auto explicit_result = mc::check_invariant(ps, [&](const kernel::PackedSystem::State& s) {
    return model.safety(ps.unpack(s));
  });
  ASSERT_EQ(explicit_result.verdict, mc::Verdict::kViolated);
  const int explicit_depth = static_cast<int>(explicit_result.trace.size()) - 1;

  auto r = check_invariant_bounded(model.system(), model.safety_expr(), explicit_depth + 3);
  ASSERT_TRUE(r.violation_found);
  EXPECT_EQ(r.depth, explicit_depth);
}

TEST(Bmc, StutterSemantics) {
  // A group whose guard dies must stutter (else_stutter) and keep its
  // variable; BMC must model that frame rule.
  kernel::System s;
  auto& e = s.exprs();
  const kernel::VarId a = s.add_var("a", 4, 0);
  const int g = s.add_group("g", /*else_stutter=*/true);
  s.add_command(g, e.lt_const(e.var(a), 2), {{a, e.add_mod(e.var(a), 1, 4)}});
  // a climbs to 2 then freezes; "a != 3" holds at every depth.
  const kernel::ExprId never3 = e.lnot(e.eq_const(e.var(a), 3));
  auto r = check_invariant_bounded(s, never3, 8);
  EXPECT_FALSE(r.violation_found);
  // But "a != 2" is violated at depth 2.
  const kernel::ExprId never2 = e.lnot(e.eq_const(e.var(a), 2));
  auto r2 = check_invariant_bounded(s, never2, 8);
  ASSERT_TRUE(r2.violation_found);
  EXPECT_EQ(r2.depth, 2);
}

TEST(Unroller, RepeatedExpressionAddsNoVariables) {
  // bool_expr and int_eq are memoized per frame: asking for the same
  // literal twice must not grow the formula.
  kernel::TtaLiteConfig cfg;
  cfg.n = 3;
  cfg.init_window = 2;
  kernel::TtaLite model(cfg);
  const kernel::ExprId property = model.safety_expr();  // builds a fresh expression
  Unroller u(model.system());
  u.ensure_frames(3);
  const sat::Lit first = u.bool_expr(property, 2);
  const int vars = u.solver().num_vars();
  const std::size_t clauses = u.solver().num_clauses();
  EXPECT_EQ(u.bool_expr(property, 2), first);
  EXPECT_EQ(u.solver().num_vars(), vars);
  EXPECT_EQ(u.solver().num_clauses(), clauses);
}

TEST(Unroller, StarIrFrameSizeTripwire) {
  // Size tripwire for the per-frame encoding of the fig6 n=3 star IR (the
  // cell the k-induction engine proves). With int_eq memoized, shared ite
  // subterms are encoded once per frame and value: ~34.3k variables per
  // frame, against ~62k when every use re-encoded them.
  tta::ClusterConfig cfg;
  cfg.n = 3;
  cfg.faulty_node = 0;
  cfg.fault_degree = 6;
  cfg.init_window = 3;
  cfg.hub_init_window = 3;
  const tta::StarIr ir(cfg);
  Unroller u(ir.system());
  u.ensure_frames(2);
  const int before = u.solver().num_vars();
  u.ensure_frames(3);
  const int per_frame = u.solver().num_vars() - before;
  EXPECT_GT(per_frame, 0);
  EXPECT_LE(per_frame, 40'000);
}

}  // namespace
}  // namespace tt::bmc
