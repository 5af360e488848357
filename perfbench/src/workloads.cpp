#include "workloads.hpp"

#include <sstream>

namespace ttbench {

namespace {

using tt::mc::ReductionKind;

// Pinned outcomes; regenerate with `ttbench pin > perfbench/src/expected.inc`.
const std::vector<Expected> kExpected = {
#include "expected.inc"
};

std::string join(const std::vector<std::size_t>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fig6-n5-none", Kind::kSafetyPar, 5, ReductionKind::kNone, 4},
      {"fig6-n7-sympor", Kind::kSafetyPar, 7, ReductionKind::kSymPor, 4},
      {"fig6-n5-liveness", Kind::kLivenessPar, 5, ReductionKind::kNone, 4},
      {"kind-n3", Kind::kKInduction, 3, ReductionKind::kNone, 1},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

tt::core::Lemma lemma_of(Kind k) {
  return k == Kind::kLivenessPar ? tt::core::Lemma::kLiveness : tt::core::Lemma::kSafety;
}

tt::mc::EngineKind engine_of(Kind k) {
  return k == Kind::kKInduction ? tt::mc::EngineKind::kKInduction
                                : tt::mc::EngineKind::kParallel;
}

tt::tta::ClusterConfig cell_config(int n, int faulty) {
  tt::tta::ClusterConfig cfg;
  cfg.n = n;
  cfg.faulty_node = faulty;
  cfg.fault_degree = 6;
  cfg.feedback = true;
  cfg.init_window = n;
  cfg.hub_init_window = n;
  return cfg;
}

tt::core::VerifyOptions verify_options(const Workload& w) {
  tt::core::VerifyOptions opts;
  opts.engine = engine_of(w.kind);
  opts.threads = w.threads;
  opts.reduction = w.reduction;
  return opts;
}

const Expected* find_expected(const std::string& workload, int n, int faulty) {
  for (const Expected& e : kExpected) {
    if (workload == e.workload && e.n == n && e.faulty == faulty) return &e;
  }
  return nullptr;
}

Outcome outcome_of(const tt::core::VerificationResult& r) {
  return {r.holds, r.exhausted, r.stats.states, r.stats.depth, r.stats.transitions,
          r.stats.frontier_sizes};
}

std::string check_outcome(Kind kind, const Expected& want, const Outcome& got) {
  std::ostringstream why;
  if (!got.exhausted) why << "search did not finish; ";
  if (got.holds != want.holds) why << "holds " << got.holds << " != " << want.holds << "; ";
  if (kind != Kind::kKInduction) {
    if (got.states != want.states) why << "states " << got.states << " != " << want.states << "; ";
    if (got.depth != want.depth) why << "depth " << got.depth << " != " << want.depth << "; ";
    if (got.frontier != want.frontier) {
      why << "frontier [" << join(got.frontier) << "] != [" << join(want.frontier) << "]; ";
    }
  }
  return why.str();
}

}  // namespace ttbench
