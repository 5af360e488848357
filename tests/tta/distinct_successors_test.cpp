// Brute-force oracle for the successor kernel (DESIGN.md §3.2).
//
// Cluster::successors memoises the hub phase per channel, skips hub pairs
// already passed on under the same node prefix, and drops packed states it
// already emitted. This test rebuilds the labelled product of every choice
// from the public model pieces — node_step, FaultyNodeOutputs::pairs,
// hub_relay / faulty_hub_relay, hub_state_step / faulty_hub_state_step — in
// the kernel's enumeration order (no-restart step first, then one variant
// per restarted correct node; node odometer with the faulty node's digit
// fastest, then the correct nodes in index order; relay options; state
// options), maps each candidate through Cluster::reduce and
// keeps first occurrences. For every reachable state the kernel must emit
// exactly that sequence, and its `emitted` counter must grow by the size of
// the labelled product.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "tta/cluster.hpp"
#include "tta/faulty_node.hpp"
#include "tta/hub.hpp"
#include "tta/node.hpp"

namespace tt::tta {
namespace {

using State = Cluster::State;

struct Naive {
  std::vector<State> distinct;
  std::uint64_t emitted = 0;
};

/// One step variant (`restart` = restarted correct node, or -1) of the
/// labelled product, appended to `out`.
void naive_variant(const Cluster& cl, const FaultyNodeOutputs& outputs, const ClusterState& c,
                   int restart, std::set<State>& seen, Naive& out) {
  const ClusterConfig& cfg = cl.config();
  const int n = cfg.n;
  std::uint8_t locks = 0;
  if (cfg.faulty_node != ClusterConfig::kNone) {
    for (int h = 0; h < kNumChannels; ++h) {
      if (!cfg.hub_is_faulty(h) && ((c.hub[h].locks >> cfg.faulty_node) & 1u) != 0) {
        locks = static_cast<std::uint8_t>(locks | (1u << h));
      }
    }
  }

  struct Option {
    NodeVars next;
    Frame out[kNumChannels];
  };
  std::vector<Option> options[kMaxNodes];
  for (int i = 0; i < n; ++i) {
    if (i == restart) {
      options[i].push_back({NodeVars{}, {Frame::quiet(), Frame::quiet()}});
    } else if (cfg.node_is_faulty(i)) {
      for (const auto& [a, b] : outputs.pairs(locks)) {
        options[i].push_back({faulty_node_vars(cfg, locks), {a, b}});
      }
    } else {
      const Frame in[kNumChannels] = {c.hub[0].delivered(i, cfg.hub_is_faulty(0)),
                                      c.hub[1].delivered(i, cfg.hub_is_faulty(1))};
      for (int o = 0; o < node_option_count(cfg, c.node[i]); ++o) {
        const NodeStep st = node_step(cfg, i, c.node[i], in, o);
        options[i].push_back({st.next, {st.out, st.out}});
      }
    }
  }

  // Digit order: the faulty node first, then the correct nodes by index.
  std::vector<int> digits;
  if (cfg.faulty_node != ClusterConfig::kNone) digits.push_back(cfg.faulty_node);
  for (int i = 0; i < n; ++i) {
    if (i != cfg.faulty_node) digits.push_back(i);
  }
  std::vector<std::size_t> choice(static_cast<std::size_t>(n), 0);
  while (true) {
    ClusterState t;
    Frame outs[kNumChannels][kMaxNodes];
    for (int i = 0; i < n; ++i) {
      const Option& o = options[i][choice[static_cast<std::size_t>(i)]];
      t.node[i] = o.next;
      outs[0][i] = o.out[0];
      outs[1][i] = o.out[1];
    }
    const int ropt0 = hub_relay_option_count(cfg, 0, c.hub[0], outs[0]);
    const int ropt1 = hub_relay_option_count(cfg, 1, c.hub[1], outs[1]);
    const int sopt0 = hub_state_option_count(cfg, 0, c.hub[0]);
    const int sopt1 = hub_state_option_count(cfg, 1, c.hub[1]);
    for (int r0 = 0; r0 < ropt0; ++r0) {
      for (int r1 = 0; r1 < ropt1; ++r1) {
        RelayDecision d0;
        RelayDecision d1;
        if (cfg.hub_is_faulty(0)) {
          d1 = hub_relay(cfg, 1, c.hub[1], outs[1], r1);
          d0 = faulty_hub_relay(cfg, c.hub[0], outs[0], d1.interlink, r0);
        } else if (cfg.hub_is_faulty(1)) {
          d0 = hub_relay(cfg, 0, c.hub[0], outs[0], r0);
          d1 = faulty_hub_relay(cfg, c.hub[1], outs[1], d0.interlink, r1);
        } else {
          d0 = hub_relay(cfg, 0, c.hub[0], outs[0], r0);
          d1 = hub_relay(cfg, 1, c.hub[1], outs[1], r1);
        }
        for (int s0 = 0; s0 < sopt0; ++s0) {
          for (int s1 = 0; s1 < sopt1; ++s1) {
            t.hub[0] = cfg.hub_is_faulty(0)
                           ? faulty_hub_state_step(cfg, c.hub[0], d0)
                           : hub_state_step(cfg, 0, c.hub[0], d0, d1.interlink, s0);
            t.hub[1] = cfg.hub_is_faulty(1)
                           ? faulty_hub_state_step(cfg, c.hub[1], d1)
                           : hub_state_step(cfg, 1, c.hub[1], d1, d0.interlink, s1);
            t.restarts_used = static_cast<std::uint8_t>(c.restarts_used + (restart >= 0 ? 1 : 0));
            t.startup_time = cl.next_startup_time(t, c.startup_time);
            ++out.emitted;
            const State red = cl.reduce(cl.pack(t));
            if (seen.insert(red).second) out.distinct.push_back(red);
          }
        }
      }
    }
    int k = 0;
    while (k < n) {
      const int i = digits[static_cast<std::size_t>(k)];
      if (++choice[static_cast<std::size_t>(i)] < options[i].size()) break;
      choice[static_cast<std::size_t>(i)] = 0;
      ++k;
    }
    if (k == n) break;
  }
}

Naive naive_successors(const Cluster& cl, const State& s) {
  const ClusterConfig& cfg = cl.config();
  const ClusterState c = cl.unpack(s);
  // The same per-channel option lists the cluster builds (class collapse
  // only under symmetry with both guardians correct).
  const FaultyNodeOutputs outputs(
      cfg, reduction_has_symmetry(cl.reduction()) && cfg.faulty_hub == ClusterConfig::kNone);
  Naive out;
  std::set<State> seen;
  naive_variant(cl, outputs, c, -1, seen, out);
  if (cfg.transient_restarts > 0 && c.restarts_used < cfg.transient_restarts) {
    for (int r = 0; r < cfg.n; ++r) {
      if (!cfg.node_is_faulty(r)) naive_variant(cl, outputs, c, r, seen, out);
    }
  }
  return out;
}

/// kMiddleFault comes last so the other classes keep the values in their
/// parameter byte images (and so their test names).
enum class CellClass { kNodeFault, kFaultyHub, kRestarts, kTimeliness, kFeedbackOff, kMiddleFault };

// gtest appends the cell's byte image to each test name; the explicit zero
// bytes stand where the compiler would pad, so the name is the same in every
// build.
struct OracleCell {
  int n;
  CellClass kind;
  Reduction reduction;
  std::uint8_t zero_pad[3] = {};
};

const char* to_string(CellClass k) {
  switch (k) {
    case CellClass::kNodeFault: return "node_fault";
    case CellClass::kFaultyHub: return "faulty_hub";
    case CellClass::kRestarts: return "restarts";
    case CellClass::kTimeliness: return "timeliness";
    case CellClass::kFeedbackOff: return "feedback_off";
    case CellClass::kMiddleFault: return "middle_fault";
  }
  return "?";
}

/// Small windows keep every reachable set exhaustively checkable. The
/// faulty node's digit always turns fastest; it sits at node 0 (digit order
/// = index order), at node 1 (neither index order nor last-first) and at the
/// last node (last-first), so every shape of the digit permutation is
/// covered; the faulty hub alternates between channels. With windows of 2,
/// the cells without restarts emit the same sequence whether the faulty
/// node's digit turns first or last, so the node-1 cells take a restart
/// budget like the last-node restart cells: a restarted node's fresh INIT
/// choices then interleave with the faulty node's output pairs.
ClusterConfig cell_config(const OracleCell& cell) {
  ClusterConfig cfg;
  cfg.n = cell.n;
  cfg.fault_degree = 6;
  cfg.init_window = 2;
  cfg.hub_init_window = 2;
  switch (cell.kind) {
    case CellClass::kNodeFault:
      cfg.faulty_node = 0;
      break;
    case CellClass::kFaultyHub:
      cfg.faulty_hub = cell.n % 2;
      break;
    case CellClass::kRestarts:
      cfg.faulty_node = cell.n - 1;
      cfg.transient_restarts = 1;
      break;
    case CellClass::kTimeliness:
      cfg.faulty_node = 0;
      cfg.timeliness_bound = 6 * cell.n;
      break;
    case CellClass::kFeedbackOff:
      cfg.faulty_node = cell.n - 1;
      cfg.feedback = false;
      break;
    case CellClass::kMiddleFault:
      cfg.faulty_node = 1;
      cfg.transient_restarts = 1;
      break;
  }
  return cfg;
}

class DistinctSuccessors : public ::testing::TestWithParam<OracleCell> {};

TEST_P(DistinctSuccessors, FirstOccurrenceSequenceMatchesBruteForceProduct) {
  const OracleCell cell = GetParam();
  const Cluster cl(cell_config(cell), cell.reduction);

  std::vector<State> queue;
  std::set<State> reached;
  cl.initial_states([&](const State& s) {
    if (reached.insert(s).second) queue.push_back(s);
  });
  std::uint64_t emitted_total = 0;
  std::uint64_t distinct_total = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const State s = queue[head];
    const Naive want = naive_successors(cl, s);
    std::vector<State> got;
    const std::uint64_t before = cl.emitted();
    cl.successors(s, [&](const State& t) { got.push_back(t); });
    ASSERT_EQ(got, want.distinct) << "state #" << head;
    ASSERT_EQ(cl.emitted() - before, want.emitted) << "state #" << head;
    if (cell.reduction == Reduction::kNone) {
      // The unpacked entry point walks the same kernel.
      std::vector<State> unpacked;
      cl.step_unpacked(cl.unpack(s), [&](const ClusterState& t) { unpacked.push_back(cl.pack(t)); });
      ASSERT_EQ(unpacked, want.distinct) << "state #" << head << " (step_unpacked)";
    }
    emitted_total += want.emitted;
    distinct_total += got.size();
    for (const State& t : got) {
      if (reached.insert(t).second) queue.push_back(t);
    }
  }
  EXPECT_GT(queue.size(), 1u);
  // The product really does repeat itself on every one of these cells.
  EXPECT_LT(distinct_total, emitted_total);
}

std::vector<OracleCell> oracle_grid() {
  std::vector<OracleCell> cells;
  for (int n : {2, 3, 4}) {
    for (CellClass k : {CellClass::kNodeFault, CellClass::kFaultyHub, CellClass::kRestarts,
                        CellClass::kTimeliness, CellClass::kFeedbackOff}) {
      for (Reduction r : {Reduction::kNone, Reduction::kSymmetry, Reduction::kPartialOrder,
                          Reduction::kSymPor}) {
        cells.push_back({n, k, r});
      }
    }
  }
  // A middle placement needs a correct node on both sides of the faulty one.
  for (int n : {3, 4}) {
    for (Reduction r : {Reduction::kNone, Reduction::kSymmetry, Reduction::kPartialOrder,
                        Reduction::kSymPor}) {
      cells.push_back({n, CellClass::kMiddleFault, r});
    }
  }
  return cells;
}

std::string cell_name(const ::testing::TestParamInfo<OracleCell>& info) {
  std::string red = to_string(info.param.reduction);
  if (red == "sym+por") red = "sympor";
  return "n" + std::to_string(info.param.n) + "_" + to_string(info.param.kind) + "_" + red;
}

INSTANTIATE_TEST_SUITE_P(Grid, DistinctSuccessors, ::testing::ValuesIn(oracle_grid()),
                         cell_name);

}  // namespace
}  // namespace tt::tta
