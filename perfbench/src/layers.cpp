#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "bmc/kinduction.hpp"
#include "mc/parallel_liveness.hpp"
#include "mc/parallel_reachability.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/trace.hpp"
#include "support/hash.hpp"
#include "support/recent_cache.hpp"
#include "support/sharded_state_index_map.hpp"
#include "tta/properties.hpp"
#include "tta/star_ir.hpp"

namespace ttbench {

namespace {

using State = tt::tta::Cluster::State;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

// One emission in kEmitStride has its callback timed; the callback total is
// scaled up from those. Timing every one of fig6 n=5's 8M emissions would
// add two clock reads to a ~40 ns step. The stride is odd so it cannot
// alias with the power-of-two-free but regular choice structure.
constexpr std::uint32_t kEmitStride = 17;
// Expanded states whose hash has these low bits clear join the sample; the
// sample is then cut to the kSampleCap lowest hashes. Hash selection keeps
// it independent of thread scheduling.
constexpr std::uint64_t kSampleMask = 63;
constexpr std::size_t kSampleCap = 512;
// Cap on the candidate streams the sample passes replay.
constexpr std::size_t kStreamCap = 200'000;
// Each microbenchmark repeats until it has run this long.
constexpr double kMicroSeconds = 0.05;
// Microbenchmark results land here so the timed loops cannot be elided.
volatile std::uint64_t g_sink = 0;

/// Mean cost of one now_ns() read, measured once. A timed emit interval
/// holds one read's worth of it and each timed emit adds two reads to the
/// enclosing successors() interval; both are taken back out.
double clock_read_ns() {
  static const double cost = [] {
    constexpr int kReads = 100'000;
    std::uint64_t sink = 0;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kReads; ++i) sink += now_ns();
    const std::uint64_t t1 = now_ns();
    g_sink = g_sink + sink;
    return static_cast<double>(t1 - t0) / kReads;
  }();
  return cost;
}

/// Per-thread accumulators of one traced call, one cache line apart.
struct alignas(64) Slot {
  std::uint64_t expansions = 0;
  std::uint64_t emitted = 0;
  std::uint64_t successors_ns = 0;  ///< inside Cluster::successors, callback included
  std::uint64_t timed_emit_ns = 0;  ///< inside the timed engine callbacks
  std::uint64_t timed_emits = 0;
  std::uint64_t last_return_ns = 0;
  std::uint32_t countdown = kEmitStride;
  std::vector<State> sample;
};

/// mc::TransitionSystem over a tta::Cluster that times the model's successor
/// generation apart from the engine's emit callback (hash, recent cache,
/// store find/insert). Threads get their own Slot on first use.
class TimedCluster {
 public:
  static constexpr std::size_t kWords = tt::tta::Cluster::kWords;
  using State = tt::tta::Cluster::State;

  explicit TimedCluster(const tt::tta::Cluster& cluster)
      : cluster_(cluster), generation_(next_generation()) {}
  TimedCluster(const TimedCluster&) = delete;
  TimedCluster& operator=(const TimedCluster&) = delete;

  template <class F>
  void initial_states(F&& emit) const {
    cluster_.initial_states(emit);
  }

  template <class F>
  void successors(const State& s, F&& emit) const {
    Slot& sl = slot();
    const std::uint64_t t0 = now_ns();
    cluster_.successors(s, [&](const State& t) {
      ++sl.emitted;
      if (--sl.countdown != 0) {
        emit(t);
        return;
      }
      sl.countdown = kEmitStride;
      const std::uint64_t a = now_ns();
      emit(t);
      sl.timed_emit_ns += now_ns() - a;
      ++sl.timed_emits;
    });
    const std::uint64_t t1 = now_ns();
    sl.successors_ns += t1 - t0;
    ++sl.expansions;
    sl.last_return_ns = t1;
    if ((tt::hash_words(s) & kSampleMask) == 0) sl.sample.push_back(s);
  }

  /// Every thread's accumulators; read only after the engine joined.
  [[nodiscard]] const std::vector<std::unique_ptr<Slot>>& slots() const { return slots_; }

 private:
  static std::uint64_t next_generation() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Slot& slot() const {
    thread_local std::uint64_t tl_generation = 0;
    thread_local Slot* tl_slot = nullptr;
    if (tl_generation != generation_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      tl_slot = slots_.back().get();
      tl_generation = generation_;
    }
    return *tl_slot;
  }

  const tt::tta::Cluster& cluster_;
  const std::uint64_t generation_;
  mutable std::mutex mu_;  // guards slots_ growth
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

tt::tta::Reduction to_tta(tt::mc::ReductionKind k) {
  switch (k) {
    case tt::mc::ReductionKind::kNone: return tt::tta::Reduction::kNone;
    case tt::mc::ReductionKind::kSymmetry: return tt::tta::Reduction::kSymmetry;
    case tt::mc::ReductionKind::kPartialOrder: return tt::tta::Reduction::kPartialOrder;
    case tt::mc::ReductionKind::kSymPor: return tt::tta::Reduction::kSymPor;
  }
  return tt::tta::Reduction::kNone;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Thread-summed seconds per span name over every drained event.
std::map<std::string, double> span_seconds(const tt::obs::Tracer& tracer, std::size_t& events) {
  std::map<std::string, double> out;
  events = 0;
  for (const tt::obs::ThreadEvents& te : tracer.drain()) {
    events += te.events.size();
    for (const tt::obs::TraceEvent& e : te.events) {
      if (e.kind == tt::obs::EventKind::kSpan) out[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
    }
  }
  return out;
}

double get(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

/// The explicit-engine call: returns the run's stats; fills the tta, store
/// and mc metrics from the adapter's slots and the drained spans.
TracedResult explicit_call(const Workload& w, const tt::tta::ClusterConfig& raw_cfg,
                           tt::obs::Tracer& tracer) {
  TracedResult out;
  const tt::tta::ClusterConfig cfg = tt::core::prepare_config(raw_cfg, lemma_of(w.kind));
  (void)clock_read_ns();  // calibrate outside the timed call
  const std::uint64_t t_start = now_ns();
  tt::mc::RunStats stats;
  const tt::tta::Cluster cluster(cfg, to_tta(w.reduction));
  const TimedCluster ts(cluster);
  {
    tt::obs::Span span("bench.engine");
    tt::mc::EngineOptions eopts;
    eopts.threads = w.threads;
    if (w.reduction != tt::mc::ReductionKind::kNone) {
      eopts.finalize_stats = [&](tt::mc::RunStats& st) {
        st.canon_ops = cluster.canon_ops();
        st.pruned_combos = cluster.pruned_combos();
      };
    }
    if (w.kind == Kind::kSafetyPar) {
      auto r = tt::mc::check_invariant_with(
          tt::mc::EngineKind::kParallel, ts,
          [&](const State& s) { return tt::tta::holds_safety(cfg, cluster.unpack(s)); }, eopts);
      out.outcome.holds = r.verdict == tt::mc::Verdict::kHolds;
      out.outcome.exhausted = r.verdict != tt::mc::Verdict::kLimit;
      stats = std::move(r.stats);
    } else {
      auto r = tt::mc::check_eventually_with(
          tt::mc::EngineKind::kParallel, ts,
          [&](const State& s) { return tt::tta::all_correct_active(cfg, cluster.unpack(s)); },
          eopts);
      out.outcome.holds = r.verdict == tt::mc::LivenessVerdict::kHolds;
      out.outcome.exhausted = r.verdict != tt::mc::LivenessVerdict::kLimit;
      stats = std::move(r.stats);
    }
  }
  const std::uint64_t t_end = now_ns();
  tracer.uninstall();
  out.wall_s = static_cast<double>(t_end - t_start) * 1e-9;
  out.outcome.states = stats.states;
  out.outcome.depth = stats.depth;
  out.outcome.transitions = stats.transitions;
  out.outcome.frontier = stats.frontier_sizes;

  double expansions = 0, emitted = 0, successors_s = 0, intern_s = 0;
  const double read_s = clock_read_ns() * 1e-9;
  std::uint64_t last_return = t_start;
  for (const auto& sl : ts.slots()) {
    const auto timed = static_cast<double>(sl->timed_emits);
    expansions += static_cast<double>(sl->expansions);
    emitted += static_cast<double>(sl->emitted);
    successors_s += static_cast<double>(sl->successors_ns) * 1e-9 - 2.0 * read_s * timed;
    intern_s += std::max(0.0, static_cast<double>(sl->timed_emit_ns) * 1e-9 - read_s * timed) *
                ratio(static_cast<double>(sl->emitted), timed);
    last_return = std::max(last_return, sl->last_return_ns);
    out.sample.insert(out.sample.end(), sl->sample.begin(), sl->sample.end());
  }
  std::sort(out.sample.begin(), out.sample.end(), [](const State& a, const State& b) {
    return tt::hash_words(a) < tt::hash_words(b);
  });
  if (out.sample.size() > kSampleCap) out.sample.resize(kSampleCap);

  std::size_t events = 0;
  const auto spans = span_seconds(tracer, events);
  const bool live = w.kind == Kind::kLivenessPar;
  const double busy = live ? get(spans, "owcty.expand") + get(spans, "owcty.drain") +
                                 get(spans, "owcty.trim_work")
                           : get(spans, "bfs.expand") + get(spans, "bfs.drain");
  const double capacity = static_cast<double>(stats.threads) * out.wall_s;
  std::size_t frontier_peak = 0;
  for (const std::size_t f : stats.frontier_sizes) frontier_peak = std::max(frontier_peak, f);
  const double states = static_cast<double>(stats.states);
  const double transitions = static_cast<double>(stats.transitions);

  out.metrics = {
      {"tta.gen_self_s", successors_s - intern_s, "s"},
      {"tta.expansions", expansions, "count"},
      {"tta.emitted", emitted, "count"},
      {"tta.emitted_per_expansion", ratio(emitted, expansions), "ratio"},
      {"tta.canon_ops", static_cast<double>(stats.canon_ops), "count"},
      {"tta.pruned_combos", static_cast<double>(stats.pruned_combos), "count"},
      {"store.intern_s", intern_s, "s"},
      {"store.fresh_ratio", ratio(states, transitions), "ratio"},
      {"store.cache_hit_ratio", ratio(static_cast<double>(stats.cache_hits), transitions),
       "ratio"},
      {"store.bytes_per_state", ratio(static_cast<double>(stats.memory_bytes), states), "bytes"},
      {"mc.busy_s", busy, "s"},
      {"mc.idle_s", capacity - busy, "s"},
      {"mc.parallel_efficiency", ratio(busy, capacity), "ratio"},
      {"mc.levels", static_cast<double>(stats.frontier_sizes.size()), "count"},
      {"mc.frontier_peak", static_cast<double>(frontier_peak), "count"},
      {"mc.tail_s", static_cast<double>(t_end - last_return) * 1e-9, "s"},
      {"mc.trim_rounds", static_cast<double>(stats.trim_rounds), "count"},
      {"obs.events", static_cast<double>(events), "count"},
  };
  return out;
}

/// The proof-engine call: StarIr build, then k-induction, as core::verify
/// runs them; fills the bmc and sat metrics.
TracedResult kind_call(const Workload& w, const tt::tta::ClusterConfig& raw_cfg,
                       tt::obs::Tracer& tracer) {
  TracedResult out;
  const tt::tta::ClusterConfig cfg = tt::core::prepare_config(raw_cfg, lemma_of(w.kind));
  const std::uint64_t t_start = now_ns();
  tt::bmc::ProofResult r;
  std::uint64_t t_built = 0;
  {
    tt::obs::Span span("bench.engine");
    const tt::tta::StarIr ir(cfg);
    t_built = now_ns();
    r = tt::bmc::check_invariant_kind(ir.system(), ir.safety_expr(), {});
  }
  const std::uint64_t t_end = now_ns();
  tracer.uninstall();
  out.wall_s = static_cast<double>(t_end - t_start) * 1e-9;
  out.outcome.holds = r.verdict == tt::bmc::ProofVerdict::kProved;
  out.outcome.exhausted = r.verdict != tt::bmc::ProofVerdict::kUnknown;
  if (r.verdict == tt::bmc::ProofVerdict::kProved) out.outcome.depth = r.depth;
  if (r.verdict == tt::bmc::ProofVerdict::kViolated) out.outcome.depth = r.depth / 2;

  std::size_t events = 0;
  const auto spans = span_seconds(tracer, events);
  // kind.diameter runs inside one kind.depth span: solver time is the
  // depth spans' self time.
  const double sweep = get(spans, "kind.diameter");
  out.metrics = {
      {"bmc.ir_build_s", static_cast<double>(t_built - t_start) * 1e-9, "s"},
      {"bmc.kind_s", static_cast<double>(t_end - t_built) * 1e-9, "s"},
      {"bmc.sweep_s", sweep, "s"},
      {"sat.solve_s", get(spans, "kind.depth") - sweep, "s"},
      {"sat.solver_calls", static_cast<double>(r.solver_calls), "count"},
      {"sat.clauses_reused", static_cast<double>(r.clauses_reused), "count"},
      {"sat.conflicts", static_cast<double>(r.total_conflicts), "count"},
      {"bmc.frames", static_cast<double>(r.frames), "count"},
      {"bmc.via_diameter", r.via_diameter ? 1.0 : 0.0, "count"},
      {"obs.events", static_cast<double>(events), "count"},
  };
  return out;
}

/// Runs `body` over `items` repeatedly for at least kMicroSeconds and
/// returns nanoseconds per item.
template <class Body>
double ns_per_item(std::size_t items, Body&& body) {
  if (items == 0) return 0.0;
  std::size_t reps = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t t1 = t0;
  do {
    body();
    ++reps;
    t1 = now_ns();
  } while (static_cast<double>(t1 - t0) * 1e-9 < kMicroSeconds);
  return static_cast<double>(t1 - t0) / static_cast<double>(reps * items);
}

}  // namespace

const std::vector<Metric>& layer_metric_names() {
  static const std::vector<Metric> all = {
      {"tta.gen_self_s", 0, "s"},
      {"tta.expansions", 0, "count"},
      {"tta.emitted", 0, "count"},
      {"tta.emitted_per_expansion", 0, "ratio"},
      {"tta.distinct_per_emitted", 0, "ratio"},
      {"tta.reduce_ns", 0, "ns"},
      {"tta.canon_ops", 0, "count"},
      {"tta.pruned_combos", 0, "count"},
      {"store.intern_s", 0, "s"},
      {"store.intern_ns", 0, "ns"},
      {"store.fresh_ratio", 0, "ratio"},
      {"store.cache_hit_ratio", 0, "ratio"},
      {"store.bytes_per_state", 0, "bytes"},
      {"mc.busy_s", 0, "s"},
      {"mc.idle_s", 0, "s"},
      {"mc.parallel_efficiency", 0, "ratio"},
      {"mc.levels", 0, "count"},
      {"mc.frontier_peak", 0, "count"},
      {"mc.tail_s", 0, "s"},
      {"mc.trim_rounds", 0, "count"},
      {"bmc.ir_build_s", 0, "s"},
      {"bmc.kind_s", 0, "s"},
      {"bmc.sweep_s", 0, "s"},
      {"sat.solve_s", 0, "s"},
      {"sat.solver_calls", 0, "count"},
      {"sat.clauses_reused", 0, "count"},
      {"sat.conflicts", 0, "count"},
      {"bmc.frames", 0, "count"},
      {"bmc.via_diameter", 0, "count"},
      {"obs.events", 0, "count"},
      {"obs.trace_overhead", 0, "ratio"},
  };
  return all;
}

TracedResult traced_call(const Workload& w, const tt::tta::ClusterConfig& cfg,
                         const std::string& chrome_out) {
  tt::obs::Tracer tracer;
  tracer.install();
  TracedResult out = w.kind == Kind::kKInduction ? kind_call(w, cfg, tracer)
                                                 : explicit_call(w, cfg, tracer);
  if (!chrome_out.empty() && !tt::obs::write_chrome_trace(tracer, chrome_out)) {
    throw std::runtime_error("cannot write Chrome trace " + chrome_out);
  }
  return out;
}

std::vector<Metric> sample_metrics(const Workload& w, const tt::tta::ClusterConfig& raw_cfg,
                                   const std::vector<State>& sample) {
  const tt::tta::ClusterConfig cfg = tt::core::prepare_config(raw_cfg, lemma_of(w.kind));
  const tt::tta::Cluster cluster(cfg, to_tta(w.reduction));
  const tt::tta::Cluster raw(cfg, tt::tta::Reduction::kNone);

  // Set-distinct successors per emission, and the candidate stream the
  // engine saw from these states (for the intern microbenchmark).
  double emitted = 0, distinct = 0;
  std::vector<State> stream, succ;
  for (const State& s : sample) {
    succ.clear();
    cluster.successors(s, [&](const State& t) { succ.push_back(t); });
    if (stream.size() < kStreamCap) stream.insert(stream.end(), succ.begin(), succ.end());
    emitted += static_cast<double>(succ.size());
    std::sort(succ.begin(), succ.end());
    distinct += static_cast<double>(std::unique(succ.begin(), succ.end()) - succ.begin());
  }

  std::vector<State> raw_succ;
  for (const State& s : sample) {
    if (raw_succ.size() >= kStreamCap) break;
    raw.successors(s, [&](const State& t) { raw_succ.push_back(t); });
  }
  std::uint64_t sink = 0;
  const double reduce_ns = ns_per_item(raw_succ.size(), [&] {
    for (const State& t : raw_succ) sink ^= cluster.reduce(t)[0];
  });

  // The engine's intern path on the default (lock-striped) store: hash
  // once, recent cache, then find and insert.
  const double intern_ns = ns_per_item(stream.size(), [&] {
    tt::ShardedStateIndexMap<tt::tta::Cluster::kWords> map(16);
    tt::RecentSeenCache cache;
    for (const State& t : stream) {
      const std::uint64_t h = tt::hash_words(t);
      const std::uint32_t hint = cache.lookup(h);
      if (hint != tt::RecentSeenCache::kMiss && map.at(hint) == t) continue;
      std::uint32_t id = map.find(t, h);
      if (id == decltype(map)::kEmpty) id = map.insert_serial(t, h).first;
      cache.remember(h, id);
    }
    sink ^= map.size();
  });
  g_sink = g_sink + sink;

  return {
      {"tta.distinct_per_emitted", ratio(distinct, emitted), "ratio"},
      {"tta.reduce_ns", reduce_ns, "ns"},
      {"store.intern_ns", intern_ns, "ns"},
  };
}

}  // namespace ttbench
