#include "tta/cluster.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "support/assert.hpp"
#include "support/bitpack.hpp"
#include "support/hash.hpp"
#include "tta/independence.hpp"
#include "tta/symmetry.hpp"

namespace tt::tta {

Cluster::Cluster(ClusterConfig cfg, Reduction reduction) : cfg_(cfg), reduction_(reduction) {
  cfg_.validate();
  // Under symmetry reduction the faulty node's provably-faulty emissions are
  // collapsed to one class representative per channel — exact only when both
  // guardians are correct (a faulty hub forwards raw frames verbatim, so
  // receivers could distinguish class members). See FaultyNodeOutputs.
  const bool collapse = reduction_has_symmetry(reduction_) &&
                        cfg_.faulty_hub == ClusterConfig::kNone;
  faulty_outputs_ = FaultyNodeOutputs(cfg_, collapse);

  counter_bits_ = bits_for(static_cast<std::uint64_t>(cfg_.max_count()) + 1);
  pos_bits_ = bits_for(static_cast<std::uint64_t>(cfg_.n));
  frame_bits_ = 2 + pos_bits_ + 1;
  st_bits_ = cfg_.timeliness_bound > 0
                 ? bits_for(static_cast<std::uint64_t>(cfg_.timeliness_bound) + 3)
                 : 0;
  restart_bits_ = cfg_.transient_restarts > 0
                      ? bits_for(static_cast<std::uint64_t>(cfg_.transient_restarts) + 1)
                      : 0;

  int bits = 0;
  bits += cfg_.n * (3 + counter_bits_ + pos_bits_ + 1);
  node_bits_ = bits;
  for (int h = 0; h < 2; ++h) {
    if (cfg_.hub_is_faulty(h)) {
      bits += 3 + 2 * cfg_.n + cfg_.n * frame_bits_;
    } else {
      bits += 3 + counter_bits_ + pos_bits_ + cfg_.n + frame_bits_;
    }
  }
  bits += st_bits_;
  bits += restart_bits_;
  TT_REQUIRE(bits <= static_cast<int>(kWords * 64), "state exceeds packed capacity");
  state_bits_ = bits;
}

void Cluster::pack_node_prefix(State& s, const NodeVars* nodes) const {
  BitWriter w(s.data(), kWords);
  for (int i = 0; i < cfg_.n; ++i) {
    const NodeVars& v = nodes[i];
    w.put(static_cast<std::uint64_t>(v.state), 3);
    w.put(v.counter, counter_bits_);
    w.put(v.pos, pos_bits_);
    w.put(v.big_bang ? 1 : 0, 1);
  }
  TT_ASSERT(w.bits_written() == node_bits_);
}

void Cluster::pack_hub_suffix(State& s, const HubVars& h0, const HubVars& h1,
                              std::uint8_t startup_time, std::uint8_t restarts_used) const {
  BitWriter w(s.data(), kWords, node_bits_);
  auto put_frame = [&](const Frame& f) {
    w.put_fast(static_cast<std::uint64_t>(f.kind), 2);
    w.put_fast(f.time, pos_bits_);
    w.put_fast(f.ok ? 1 : 0, 1);
  };
  const HubVars* hubs[2] = {&h0, &h1};
  for (int h = 0; h < 2; ++h) {
    const HubVars& v = *hubs[h];
    w.put_fast(static_cast<std::uint64_t>(v.state), 3);
    if (cfg_.hub_is_faulty(h)) {
      w.put_fast(v.pattern, 2 * cfg_.n);
      for (int j = 0; j < cfg_.n; ++j) put_frame(v.out_per_port[j]);
    } else {
      w.put_fast(v.counter, counter_bits_);
      w.put_fast(v.slot_pos, pos_bits_);
      w.put_fast(v.locks, cfg_.n);
      put_frame(v.out);
    }
  }
  if (st_bits_ > 0) w.put_fast(startup_time, st_bits_);
  if (restart_bits_ > 0) w.put_fast(restarts_used, restart_bits_);
  TT_ASSERT(w.bits_written() == state_bits_);
}

Cluster::State Cluster::pack(const ClusterState& c) const {
  State s{};
  pack_node_prefix(s, c.node);
  pack_hub_suffix(s, c.hub[0], c.hub[1], c.startup_time, c.restarts_used);
  return s;
}

ClusterState Cluster::unpack(const State& s) const {
  ClusterState c;
  BitReader r(s.data(), kWords);
  auto get_frame = [&]() {
    Frame f;
    f.kind = static_cast<MsgKind>(r.get(2));
    f.time = static_cast<std::uint8_t>(r.get(pos_bits_));
    f.ok = r.get(1) != 0;
    return f;
  };
  for (int i = 0; i < cfg_.n; ++i) {
    NodeVars& v = c.node[i];
    v.state = static_cast<NodeState>(r.get(3));
    v.counter = static_cast<std::uint8_t>(r.get(counter_bits_));
    v.pos = static_cast<std::uint8_t>(r.get(pos_bits_));
    v.big_bang = r.get(1) != 0;
  }
  for (int h = 0; h < 2; ++h) {
    HubVars& v = c.hub[h];
    v = HubVars{};
    v.state = static_cast<HubState>(r.get(3));
    if (cfg_.hub_is_faulty(h)) {
      v.counter = 0;
      v.pattern = static_cast<std::uint16_t>(r.get(2 * cfg_.n));
      for (int j = 0; j < cfg_.n; ++j) v.out_per_port[j] = get_frame();
    } else {
      v.counter = static_cast<std::uint8_t>(r.get(counter_bits_));
      v.slot_pos = static_cast<std::uint8_t>(r.get(pos_bits_));
      v.locks = static_cast<std::uint8_t>(r.get(cfg_.n));
      v.out = get_frame();
    }
  }
  c.startup_time = st_bits_ > 0 ? static_cast<std::uint8_t>(r.get(st_bits_)) : 0;
  c.restarts_used = restart_bits_ > 0 ? static_cast<std::uint8_t>(r.get(restart_bits_)) : 0;
  TT_ASSERT(r.bits_read() == state_bits_);
  return c;
}

ClusterState Cluster::base_initial_state() const {
  ClusterState c;
  for (int i = 0; i < cfg_.n; ++i) {
    if (cfg_.node_is_faulty(i)) {
      c.node[i] = faulty_node_vars(cfg_, 0);
    } else {
      c.node[i] = NodeVars{};  // INIT, counter 1, big-bang armed
    }
  }
  for (int h = 0; h < 2; ++h) {
    c.hub[h] = HubVars{};
    if (cfg_.hub_is_faulty(h)) {
      c.hub[h].state = HubState::kFaulty;
      c.hub[h].counter = 0;
    }
  }
  c.startup_time = 0;
  return c;
}

void Cluster::initial_states(Emit emit) const {
  // The partial-order clamp is the identity on every initial state (no
  // correct node is in LISTEN yet, so there is no slack to clamp), so only
  // the symmetry component matters here and each emission stays a fixed
  // point of `reduce` in every mode.
  ClusterState c = base_initial_state();
  if (reduction_has_symmetry(reduction_)) {
    // Emit canonical representatives directly, so the emissions stay
    // pairwise distinct and the hash-once invariant (hash_ops ==
    // transitions + initial emissions) is preserved. The base state is
    // already canonical except for C0 (big-bang bits) and the faulty-hub
    // pattern dimension: C2 restricts each port to {kRelay, kQuiet}, with
    // the faulty node's own port pinned to kQuiet.
    const Canonicalizer canon(cfg_);
    canon.canonicalize_vars(c);
    std::uint64_t emitted = 0;
    if (cfg_.faulty_hub == ClusterConfig::kNone) {
      emit(pack(c));
      emitted = 1;
    } else {
      int free_ports[kMaxNodes];
      int free_count = 0;
      HubVars& fh = c.hub[cfg_.faulty_hub];
      for (int j = 0; j < cfg_.n; ++j) {
        fh.set_port_mode(j, HubPortMode::kQuiet);
        if (!cfg_.node_is_faulty(j)) free_ports[free_count++] = j;
      }
      for (std::uint32_t bits = 0; bits < (1u << free_count); ++bits) {
        for (int k = 0; k < free_count; ++k) {
          fh.set_port_mode(free_ports[k], ((bits >> k) & 1u) != 0 ? HubPortMode::kRelay
                                                                  : HubPortMode::kQuiet);
        }
        emit(pack(c));
        ++emitted;
      }
    }
    canon_ops_.fetch_add(emitted, std::memory_order_relaxed);
    return;
  }
  if (cfg_.faulty_hub == ClusterConfig::kNone) {
    emit(pack(c));
    return;
  }
  const int total = pow3(cfg_.n);
  for (int p = 0; p < total; ++p) {
    HubVars& fh = c.hub[cfg_.faulty_hub];
    fh.pattern = 0;
    int rest = p;
    for (int j = 0; j < cfg_.n; ++j) {
      fh.set_port_mode(j, static_cast<HubPortMode>(rest % 3));
      rest /= 3;
    }
    emit(pack(c));
  }
}

/// Per-worker working memory of the successor kernel (DESIGN.md §3.2). One
/// heap object per thread, reused across calls through generation stamps
/// instead of clearing; only a pointer lives in TLS (a large static TLS
/// block would be zeroed at every thread start). It holds
///  * the hub-phase memo of the current *epoch* — one assignment of the
///    correct nodes' choices inside one step_core call, so every input of a
///    hub except the faulty node's frame on its channel is fixed: per
///    channel, that frame -> relay options and decisions, and (frame, relay
///    option, interlink input, state option) -> a per-epoch id of the
///    resulting hub value (equal values share one id);
///  * the (id0, id1) hub pairs already passed to the sink this epoch;
///  * the packed successors already emitted by the current call.
class SuccessorScratch {
 public:
  struct Relay {
    int options = 0;
    RelayDecision decision[kMaxNodes];  ///< correct hub only (options <= n)
  };
  struct Result {
    std::uint16_t id = 0;
    Frame interlink;  ///< faulty hub: its own interlink output
  };

  SuccessorScratch() {
    memo_.resize(std::size_t{1} << memo_bits_);
    seen_.resize(std::size_t{1} << seen_bits_);
  }

  /// Starts a successors() call: empties the first-occurrence set.
  void begin_call() {
    if (++call_ == 0) {
      for (SeenSlot& e : seen_) e.stamp = 0;
      call_ = 1;
    }
    seen_count_ = 0;
    emitted = 0;
  }

  /// Starts an epoch: forgets every memoised hub result and pair.
  void begin_epoch() {
    if (++epoch_ == 0) {
      for (auto& stamps : frame_epoch_) std::fill(std::begin(stamps), std::end(stamps), 0u);
      for (MemoSlot& e : memo_) e.epoch = 0;
      epoch_ = 1;
    }
    for (int h = 0; h < kNumChannels; ++h) {
      relay_used_[h] = 0;
      values_[h].clear();
    }
    memo_count_ = 0;
    std::fill(std::begin(pairs_), std::end(pairs_), 0u);
  }

  /// Channel h's relay entry for the faulty node's frame `code` (fill()
  /// computes it on the first request of the epoch).
  template <class Fill>
  const Relay& relay(int h, int code, Fill&& fill) {
    if (frame_epoch_[h][code] != epoch_) {
      frame_epoch_[h][code] = epoch_;
      const int slot = relay_used_[h]++;
      frame_slot_[h][code] = static_cast<std::uint8_t>(slot);
      if (static_cast<std::size_t>(slot) == relay_[h].size()) relay_[h].emplace_back();
      fill(relay_[h][static_cast<std::size_t>(slot)]);
    }
    return relay_[h][frame_slot_[h][code]];
  }

  /// The memoised hub result under `key` (compute() fills it on a miss).
  template <class Compute>
  Result result(std::uint32_t key, Compute&& compute) {
    if (2 * (memo_count_ + 1) > memo_.size()) grow_memo();
    std::size_t i = memo_index(key);
    while (memo_[i].epoch == epoch_) {
      if (memo_[i].key == key) return memo_[i].value;
      i = (i + 1) & (memo_.size() - 1);
    }
    const Result r = compute();
    memo_[i] = {epoch_, key, r};
    ++memo_count_;
    return r;
  }

  /// Per-epoch id of hub value `v` on channel h (equal values, equal ids).
  std::uint16_t intern(int h, const HubVars& v) {
    std::vector<HubVars>& vals = values_[h];
    for (std::size_t i = 0; i < vals.size(); ++i) {
      if (vals[i] == v) return static_cast<std::uint16_t>(i);
    }
    TT_ASSERT(vals.size() < 0xFFFF);
    vals.push_back(v);
    return static_cast<std::uint16_t>(vals.size() - 1);
  }

  [[nodiscard]] const HubVars& value(int h, std::uint16_t id) const {
    return values_[h][id];
  }

  /// False when the pair was already passed on this epoch. Pairs beyond the
  /// bitmap always pass; the first-occurrence set still catches them.
  bool first_pair(std::uint16_t id0, std::uint16_t id1) {
    if (id0 >= kPairIds || id1 >= kPairIds) return true;
    const std::uint64_t bit = std::uint64_t{1} << id1;
    if ((pairs_[id0] & bit) != 0) return false;
    pairs_[id0] |= bit;
    return true;
  }

  /// False when `s` was already emitted by the current call.
  bool first_occurrence(const Cluster::State& s) {
    if (2 * (seen_count_ + 1) > seen_.size()) grow_seen();
    std::size_t i = hash_words(s) & (seen_.size() - 1);
    while (seen_[i].stamp == call_) {
      if (seen_[i].s == s) return false;
      i = (i + 1) & (seen_.size() - 1);
    }
    seen_[i] = {s, call_};
    ++seen_count_;
    return true;
  }

  bool busy = false;          ///< a successors() call on this thread owns it
  std::uint64_t emitted = 0;  ///< labelled successors of the current call

 private:
  static constexpr int kFrameCodes = 64;
  static constexpr std::uint16_t kPairIds = 64;

  struct MemoSlot {
    std::uint32_t epoch = 0;
    std::uint32_t key = 0;
    Result value;
  };
  struct SeenSlot {
    Cluster::State s{};
    std::uint32_t stamp = 0;
  };

  [[nodiscard]] std::size_t memo_index(std::uint32_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - memo_bits_));
  }

  void grow_memo() {
    std::vector<MemoSlot> old(std::size_t{1} << ++memo_bits_);
    old.swap(memo_);
    for (const MemoSlot& e : old) {
      if (e.epoch != epoch_) continue;
      std::size_t i = memo_index(e.key);
      while (memo_[i].epoch == epoch_) i = (i + 1) & (memo_.size() - 1);
      memo_[i] = e;
    }
  }

  void grow_seen() {
    std::vector<SeenSlot> old(std::size_t{1} << ++seen_bits_);
    old.swap(seen_);
    for (const SeenSlot& e : old) {
      if (e.stamp != call_) continue;
      std::size_t i = hash_words(e.s) & (seen_.size() - 1);
      while (seen_[i].stamp == call_) i = (i + 1) & (seen_.size() - 1);
      seen_[i] = e;
    }
  }

  std::uint32_t epoch_ = 0;
  std::uint32_t call_ = 0;
  std::uint32_t frame_epoch_[kNumChannels][kFrameCodes] = {};
  std::uint8_t frame_slot_[kNumChannels][kFrameCodes] = {};
  std::vector<Relay> relay_[kNumChannels];
  int relay_used_[kNumChannels] = {};
  std::vector<HubVars> values_[kNumChannels];
  std::vector<MemoSlot> memo_;
  int memo_bits_ = 8;
  std::size_t memo_count_ = 0;
  std::uint64_t pairs_[kPairIds] = {};
  std::vector<SeenSlot> seen_;
  int seen_bits_ = 6;
  std::size_t seen_count_ = 0;
};

namespace {

/// Lends the calling thread its scratch for one call. A re-entrant call
/// (successors() from inside an emit callback) gets a private one.
class ScratchLease {
 public:
  ScratchLease() {
    thread_local std::unique_ptr<SuccessorScratch> tl_scratch;
    if (!tl_scratch) tl_scratch = std::make_unique<SuccessorScratch>();
    if (tl_scratch->busy) {
      own_ = std::make_unique<SuccessorScratch>();
      scratch_ = own_.get();
    } else {
      scratch_ = tl_scratch.get();
    }
    scratch_->busy = true;
    scratch_->begin_call();
  }
  ~ScratchLease() { scratch_->busy = false; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  [[nodiscard]] SuccessorScratch& get() const { return *scratch_; }

 private:
  std::unique_ptr<SuccessorScratch> own_;
  SuccessorScratch* scratch_ = nullptr;
};

/// Injective 6-bit code of a frame (kind, ok, time < 8): the memo key of a
/// channel's faulty-node frame and of an interlink input.
int frame_code(const Frame& f) noexcept {
  TT_ASSERT(f.time < 8);
  return static_cast<int>(f.kind) | (f.ok ? 4 : 0) | (f.time << 3);
}

/// Memo key of one hub result: channel, the faulty node's frame on it,
/// relay option (< 16), interlink input, state option.
std::uint32_t result_key(int h, int frame, int relay, const Frame& interlink, int state) {
  TT_ASSERT(relay < 16 && state < 2);
  return static_cast<std::uint32_t>(
      ((((h * 64 + frame) * 16 + relay) * 64 + frame_code(interlink)) << 1) | state);
}

/// Sink for the generic (unpacked) consumers: materializes a full
/// ClusterState per distinct successor, for the trace printer and the
/// interactive examples.
struct UnpackSink {
  const Cluster& cl;
  Cluster::EmitUnpacked emit;
  SuccessorScratch& sc;
  const NodeVars* nodes = nullptr;

  void combo(const NodeVars* next_nodes) { nodes = next_nodes; }

  void successor(const HubVars& h0, const HubVars& h1, std::uint8_t startup_time,
                 std::uint8_t restarts_used) {
    ClusterState t;
    for (int i = 0; i < cl.config().n; ++i) t.node[i] = nodes[i];
    t.hub[0] = h0;
    t.hub[1] = h1;
    t.startup_time = startup_time;
    t.restarts_used = restarts_used;
    if (sc.first_occurrence(cl.pack(t))) emit(t);
  }
};

}  // namespace

void Cluster::successors(const State& s, Emit emit) const {
  // Prefix-sharing packer: the node fields occupy a fixed prefix of the bit
  // layout, serialized once per combo() (a correct node's choice changed);
  // each successor then copies kWords words and packs the hub suffix.
  struct PackSink {
    const Cluster& cl;
    Emit& emit;
    SuccessorScratch& sc;
    const PartialOrderReducer* por = nullptr;  ///< null = no por component
    State prefix{};
    NodeVars nodes[kMaxNodes] = {};
    PartialOrderReducer::ComboPlan plan = {};
    PorStats stats = {};

    void combo(const NodeVars* next_nodes) {
      prefix = State{};
      cl.pack_node_prefix(prefix, next_nodes);
      if (por != nullptr) {
        for (int i = 0; i < cl.cfg_.n; ++i) nodes[i] = next_nodes[i];
        por->prepare(nodes, plan);
      }
    }

    void successor(const HubVars& h0, const HubVars& h1, std::uint8_t startup_time,
                   std::uint8_t restarts_used) {
      State t = prefix;
      if (por != nullptr) {
        int cap = 0;
        const auto o = por->decide(plan, h0, h1, restarts_used, cap);
        if (o == PartialOrderReducer::Outcome::kDeclined) {
          ++stats.proviso_fallbacks;
        } else {
          ++stats.ample_sets;
          if (o == PartialOrderReducer::Outcome::kClamped) {
            ++stats.pruned_combos;
            NodeVars clamped[kMaxNodes];
            for (int i = 0; i < cl.cfg_.n; ++i) clamped[i] = nodes[i];
            por->clamp(plan, cap, clamped);
            t = State{};
            cl.pack_node_prefix(t, clamped);
          }
        }
      }
      cl.pack_hub_suffix(t, h0, h1, startup_time, restarts_used);
      if (sc.first_occurrence(t)) emit(t);
    }
  };

  // Orbit-canonicalizing packer (DESIGN.md §3.6): same prefix-sharing shape,
  // but the node prefix is serialized *after* C0/C4 (which pin the faulty
  // node's record, making the prefix swap-invariant) and every successor's
  // delivered-frame pair passes through C1/C2/C5 before packing — so the
  // word-wise lexicographic minimum of the state and its swapped image is
  // what reaches hash_words, and the whole downstream pipeline (cache,
  // interning, engines) sees only orbit representatives.
  struct CanonPackSink {
    const Cluster& cl;
    const Canonicalizer& canon;
    Emit& emit;
    SuccessorScratch& sc;
    const PartialOrderReducer* por = nullptr;  ///< null = no por component
    State prefix{};
    NodeVars canon_nodes[kMaxNodes] = {};
    bool listener[kMaxNodes] = {};
    bool any_listener = false;
    bool swap_combo = false;
    std::uint64_t ops = 0;
    std::uint64_t swaps = 0;
    PartialOrderReducer::ComboPlan plan = {};
    PorStats stats = {};

    void combo(const NodeVars* nodes) {
      for (int i = 0; i < cl.cfg_.n; ++i) canon_nodes[i] = nodes[i];
      canon.canonicalize_nodes(canon_nodes, listener, any_listener);
      prefix = State{};
      cl.pack_node_prefix(prefix, canon_nodes);
      swap_combo = canon.swap_allowed();
      // The clamp plan reads the canonical node array, so the horizon
      // certificate and the emitted representative agree with what
      // Cluster::reduce computes for the same orbit.
      if (por != nullptr) por->prepare(canon_nodes, plan);
    }

    void successor(const HubVars& h0, const HubVars& h1, std::uint8_t startup_time,
                   std::uint8_t restarts_used) {
      ++ops;
      HubVars a = h0;
      HubVars b = h1;
      canon.canonicalize_hubs(a, b, listener, any_listener);
      const State* base = &prefix;
      State clamped_prefix;
      if (por != nullptr) {
        // Both swap images share the node prefix (C4 pins the faulty
        // record), and the horizon is channel-symmetric, so one decision
        // covers the pair and the swap minimum is taken over clamped images.
        int cap = 0;
        const auto o = por->decide(plan, a, b, restarts_used, cap);
        if (o == PartialOrderReducer::Outcome::kDeclined) {
          ++stats.proviso_fallbacks;
        } else {
          ++stats.ample_sets;
          if (o == PartialOrderReducer::Outcome::kClamped) {
            ++stats.pruned_combos;
            NodeVars clamped[kMaxNodes];
            for (int i = 0; i < cl.cfg_.n; ++i) clamped[i] = canon_nodes[i];
            por->clamp(plan, cap, clamped);
            clamped_prefix = State{};
            cl.pack_node_prefix(clamped_prefix, clamped);
            base = &clamped_prefix;
          }
        }
      }
      State norm = *base;
      cl.pack_hub_suffix(norm, a, b, startup_time, restarts_used);
      if (swap_combo && Canonicalizer::swap_eligible(a, b)) {
        // The canonical form of the swapped orbit image: C5's pair
        // representative is an unordered-pair invariant, so the frame
        // fields stay put while state/counter/slot/locks exchange channels.
        HubVars sa = b;
        HubVars sb = a;
        sa.out = a.out;
        sb.out = b.out;
        State sw = *base;
        cl.pack_hub_suffix(sw, sa, sb, startup_time, restarts_used);
        if (sw < norm) {
          ++swaps;
          norm = sw;
        }
      }
      if (sc.first_occurrence(norm)) emit(norm);
    }
  };

  const ScratchLease lease;
  SuccessorScratch& sc = lease.get();
  const ClusterState c = unpack(s);
  const PartialOrderReducer reducer(cfg_);
  const PartialOrderReducer* por = reduction_has_por(reduction_) ? &reducer : nullptr;
  if (!reduction_has_symmetry(reduction_)) {
    PackSink sink{*this, emit, sc, por};
    step_all(c, sink, sc);
    if (por != nullptr) flush_por_stats(sink.stats);
  } else {
    const Canonicalizer canon(cfg_);
    CanonPackSink sink{*this, canon, emit, sc, por};
    step_all(c, sink, sc);
    canon_ops_.fetch_add(sink.ops, std::memory_order_relaxed);
    canon_swaps_.fetch_add(sink.swaps, std::memory_order_relaxed);
    if (por != nullptr) flush_por_stats(sink.stats);
  }
  emitted_.fetch_add(sc.emitted, std::memory_order_relaxed);
}

void Cluster::flush_por_stats(const PorStats& stats) const {
  por_ample_.fetch_add(stats.ample_sets, std::memory_order_relaxed);
  por_pruned_.fetch_add(stats.pruned_combos, std::memory_order_relaxed);
  por_declined_.fetch_add(stats.proviso_fallbacks, std::memory_order_relaxed);
}

Cluster::State Cluster::min_swap_pack(const ClusterState& c, const Canonicalizer& canon) const {
  State a = pack(c);
  if (canon.swap_allowed() && Canonicalizer::swap_eligible(c.hub[0], c.hub[1])) {
    ClusterState swapped = c;
    canon.swap_channels(swapped);
    // Restore C5's frame placement (an unordered-pair invariant), which is
    // what re-canonicalizing the swapped image would produce; all other
    // fields are already canonical.
    std::swap(swapped.hub[0].out, swapped.hub[1].out);
    const State b = pack(swapped);
    if (b < a) return b;
  }
  return a;
}

Cluster::State Cluster::canonicalize(const State& s) const {
  ClusterState c = unpack(s);
  const Canonicalizer canon(cfg_);
  bool listener[kMaxNodes] = {};
  bool any_listener = false;
  canon.canonicalize_nodes(c.node, listener, any_listener);
  canon.canonicalize_hubs(c.hub[0], c.hub[1], listener, any_listener);
  return min_swap_pack(c, canon);
}

Cluster::State Cluster::reduce(const State& s) const {
  switch (reduction_) {
    case Reduction::kNone:
      return s;
    case Reduction::kSymmetry:
      return canonicalize(s);
    case Reduction::kPartialOrder: {
      ClusterState c = unpack(s);
      PartialOrderReducer(cfg_).saturate(c);
      return pack(c);
    }
    case Reduction::kSymPor: {
      ClusterState c = unpack(s);
      const Canonicalizer canon(cfg_);
      bool listener[kMaxNodes] = {};
      bool any_listener = false;
      canon.canonicalize_nodes(c.node, listener, any_listener);
      canon.canonicalize_hubs(c.hub[0], c.hub[1], listener, any_listener);
      // The clamp touches only canonical LISTEN counters, which both swap
      // images share, so deciding before the swap minimum matches the
      // emission path exactly.
      PartialOrderReducer(cfg_).saturate(c);
      return min_swap_pack(c, canon);
    }
  }
  return s;
}

void Cluster::step_unpacked(const ClusterState& c, EmitUnpacked emit) const {
  const ScratchLease lease;
  UnpackSink sink{*this, emit, lease.get()};
  step_all(c, sink, lease.get());
}

Cluster::StartupPre Cluster::startup_pre(const NodeVars* nodes) const {
  StartupPre pre;
  if (cfg_.timeliness_bound == 0) return pre;
  int awake = 0;
  for (int i = 0; i < cfg_.n; ++i) {
    if (cfg_.node_is_faulty(i)) continue;
    if (nodes[i].state == NodeState::kActive) pre.node_target = true;
    if (nodes[i].state == NodeState::kListen || nodes[i].state == NodeState::kColdstart) {
      ++awake;
    }
  }
  pre.awake2 = awake >= 2;
  return pre;
}

std::uint8_t Cluster::startup_from(const StartupPre& pre, const HubVars& h0, const HubVars& h1,
                                   std::uint8_t prev) const {
  const int bound = cfg_.timeliness_bound;
  if (bound == 0) return 0;
  const auto done = static_cast<std::uint8_t>(bound + 2);
  if (prev == done) return done;

  bool target;
  if (cfg_.timeliness_target == TimelinessTarget::kFirstCorrectActive) {
    target = pre.node_target;
  } else {
    const HubVars& hc = cfg_.faulty_hub == 0 ? h1 : h0;  // first correct hub
    target = hc.state == HubState::kTentative || hc.state == HubState::kActive;
  }
  if (target) return done;

  if (prev == 0) return pre.awake2 ? 1 : 0;
  return static_cast<std::uint8_t>(std::min<int>(prev + 1, bound + 1));
}

std::uint8_t Cluster::next_startup_time(const ClusterState& next, std::uint8_t prev) const {
  // Delegates to the split hot-path pieces so the two can never diverge.
  return startup_from(startup_pre(next.node), next.hub[0], next.hub[1], prev);
}

template <class Sink>
void Cluster::step_all(const ClusterState& c, Sink& sink, SuccessorScratch& scratch) const {
  step_core(c, -1, sink, scratch);
  // The restart dimension (paper §2.1): while budget remains, any one
  // correct node may be reset to INIT by a transient fault this step.
  if (cfg_.transient_restarts > 0 && c.restarts_used < cfg_.transient_restarts) {
    for (int r = 0; r < cfg_.n; ++r) {
      if (!cfg_.node_is_faulty(r)) step_core(c, r, sink, scratch);
    }
  }
}

template <class Sink>
void Cluster::step_core(const ClusterState& c, int restart_node, Sink& sink,
                        SuccessorScratch& scratch) const {
  const int n = cfg_.n;
  const int fn = cfg_.faulty_node;  // kNone when every node is correct

  // Frames delivered to each node in the previous slot.
  Frame node_in[kMaxNodes][kNumChannels];
  for (int i = 0; i < n; ++i) {
    for (int h = 0; h < kNumChannels; ++h) {
      node_in[i][h] = c.hub[h].delivered(i, cfg_.hub_is_faulty(h));
    }
  }

  // Lock status fed back to the faulty node (guardian -> node "feedback").
  std::uint8_t fn_locks = 0;
  if (fn != ClusterConfig::kNone) {
    for (int h = 0; h < kNumChannels; ++h) {
      if (!cfg_.hub_is_faulty(h) && ((c.hub[h].locks >> fn) & 1u)) {
        fn_locks = static_cast<std::uint8_t>(fn_locks | (1u << h));
      }
    }
  }
  const auto& fpairs = faulty_outputs_.pairs(fn_locks);

  // --- Node phase: precompute each node's options. Correct nodes have at
  // most two (INIT wake-up nondeterminism); the faulty node has one per
  // admitted output pair.
  int nopt[kMaxNodes];
  NodeVars copt_vars[kMaxNodes][2];
  Frame copt_out[kMaxNodes][2];
  const NodeVars faulty_next =
      fn != ClusterConfig::kNone ? faulty_node_vars(cfg_, fn_locks) : NodeVars{};
  for (int i = 0; i < n; ++i) {
    if (i == restart_node) {
      // Transient fault: the node powers up afresh and transmits nothing.
      nopt[i] = 1;
      copt_vars[i][0] = NodeVars{};
      copt_out[i][0] = Frame::quiet();
    } else if (i == fn) {
      nopt[i] = static_cast<int>(fpairs.size());
    } else {
      nopt[i] = node_option_count(cfg_, c.node[i]);
      TT_ASSERT(nopt[i] <= 2);
      for (int o = 0; o < nopt[i]; ++o) {
        const NodeStep st = node_step(cfg_, i, c.node[i], node_in[i], o);
        copt_vars[i][o] = st.next;
        copt_out[i][o] = st.out;
      }
    }
  }

  // State-phase option counts for the hubs (INIT wake-up nondeterminism).
  const int sopt[kNumChannels] = {hub_state_option_count(cfg_, 0, c.hub[0]),
                                  hub_state_option_count(cfg_, 1, c.hub[1])};

  const auto restarts_used =
      static_cast<std::uint8_t>(c.restarts_used + (restart_node >= 0 ? 1 : 0));

  // Odometer digit order: the faulty node first (fastest), then the correct
  // nodes in index order. An epoch (one assignment of the correct nodes'
  // choices) thus holds all ~(2n+3)^2 faulty-node output pairs at every
  // placement; without a faulty node this is plain index order.
  int digit[kMaxNodes];
  int digits = 0;
  if (fn != ClusterConfig::kNone) digit[digits++] = fn;
  for (int i = 0; i < n; ++i) {
    if (i != fn) digit[digits++] = i;
  }

  int choice[kMaxNodes] = {};
  NodeVars next_node[kMaxNodes];
  Frame outs[kNumChannels][kMaxNodes];  // per-channel view of node outputs
  // Odometer-incremental refresh: only nodes whose choice digit changed are
  // recomputed — the fastest digit (the faulty node, if any) is usually the
  // only one that moves.
  auto refresh = [&](int i) {
    if (i == fn) {
      const auto& pr = fpairs[static_cast<std::size_t>(choice[i])];
      outs[0][i] = pr.first;
      outs[1][i] = pr.second;
      next_node[i] = faulty_next;
    } else {
      next_node[i] = copt_vars[i][choice[i]];
      outs[0][i] = outs[1][i] = copt_out[i][choice[i]];
    }
  };
  for (int i = 0; i < n; ++i) refresh(i);

  // --- Hub phase, memoised per epoch (DESIGN.md §3.2). Within an epoch the
  // only varying input of channel h is the faulty node's frame on h, so the
  // relay options and decisions are keyed on that frame alone, and a hub's
  // next value on (frame, relay option, the other channel's interlink
  // output, state option). Correct-hub relay decisions are pure functions
  // of the node outputs; a faulty hub may additionally replay the correct
  // hub's same-step interlink output, so its relay is evaluated inside its
  // result memo, after the correct hub's decision.
  using Relay = SuccessorScratch::Relay;
  using Result = SuccessorScratch::Result;
  auto relay_of = [&](int h, int frame) -> const Relay& {
    return scratch.relay(h, frame, [&](Relay& e) {
      e.options = hub_relay_option_count(cfg_, h, c.hub[h], outs[h]);
      if (cfg_.hub_is_faulty(h)) return;
      TT_ASSERT(e.options <= kMaxNodes);
      for (int r = 0; r < e.options; ++r) {
        e.decision[r] = hub_relay(cfg_, h, c.hub[h], outs[h], r);
      }
    });
  };
  auto correct_hub = [&](int h, int frame, const Relay& e, int r, const Frame& il, int s) {
    return scratch
        .result(result_key(h, frame, r, il, s),
                [&] {
                  return Result{
                      scratch.intern(h, hub_state_step(cfg_, h, c.hub[h], e.decision[r], il, s)),
                      Frame::quiet()};
                })
        .id;
  };
  auto faulty_hub = [&](int h, int frame, int r, const Frame& il) {
    return scratch.result(result_key(h, frame, r, il, 0), [&] {
      const RelayDecision d = faulty_hub_relay(cfg_, c.hub[h], outs[h], il, r);
      return Result{scratch.intern(h, faulty_hub_state_step(cfg_, c.hub[h], d)), d.interlink};
    });
  };

  bool new_epoch = true;
  StartupPre pre;
  std::uint16_t ids[kNumChannels][2] = {};
  while (true) {
    if (new_epoch) {
      scratch.begin_epoch();
      sink.combo(next_node);
      pre = startup_pre(next_node);
    }
    const int frame[kNumChannels] = {fn != ClusterConfig::kNone ? frame_code(outs[0][fn]) : 0,
                                     fn != ClusterConfig::kNone ? frame_code(outs[1][fn]) : 0};
    const Relay& e0 = relay_of(0, frame[0]);
    const Relay& e1 = relay_of(1, frame[1]);
    scratch.emitted += static_cast<std::uint64_t>(e0.options) *
                       static_cast<std::uint64_t>(e1.options) *
                       static_cast<std::uint64_t>(sopt[0] * sopt[1]);
    for (int r0 = 0; r0 < e0.options; ++r0) {
      for (int r1 = 0; r1 < e1.options; ++r1) {
        if (cfg_.hub_is_faulty(0)) {
          const Result f = faulty_hub(0, frame[0], r0, e1.decision[r1].interlink);
          ids[0][0] = f.id;
          for (int s1 = 0; s1 < sopt[1]; ++s1) {
            ids[1][s1] = correct_hub(1, frame[1], e1, r1, f.interlink, s1);
          }
        } else if (cfg_.hub_is_faulty(1)) {
          const Result f = faulty_hub(1, frame[1], r1, e0.decision[r0].interlink);
          ids[1][0] = f.id;
          for (int s0 = 0; s0 < sopt[0]; ++s0) {
            ids[0][s0] = correct_hub(0, frame[0], e0, r0, f.interlink, s0);
          }
        } else {
          for (int s0 = 0; s0 < sopt[0]; ++s0) {
            ids[0][s0] = correct_hub(0, frame[0], e0, r0, e1.decision[r1].interlink, s0);
          }
          for (int s1 = 0; s1 < sopt[1]; ++s1) {
            ids[1][s1] = correct_hub(1, frame[1], e1, r1, e0.decision[r0].interlink, s1);
          }
        }
        // A pair already passed on this epoch would pack to the same
        // successor (same prefix, same hubs, same startup time): skip it.
        for (int s0 = 0; s0 < sopt[0]; ++s0) {
          for (int s1 = 0; s1 < sopt[1]; ++s1) {
            if (!scratch.first_pair(ids[0][s0], ids[1][s1])) continue;
            const HubVars& h0 = scratch.value(0, ids[0][s0]);
            const HubVars& h1 = scratch.value(1, ids[1][s1]);
            sink.successor(h0, h1, startup_from(pre, h0, h1, c.startup_time), restarts_used);
          }
        }
      }
    }

    // Advance the odometer. A new epoch starts when a correct node's digit
    // changed, i.e. whenever the carry got past the faulty node's digit (the
    // faulty node's next vars are the same for every choice).
    int k = 0;
    while (k < n && ++choice[digit[k]] == nopt[digit[k]]) {
      choice[digit[k]] = 0;
      ++k;
    }
    if (k == n) break;
    new_epoch = digit[k] != fn;
    for (int j = k; j >= 0; --j) refresh(digit[j]);
  }
}

}  // namespace tt::tta
