#include "sat/solver.hpp"

#include <algorithm>
#include <cmath>

namespace tt::sat {

int Solver::new_var() {
  const int v = num_vars();
  assign_.push_back(0);
  phase_.push_back(-1);  // default polarity: false (BMC formulas like sparse models)
  model_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

void Solver::add_clause(std::vector<Lit> lits) {
  TT_ASSERT(trail_lim_.empty());  // clauses may only be added at level 0
  // Normalize: remove duplicates and satisfied/false literals at level 0.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> out;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i > 0 && l == lits[i - 1]) continue;
    if (i > 0 && l == ~lits[i - 1]) return;  // tautology
    const auto v = lit_value(l);
    if (v > 0) return;  // already satisfied at level 0
    if (v < 0) continue;
    out.push_back(l);
  }
  if (out.empty()) {
    unsat_ = true;
    return;
  }
  if (out.size() == 1) {
    if (lit_value(out[0]) == 0) {
      enqueue(out[0], kNoReason);
      if (propagate() != kNoReason) unsat_ = true;
    }
    return;
  }
  attach(alloc_clause(out, /*learned=*/false));
  ++num_problem_;
}

Solver::ClauseRef Solver::alloc_clause(const std::vector<Lit>& lits, bool learned) {
  const std::size_t at = arena_.size();
  TT_REQUIRE(at + kHeaderWords + lits.size() < kNoReason, "SAT clause arena exhausted");
  arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 2 | (learned ? kLearnedBit : 0));
  arena_.push_back(std::bit_cast<std::uint32_t>(0.0f));
  for (const Lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.code()));
  return static_cast<ClauseRef>(at);
}

void Solver::attach(ClauseRef cr) {
  const Lit l0 = clause_lit(cr, 0);
  const Lit l1 = clause_lit(cr, 1);
  watches_[static_cast<std::size_t>((~l0).code())].push_back({cr, l1});
  watches_[static_cast<std::size_t>((~l1).code())].push_back({cr, l0});
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  TT_ASSERT(lit_value(l) == 0);
  assign_[static_cast<std::size_t>(l.var())] = l.negated() ? -1 : 1;
  level_[static_cast<std::size_t>(l.var())] = static_cast<int>(trail_lim_.size());
  reason_[static_cast<std::size_t>(l.var())] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    const Lit false_lit = ~p;
    auto& watch_list = watches_[static_cast<std::size_t>(p.code())];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const Watcher w = watch_list[i];
      if (lit_value(w.blocker) > 0) {
        watch_list[keep++] = w;  // satisfied by the blocker; arena untouched
        continue;
      }
      const ClauseRef cr = w.cref;
      std::uint32_t* lits = &arena_[cr + kHeaderWords];
      // Ensure the falsified literal is lits[1].
      if (lits[0] == static_cast<std::uint32_t>(false_lit.code())) std::swap(lits[0], lits[1]);
      TT_ASSERT(lits[1] == static_cast<std::uint32_t>(false_lit.code()));
      const Lit first = Lit::from_code(static_cast<int>(lits[0]));
      const Watcher kept{cr, first};
      if (!(first == w.blocker) && lit_value(first) > 0) {
        watch_list[keep++] = kept;  // satisfied; keep watching
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      const std::uint32_t size = clause_size(cr);
      for (std::uint32_t k = 2; k < size; ++k) {
        const Lit candidate = Lit::from_code(static_cast<int>(lits[k]));
        if (lit_value(candidate) >= 0) {
          lits[1] = lits[k];
          lits[k] = static_cast<std::uint32_t>(false_lit.code());
          watches_[static_cast<std::size_t>((~candidate).code())].push_back(kept);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      watch_list[keep++] = kept;
      if (lit_value(first) < 0) {
        // Conflict: restore the remaining watches and report.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return cr;
      }
      enqueue(first, cr);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void Solver::heap_insert(int var) {
  if (heap_pos_[static_cast<std::size_t>(var)] >= 0) return;
  heap_pos_[static_cast<std::size_t>(var)] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
  const int v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const int v = heap_[i];
  const std::size_t n = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child], heap_[child + 1])) ++child;
    if (!heap_less(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_pos_[static_cast<std::size_t>(heap_[i])] = static_cast<int>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(i);
}

void Solver::bump_var(int var) {
  activity_[static_cast<std::size_t>(var)] += var_inc_;
  if (activity_[static_cast<std::size_t>(var)] > 1e100) {
    // Uniform rescale preserves the heap order.
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  const int pos = heap_pos_[static_cast<std::size_t>(var)];
  if (pos >= 0) heap_sift_up(static_cast<std::size_t>(pos));
}

void Solver::bump_clause(ClauseRef cr) {
  const float a = clause_activity(cr) + static_cast<float>(clause_inc_);
  set_clause_activity(cr, a);
  if (a > 1e20f) {
    for (const ClauseRef l : learned_) set_clause_activity(l, clause_activity(l) * 1e-20f);
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= 0.95;
  clause_inc_ /= 0.999;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& backtrack_level) {
  learnt.clear();
  learnt.push_back(Lit::make(0, false));  // placeholder for the asserting literal
  to_clear_.clear();
  int counter = 0;
  Lit p;
  bool have_p = false;
  std::size_t trail_index = trail_.size();
  const int current_level = static_cast<int>(trail_lim_.size());

  ClauseRef cr = conflict;
  do {
    TT_ASSERT(cr != kNoReason);
    if (is_learned(cr)) bump_clause(cr);
    const std::uint32_t size = clause_size(cr);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit q = clause_lit(cr, i);
      if (have_p && q == p) continue;
      const int v = q.var();
      if (seen_[static_cast<std::size_t>(v)] != 0 || level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      to_clear_.push_back(v);
      bump_var(v);
      if (level_[static_cast<std::size_t>(v)] == current_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail backwards to the next marked literal. Marks stay set
    // for the whole analysis (they double as the "already visited" set) and
    // are cleared together at the end via to_clear_.
    while (seen_[static_cast<std::size_t>(trail_[trail_index - 1].var())] == 0) {
      --trail_index;
    }
    --trail_index;
    p = trail_[trail_index];
    have_p = true;
    cr = reason_[static_cast<std::size_t>(p.var())];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Recursive clause minimization (remove literals implied by the rest).
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[static_cast<std::size_t>(learnt[i].var())] & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    const int v = learnt[i].var();
    if (reason_[static_cast<std::size_t>(v)] == kNoReason ||
        !lit_redundant(learnt[i], abstract_levels)) {
      learnt[keep++] = learnt[i];
    }
  }
  learnt.resize(keep);

  // Compute the backtrack level (second-highest level in the clause).
  backtrack_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[static_cast<std::size_t>(learnt[i].var())] >
          level_[static_cast<std::size_t>(learnt[max_i].var())]) {
        max_i = i;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[static_cast<std::size_t>(learnt[1].var())];
  }
  for (const int v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
}

void Solver::analyze_final(Lit failed) {
  // The assumption `failed` is falsified by the current (assumption-only)
  // trail. Collect the subset of assumption decisions whose implication
  // chain reaches ~failed; together with `failed` itself they form an
  // unsatisfiable core over the assumptions.
  core_.clear();
  core_.push_back(failed);
  if (trail_lim_.empty()) return;  // falsified at level 0: formula units suffice
  std::vector<int> marked;
  seen_[static_cast<std::size_t>(failed.var())] = 1;
  marked.push_back(failed.var());
  const std::size_t bottom = static_cast<std::size_t>(trail_lim_[0]);
  for (std::size_t i = trail_.size(); i-- > bottom;) {
    const Lit x = trail_[i];
    const int v = x.var();
    if (seen_[static_cast<std::size_t>(v)] == 0) continue;
    const ClauseRef cr = reason_[static_cast<std::size_t>(v)];
    if (cr == kNoReason) {
      // A decision above level 0 is necessarily an assumption.
      if (!(x == failed)) core_.push_back(x);
    } else {
      const std::uint32_t size = clause_size(cr);
      for (std::uint32_t k = 0; k < size; ++k) {
        const int qv = clause_lit(cr, k).var();
        if (qv == v || level_[static_cast<std::size_t>(qv)] == 0) continue;
        if (seen_[static_cast<std::size_t>(qv)] == 0) {
          seen_[static_cast<std::size_t>(qv)] = 1;
          marked.push_back(qv);
        }
      }
    }
  }
  for (const int v : marked) seen_[static_cast<std::size_t>(v)] = 0;
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  minimize_stack_.clear();
  minimize_stack_.push_back(l);
  std::vector<int> newly_marked;
  while (!minimize_stack_.empty()) {
    const Lit q = minimize_stack_.back();
    minimize_stack_.pop_back();
    const ClauseRef cr = reason_[static_cast<std::size_t>(q.var())];
    if (cr == kNoReason) {
      for (int v : newly_marked) seen_[static_cast<std::size_t>(v)] = 0;
      return false;
    }
    const std::uint32_t size = clause_size(cr);
    for (std::uint32_t i = 0; i < size; ++i) {
      const Lit r = clause_lit(cr, i);
      const int v = r.var();
      if (v == q.var() || seen_[static_cast<std::size_t>(v)] != 0 ||
          level_[static_cast<std::size_t>(v)] == 0) {
        continue;
      }
      if ((1u << (level_[static_cast<std::size_t>(v)] & 31) & abstract_levels) == 0) {
        for (int vv : newly_marked) seen_[static_cast<std::size_t>(vv)] = 0;
        return false;
      }
      seen_[static_cast<std::size_t>(v)] = 1;
      newly_marked.push_back(v);
      minimize_stack_.push_back(r);
    }
  }
  // Success: keep the marks (they memoize redundancy for the remaining
  // literals) but register them for the end-of-analysis cleanup.
  for (int v : newly_marked) to_clear_.push_back(v);
  return true;
}

void Solver::backtrack(int target_level) {
  while (static_cast<int>(trail_lim_.size()) > target_level) {
    const int boundary = trail_lim_.back();
    trail_lim_.pop_back();
    while (static_cast<int>(trail_.size()) > boundary) {
      const Lit l = trail_.back();
      trail_.pop_back();
      phase_[static_cast<std::size_t>(l.var())] = l.negated() ? -1 : 1;
      assign_[static_cast<std::size_t>(l.var())] = 0;
      reason_[static_cast<std::size_t>(l.var())] = kNoReason;
      heap_insert(l.var());
    }
  }
  propagate_head_ = trail_.size();
}

int Solver::pick_branch_var() {
  while (!heap_.empty()) {
    const int v = heap_[0];
    const int last = heap_.back();
    heap_.pop_back();
    heap_pos_[static_cast<std::size_t>(v)] = -1;
    if (!heap_.empty()) {
      heap_[0] = last;
      heap_pos_[static_cast<std::size_t>(last)] = 0;
      heap_sift_down(0);
    }
    if (assign_[static_cast<std::size_t>(v)] == 0) return v;
  }
  return -1;
}

int Solver::luby(int i) {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  int k = 1;
  while ((1 << (k + 1)) <= i + 1) ++k;
  while ((1 << k) - 1 != i + 1) {
    i = i - (1 << k) + 1;
    k = 1;
    while ((1 << (k + 1)) <= i + 1) ++k;
  }
  return 1 << (k - 1);
}

void Solver::reduce_learned() {
  // Delete the least active half of the learned clauses (keeping binary
  // clauses and current reasons): mark them deleted in the arena and strip
  // their watchers. ClauseRefs held in reason_ stay valid; the dead words
  // are reclaimed by collect_garbage once they are a fifth of the arena.
  std::vector<ClauseRef> candidates;
  for (const ClauseRef cr : learned_) {
    if (clause_size(cr) > 2) candidates.push_back(cr);
  }
  if (candidates.size() < 100) return;
  std::sort(candidates.begin(), candidates.end(), [&](ClauseRef a, ClauseRef b) {
    return clause_activity(a) < clause_activity(b);
  });
  bool any = false;
  for (std::size_t i = 0; i < candidates.size() / 2; ++i) {
    const ClauseRef cr = candidates[i];
    // The literal a clause implies sits at position 0, so the clause is a
    // reason on the trail exactly when that literal is true because of it.
    const Lit first = clause_lit(cr, 0);
    if (lit_value(first) > 0 && reason_[static_cast<std::size_t>(first.var())] == cr) continue;
    arena_[cr] |= kDeletedBit;
    wasted_words_ += kHeaderWords + clause_size(cr);
    any = true;
  }
  if (!any) return;
  for (auto& wl : watches_) {
    std::erase_if(wl, [&](const Watcher& w) { return is_deleted(w.cref); });
  }
  std::erase_if(learned_, [&](ClauseRef cr) { return is_deleted(cr); });
  if (wasted_words_ * 5 > arena_.size()) collect_garbage();
}

void Solver::collect_garbage() {
  // Slide the live clauses down over the deleted ones (order preserved),
  // then remap every ClauseRef held in watchers, reasons and learned_.
  // `moved` lists (old, new) offsets in ascending old order.
  std::vector<std::pair<ClauseRef, ClauseRef>> moved;
  ClauseRef to = 0;
  for (ClauseRef from = 0; from < arena_.size();) {
    const auto words = static_cast<ClauseRef>(kHeaderWords + clause_size(from));
    if (!is_deleted(from)) {
      std::copy(arena_.begin() + from, arena_.begin() + from + words, arena_.begin() + to);
      moved.emplace_back(from, to);
      to += words;
    }
    from += words;
  }
  arena_.resize(to);
  arena_.shrink_to_fit();
  wasted_words_ = 0;
  const auto relocate = [&](ClauseRef& cr) {
    const auto it = std::lower_bound(moved.begin(), moved.end(), std::pair(cr, ClauseRef{0}));
    TT_ASSERT(it != moved.end() && it->first == cr);
    cr = it->second;
  };
  for (auto& wl : watches_) {
    for (Watcher& w : wl) relocate(w.cref);
  }
  for (ClauseRef& cr : reason_) {
    if (cr != kNoReason) relocate(cr);
  }
  for (ClauseRef& cr : learned_) relocate(cr);
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  ++stats_.solve_calls;
  if (stats_.solve_calls > 1) stats_.clauses_reused += learned_.size();
  core_.clear();
  if (unsat_) return Result::kUnsat;
  TT_ASSERT(trail_lim_.empty());
  if (propagate() != kNoReason) {
    unsat_ = true;
    return Result::kUnsat;
  }

  std::vector<Lit> learnt;
  int restart_count = 0;
  std::uint64_t conflicts_until_restart =
      100 * static_cast<std::uint64_t>(luby(restart_count));
  std::uint64_t conflicts_this_restart = 0;

  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return Result::kUnsat;
      }
      int backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      backtrack(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const ClauseRef cr = alloc_clause(learnt, /*learned=*/true);
        learned_.push_back(cr);
        bump_clause(cr);
        attach(cr);
        enqueue(learnt[0], cr);
        ++stats_.learned;
      }
      decay_activities();
      if (stats_.learned >= reduce_at_) {
        reduce_learned();
        reduce_at_ += 2000;
      }
      continue;
    }

    if (conflicts_this_restart >= conflicts_until_restart) {
      ++stats_.restarts;
      ++restart_count;
      conflicts_this_restart = 0;
      conflicts_until_restart = 100 * static_cast<std::uint64_t>(luby(restart_count));
      backtrack(0);
      continue;
    }

    // Place pending assumptions as pseudo-decisions (one level each, so
    // analyze() treats them exactly like decisions and never resolves
    // past them — learned clauses stay assumption-free).
    Lit decision;
    bool have_decision = false;
    while (trail_lim_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_lim_.size()];
      const std::int8_t v = lit_value(a);
      if (v > 0) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // already satisfied
      } else if (v < 0) {
        analyze_final(a);
        backtrack(0);
        return Result::kUnsat;
      } else {
        decision = a;
        have_decision = true;
        break;
      }
    }
    if (!have_decision) {
      const int v = pick_branch_var();
      if (v < 0) {
        model_ = assign_;  // full assignment, no conflict
        backtrack(0);
        return Result::kSat;
      }
      decision = Lit::make(v, phase_[static_cast<std::size_t>(v)] < 0);
    }
    ++stats_.decisions;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(decision, kNoReason);
  }
}

}  // namespace tt::sat
