// ttbench: the time-to-verdict benchmark program (run through perfbench/run.py).
//
//   ttbench run   --workload W --seed S --seconds T --trace 0|1 [options]
//   ttbench setup --workload W --seed S [options]   set-up only; prints setup_s
//   ttbench pin                                     prints expected.inc
//
// options: --n N (cluster size override; the self-test runs n = 3),
//   --spawn-ns NS (steady-clock time the parent launched this process; set-up
//   is measured from it), --git-sha X, --source-digest Y,
//   --chrome-out PATH (trace run: where the Chrome trace goes),
//   --wrong-expected (perturbs the pinned outcome: every call must fail).
//
// `run` is a closed loop: one core::verify call at a time, the next starting
// when the previous returned. The seed picks the faulty node of the first
// call (seed mod n; 0 is the paper's cell); the loop then walks the other
// placements in order and stops at the first whole sweep past T seconds.
// Every call is checked against its pinned outcome. With --trace 1 untraced
// and traced calls alternate on the seed's cell; the traced ones go through
// layers.cpp. The last stdout line is the JSON result; the exit code is 1
// when any call failed.
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "layers.hpp"
#include "obs/memory.hpp"
#include "provenance.hpp"
#include "tta/cluster.hpp"
#include "workloads.hpp"

namespace {

using namespace ttbench;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Median over whole sweeps of the mean per-call value within each sweep.
/// A sweep's calls differ in size (one per faulty-node placement), so the
/// plain median of one sweep would be the middle cell's single, noisy call.
double median_of_sweep_means(const std::vector<double>& v, std::size_t sweep) {
  std::vector<double> means;
  for (std::size_t i = 0; i + sweep <= v.size(); i += sweep) {
    double sum = 0.0;
    for (std::size_t j = i; j < i + sweep; ++j) sum += v[j];
    means.push_back(sum / static_cast<double>(sweep));
  }
  return median(means);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "ttbench: %s\n", msg);
  std::exit(2);
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
  int n = 0;
  std::uint64_t spawn_ns = 0;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  std::string chrome_out;
  bool wrong_expected = false;
};

Args parse(int argc, char** argv, std::uint64_t entry_ns) {
  if (argc < 2) usage("missing mode (run | setup | pin)");
  Args a;
  a.mode = argv[1];
  a.spawn_ns = entry_ns;
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--wrong-expected") {
      a.wrong_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    auto integer = [&] {
      const unsigned long long x = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage(("not a whole number: " + k).c_str());
      return x;
    };
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = integer();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds must be positive");
    } else if (k == "--trace") {
      a.trace = static_cast<int>(integer());
      if (a.trace > 1) usage("--trace is 0 or 1");
    } else if (k == "--n") {
      const auto n = integer();
      if (n < 2 || n > 8) usage("--n must be in [2, 8]");
      a.n = static_cast<int>(n);
    } else if (k == "--spawn-ns") {
      a.spawn_ns = integer();
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--source-digest") {
      a.source_digest = v;
    } else if (k == "--chrome-out") {
      a.chrome_out = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  return a;
}

/// One lemma cell: a faulty-node placement and the outcome pinned for it.
struct Cell {
  int faulty = 0;
  tt::tta::ClusterConfig cfg;
  Expected expected;
};

/// Everything a run needs before its first timed call.
struct Setup {
  const Workload* w = nullptr;
  int n = 0;
  /// Every faulty-node placement, starting at the seed's (seed mod n).
  std::vector<Cell> cells;
  int state_bits = 0;
  std::string provenance;
  double setup_s = 0.0;
};

Setup set_up(const Args& a) {
  Setup s;
  s.provenance = provenance_json(a.git_sha, a.source_digest);
  s.w = find_workload(a.workload);
  if (s.w == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());
  s.n = a.n > 0 ? a.n : s.w->n;
  for (int i = 0; i < s.n; ++i) {
    Cell c;
    c.faulty = static_cast<int>((a.seed + static_cast<std::uint64_t>(i)) %
                                static_cast<std::uint64_t>(s.n));
    c.cfg = cell_config(s.n, c.faulty);
    c.cfg.validate();
    const Expected* e = find_expected(s.w->name, s.n, c.faulty);
    if (e == nullptr) usage("no pinned outcome for this workload, n and faulty node");
    c.expected = *e;
    if (a.wrong_expected) {
      ++c.expected.states;
      if (s.w->kind == Kind::kKInduction) c.expected.holds = !c.expected.holds;
    }
    s.cells.push_back(std::move(c));
  }
  // The packed state width: the explicit analogue of the paper's "BDD
  // variables" column, reported next to the cell.
  s.state_bits =
      tt::tta::Cluster(tt::core::prepare_config(s.cells[0].cfg, lemma_of(s.w->kind)))
          .state_bits();
  s.setup_s = static_cast<double>(now_ns() - a.spawn_ns) * 1e-9;
  return s;
}

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// Counts one call; prints why it failed, if it did.
  void record(std::size_t call, const std::string& why) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    std::printf("# FAIL call %zu: %s\n", call, why.c_str());
  }
};

/// One untraced core::verify call: wall and CPU seconds, and its outcome.
struct Timed {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::optional<Outcome> outcome;  ///< empty when the call threw
  std::string error;
};

/// Hands the previous call's freed heap back to the kernel before a timed
/// call: every call then starts like a fresh CLI run, and the process's peak
/// RSS is the largest cell's rather than depending on which cells ran first.
void release_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

Timed timed_verify(const Workload& w, const Cell& cell) {
  release_heap();
  Timed t;
  const tt::core::VerifyOptions opts = verify_options(w);
  const double c0 = cpu_seconds();
  const std::uint64_t t0 = now_ns();
  try {
    t.outcome = outcome_of(tt::core::verify(cell.cfg, lemma_of(w.kind), opts));
  } catch (const std::exception& e) {
    t.error = e.what();
  }
  t.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  t.cpu_s = cpu_seconds() - c0;
  return t;
}

std::string check(const Workload& w, const Cell& cell, const Timed& t) {
  if (!t.outcome) return "exception: " + t.error;
  return check_outcome(w.kind, cell.expected, *t.outcome);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit);
  }
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

/// The closed loop walks the faulty-node placements in order and stops at
/// the first whole sweep past the time budget, so every run times the same
/// cells whatever its seed: the placements' state spaces differ by up to
/// 60% (fig6 n=7 sym+por), which would otherwise swamp run-to-run noise.
int run_untraced(const Args& a, const Setup& s) {
  Tally tally;
  std::vector<double> walls, cpus;
  const std::uint64_t start = now_ns();
  while (walls.size() % s.cells.size() != 0 || walls.empty() ||
         static_cast<double>(now_ns() - start) * 1e-9 < a.seconds) {
    const Cell& cell = s.cells[walls.size() % s.cells.size()];
    const Timed t = timed_verify(*s.w, cell);
    walls.push_back(t.wall_s);
    cpus.push_back(t.cpu_s);
    tally.record(walls.size(), check(*s.w, cell, t));
    if (t.outcome) {
      std::printf("# call %zu faulty_node=%d verify_s=%s holds=%d states=%zu depth=%d "
                  "transitions=%zu levels=%zu\n",
                  walls.size(), cell.faulty, num(t.wall_s).c_str(), t.outcome->holds,
                  t.outcome->states, t.outcome->depth, t.outcome->transitions,
                  t.outcome->frontier.size());
    }
  }
  std::printf("metric fail_ratio %s ratio\n",
              num(static_cast<double>(tally.failed) / static_cast<double>(tally.attempted))
                  .c_str());
  print_result(tally, {
                          {"verify_s", median_of_sweep_means(walls, s.cells.size()), "s"},
                          {"cpu_s", median_of_sweep_means(cpus, s.cells.size()), "s"},
                          {"peak_rss_mb", static_cast<double>(tt::obs::peak_rss_bytes()) /
                                              (1024.0 * 1024.0),
                           "MB"},
                          {"setup_s", s.setup_s, "s"},
                      });
  return tally.failed == 0 ? 0 : 1;
}

/// Adds the provenance header to a Chrome trace file as its "otherData"
/// member (the trace-event format's slot for run metadata).
void stamp_provenance(const std::string& path, const std::string& provenance) {
  std::string doc;
  {
    std::ifstream in(path);
    doc.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const auto brace = doc.find('{');
  if (brace == std::string::npos) throw std::runtime_error("malformed Chrome trace " + path);
  doc.insert(brace + 1, "\"otherData\": " + provenance + ",\n ");
  std::ofstream out(path, std::ios::trunc);
  out << doc;
  if (!out) throw std::runtime_error("cannot write Chrome trace " + path);
}

/// The traced run stays on the seed's cell: untraced and traced calls
/// alternate, and every traced call must reproduce the untraced verdict,
/// states and depth.
int run_traced(const Args& a, const Setup& s) {
  const Cell& cell = s.cells[0];
  Tally tally;
  std::vector<double> untraced, traced;
  std::map<std::string, std::vector<double>> layer;
  std::vector<tt::tta::Cluster::State> sample;
  std::optional<Outcome> reference;  // the first untraced call's outcome
  const std::uint64_t start = now_ns();
  while (traced.empty() || static_cast<double>(now_ns() - start) * 1e-9 < a.seconds) {
    const Timed t = timed_verify(*s.w, cell);
    untraced.push_back(t.wall_s);
    tally.record(tally.attempted + 1, check(*s.w, cell, t));
    if (!reference && t.outcome) reference = t.outcome;

    std::string why;
    release_heap();
    try {
      const std::string chrome_out = traced.empty() ? a.chrome_out : "";
      TracedResult r = traced_call(*s.w, cell.cfg, chrome_out);
      if (!chrome_out.empty()) stamp_provenance(chrome_out, s.provenance);
      traced.push_back(r.wall_s);
      for (const Metric& m : r.metrics) layer[m.name].push_back(m.value);
      if (sample.empty()) sample = std::move(r.sample);
      why = check_outcome(s.w->kind, cell.expected, r.outcome);
      if (reference && (r.outcome.holds != reference->holds ||
                        r.outcome.states != reference->states ||
                        r.outcome.depth != reference->depth)) {
        why += "traced outcome differs from the untraced run; ";
      }
    } catch (const std::exception& e) {
      why = std::string("traced call threw: ") + e.what();
    }
    tally.record(tally.attempted + 1, why);
  }
  for (const Metric& m : sample_metrics(*s.w, cell.cfg, sample)) {
    layer[m.name].push_back(m.value);
  }
  layer["obs.trace_overhead"].push_back(median(traced) / median(untraced) - 1.0);

  std::vector<Metric> metrics;
  for (const Metric& m : layer_metric_names()) {
    const auto it = layer.find(m.name);
    metrics.push_back({m.name, it == layer.end() ? 0.0 : median(it->second), m.unit});
  }
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

/// Prints one expected.inc row per (workload, n, faulty node) cell, from the
/// sequential engine. The parallel engine at one thread supplies the
/// liveness depth and frontier profile (the sequential liveness engine is a
/// DFS and reports neither); its state count must equal the sequential one.
int pin() {
  for (const Workload& w : workloads()) {
    std::vector<int> sizes = {w.n};
    if (w.n != 3) sizes.push_back(3);
    for (const int n : sizes) {
      for (int faulty = 0; faulty < n; ++faulty) {
        const tt::tta::ClusterConfig cfg = cell_config(n, faulty);
        tt::core::VerifyOptions seq;
        seq.engine = tt::mc::EngineKind::kSequential;
        seq.reduction = w.reduction;
        const Outcome o = outcome_of(tt::core::verify(cfg, lemma_of(w.kind), seq));
        Outcome pinned = o;
        if (w.kind == Kind::kLivenessPar) {
          tt::core::VerifyOptions par = verify_options(w);
          par.threads = 1;
          pinned = outcome_of(tt::core::verify(cfg, lemma_of(w.kind), par));
          if (pinned.states != o.states || pinned.holds != o.holds) {
            std::fprintf(stderr, "pin: %s n=%d faulty=%d: par states %zu != seq %zu\n", w.name,
                         n, faulty, pinned.states, o.states);
            return 1;
          }
        }
        if (!o.exhausted) {
          std::fprintf(stderr, "pin: %s n=%d faulty=%d did not finish\n", w.name, n, faulty);
          return 1;
        }
        std::printf("{\"%s\", %d, %d, %s, %zu, %d, {", w.name, n, faulty,
                    o.holds ? "true" : "false", pinned.states, pinned.depth);
        for (std::size_t i = 0; i < pinned.frontier.size(); ++i) {
          std::printf("%s%zu", i ? ", " : "", pinned.frontier[i]);
        }
        std::printf("}},\n");
        std::fflush(stdout);
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t entry_ns = now_ns();
  const Args a = parse(argc, argv, entry_ns);
  if (a.mode == "pin") return pin();
  if (a.mode != "run" && a.mode != "setup") usage(("unknown mode " + a.mode).c_str());
  try {
    const Setup s = set_up(a);
    if (a.mode == "setup") {
      std::printf("{\"setup_s\": %s}\n", num(s.setup_s).c_str());
      return 0;
    }
    std::printf("# provenance %s\n", s.provenance.c_str());
    std::printf("# workload %s n=%d first_faulty_node=%d seed=%llu threads=%d reduction=%s engine=%s "
                "lemma=%s state_bits=%d trace=%d\n",
                s.w->name, s.n, s.cells[0].faulty, static_cast<unsigned long long>(a.seed),
                s.w->threads, tt::mc::to_string(s.w->reduction),
                tt::mc::to_string(engine_of(s.w->kind)), tt::core::to_string(lemma_of(s.w->kind)),
                s.state_bits, a.trace);
    return a.trace == 1 ? run_traced(a, s) : run_untraced(a, s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttbench: %s\n", e.what());
    return 1;
  }
}
