// h2bench: the repository benchmark (benchmark/README.md defines the
// workloads, metrics and checks).
//
//   h2bench --workload <name> [--seed <n>] [--seconds <s>]   end-to-end metrics
//   h2bench --workload <name> [--seed <n>] --trace           per-layer metrics
//   h2bench --smoke                       every workload at 1/8 size, all checks
//
// Run it from the repository root: it reads configs/bignode.cfg and the
// fig05 goldens under tests/golden/, and writes checkpoints and span traces
// under .bench_build/. Every metric is printed by name with its unit; the
// last line of stdout is one JSON object with the verdict, the operation
// counts and the metrics. The exit status is non-zero when any operation
// failed.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "harness/sweep.h"

namespace h2bench {

namespace {

constexpr int kSetupRoundsPerPass = 8;
constexpr size_t kMinPasses = 3;

struct Args {
  std::string workload;
  u64 seed = 42;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      const std::string v = argv[++i];
      const auto r = std::from_chars(v.data(), v.data() + v.size(), args->seed);
      if (r.ec != std::errc() || r.ptr != v.data() + v.size()) {
        *error = "--seed expects an unsigned integer, got '" + v + "'";
        return false;
      }
    } else if (a == "--seconds" && has_value) {
      const std::string v = argv[++i];
      char* end = nullptr;
      args->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(args->seconds > 0)) {
        *error = "--seconds expects a positive number, got '" + v + "'";
        return false;
      }
    } else if (a == "--trace") {
      args->trace = true;
    } else if (a == "--smoke") {
      args->smoke = true;
    } else {
      *error = "unknown argument '" + a + "'";
      return false;
    }
  }
  if (!args->smoke && args->workload.empty()) {
    *error = "--workload <name> is required";
    return false;
  }
  return true;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }
double secs(u64 ns) { return static_cast<double>(ns) * 1e-9; }

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, std::isfinite(v) ? v : 0.0);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Operations attempted and failed, with a line per failure.
struct Ledger {
  u64 attempted = 0;
  std::vector<std::string> failures;

  void add(const std::vector<Outcome>& ops, const std::string& pass) {
    for (const Outcome& op : ops) {
      attempted++;
      if (!op.ok) failures.push_back("FAILED [" + pass + "] " + op.label + ": " + op.error);
    }
  }
  u64 failed() const { return failures.size(); }
  void print() const {
    for (const std::string& f : failures) std::cout << f << "\n";
  }
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  ledger.print();
  std::cout << "operations attempted " << ledger.attempted << " failed " << ledger.failed()
            << "\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (ledger.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

/// Fails every op of `pass` whose result or counters differ from `ref`'s.
void same_results(const Pass& ref, Pass& pass, const std::string& ref_name) {
  for (size_t i = 0; i < pass.ops.size() && i < ref.ops.size(); ++i) {
    Outcome& op = pass.ops[i];
    const Outcome& want = ref.ops[i];
    if (!op.ok || !want.ok) continue;
    if (result_line(op.result) != result_line(want.result) || !(op.counters == want.counters)) {
      op.fail("result differs from " + ref_name);
    }
  }
}

/// Hash of every result of a pass: equal digests, same simulated program.
u64 digest(const Pass& pass) {
  std::string all;
  for (const Outcome& op : pass.ops) all += result_line(op.result) + "\n";
  return h2::hash_str(all);
}

void print_digest(const Pass& pass) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(digest(pass)));
  std::cout << "digest " << buf << " over " << pass.ops.size() << " results\n";
}

/// Build times per config, gathered a few rounds before every pass: spread
/// over the run, no short slow stretch of the host covers all of them. Each
/// round's times are scaled by the yardstick run just before it.
struct SetupSamples {
  std::vector<std::vector<double>> per_config;

  void add_rounds(const Workload& w) {
    per_config.resize(w.configs.size());
    for (int r = 0; r < kSetupRoundsPerPass; ++r) {
      const double slowdown = yardstick() / kYardstickRefS;
      const std::vector<double> t = build_round(w);
      for (size_t i = 0; i < t.size(); ++i) per_config[i].push_back(t[i] / slowdown);
    }
  }
  /// The per-config medians, summed: the set-up cost of one pass.
  double seconds() const {
    double total = 0.0;
    for (const std::vector<double>& v : per_config) total += median(v);
    return total;
  }
};

/// Peak resident set of this process image. getrusage's ru_maxrss would
/// also count the parent's footprint inherited across fork + exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

int run_measured(const Workload& w, const Args& args) {
  const PassMode mode = w.kind == Kind::Ckpt ? PassMode::TwoLeg : PassMode::Plain;
  SetupSamples setup;
  std::vector<Pass> passes;
  const double t0 = now_s();
  for (;;) {
    setup.add_rounds(w);
    passes.push_back(run_pass(w, mode));
    const double elapsed = now_s() - t0;
    const double next_end = elapsed * static_cast<double>(passes.size() + 1) /
                            static_cast<double>(passes.size());
    if (passes.size() >= kMinPasses && next_end > args.seconds) break;
  }
  for (size_t p = 1; p < passes.size(); ++p) same_results(passes[0], passes[p], "pass 1");
  if (args.seed == 42) check_golden(w, passes[0]);

  // Every time is scaled to the reference host (bench.h, kYardstickRefS).
  // Throughput is a median over passes; the epoch percentiles pool the
  // samples of all passes.
  Ledger ledger;
  std::vector<double> minstr, epoch_ms;
  for (size_t p = 0; p < passes.size(); ++p) {
    const Pass& pass = passes[p];
    const double slowdown = pass.slowdown();
    const std::vector<double> scaled = pass.scaled_epoch_ms();
    ledger.add(pass.ops, "pass " + std::to_string(p + 1));
    const double raw_minstr = ratio(static_cast<double>(pass.instructions), pass.wall_s) * 1e-6;
    minstr.push_back(raw_minstr * slowdown);
    epoch_ms.insert(epoch_ms.end(), scaled.begin(), scaled.end());
    std::printf("pass %zu: %.3f s, %llu instructions, %.2f Minstr/s as measured; host slowdown "
                "%.3f over %zu yardstick runs; scaled: %.2f Minstr/s, epoch p50 %.3f ms p90 "
                "%.3f ms\n",
                p + 1, pass.wall_s, static_cast<unsigned long long>(pass.instructions),
                raw_minstr, slowdown, pass.yardstick_s.size(), minstr.back(),
                percentile(scaled, 50), percentile(scaled, 90));
  }
  std::cout << "workload " << w.name << " seed " << args.seed << ": " << passes.size()
            << " passes, " << epoch_ms.size() << " epoch samples\n";
  print_digest(passes[0]);
  print_result(ledger, {{"sim_minstr_per_s", median(minstr), "Minstr/s"},
                        {"epoch_ms_p50", percentile(epoch_ms, 50), "ms"},
                        {"epoch_ms_p90", percentile(epoch_ms, 90), "ms"},
                        {"setup_s", setup.seconds(), "s"},
                        {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return ledger.failed() == 0 ? 0 : 1;
}

/// The passes of a traced run and the checks between them.
struct Traced {
  Pass plain;    ///< untraced: the reference every other pass must match
  SeamPass seam;
  Pass life;     ///< two-leg pass: lifecycle timings and the restore check
  Pass threaded;  ///< shard groups only: the plain pass on kTracedShardThreads
  Outcome accounting;  ///< the seam pass's layer self times cover its wall
  SetupSamples setup;
  Ledger ledger;
};

struct SelfTimes {
  double sim, proc, trace, cache, hybridmem, policies, harness;
  double sum() const { return sim + proc + trace + cache + hybridmem + policies + harness; }
};

SelfTimes self_times(const LayerTimes& t) {
  SelfTimes s;
  s.sim = secs(t.run_ns) - secs(t.step_ns) - secs(t.hook_ns);
  s.proc = secs(t.step_ns) - secs(t.gen_ns) - secs(t.cache_ns) - secs(t.hm_ns);
  s.trace = secs(t.gen_ns);
  s.cache = secs(t.cache_ns);
  s.hybridmem = secs(t.hm_ns);
  s.policies = secs(t.epoch_ns);
  s.harness = secs(t.exp_ns) - secs(t.run_ns) - secs(t.epoch_ns) + secs(t.hook_ns);
  return s;
}

Traced run_traced_passes(const Workload& w, bool check_goldens) {
  Traced tr;
  tr.setup.add_rounds(w);
  tr.plain = run_pass(w, PassMode::Plain);
  if (check_goldens) check_golden(w, tr.plain);
  tr.setup.add_rounds(w);
  tr.seam = run_seam_pass(w, std::string(kWorkDir) + "/trace_" + w.name + ".jsonl");
  tr.setup.add_rounds(w);
  tr.life = run_pass(w, PassMode::TwoLeg);
  if (w.kind == Kind::Shard) {
    tr.setup.add_rounds(w);
    tr.threaded = run_pass(w, PassMode::Plain, kTracedShardThreads);
    same_results(tr.plain, tr.threaded, "the one-thread pass");
  }
  for (size_t i = 0; i < tr.seam.ops.size() && i < tr.plain.ops.size(); ++i) {
    Outcome& op = tr.seam.ops[i];
    if (op.ok && tr.plain.ops[i].ok && !(op.counters == tr.plain.ops[i].counters)) {
      op.fail("traced counters differ from the untraced pass");
    }
  }
  // The two-leg pass alternates uninterrupted and restore legs; the restore
  // legs were already compared against their uninterrupted leg.
  for (size_t i = 0; 2 * i < tr.life.ops.size() && i < tr.plain.ops.size(); ++i) {
    Outcome& op = tr.life.ops[2 * i];
    const Outcome& want = tr.plain.ops[i];
    if (op.ok && want.ok && result_line(op.result) != result_line(want.result)) {
      op.fail("checkpointing leg differs from the untraced pass");
    }
  }
  const SelfTimes s = self_times(tr.seam.t);
  tr.accounting.label = "traced layer accounting";
  if (std::min({s.sim, s.proc, s.harness}) < 0 ||
      std::abs(s.sum() - tr.seam.wall_s) > 0.05 * tr.seam.wall_s) {
    tr.accounting.fail("layer self times sum to " + number(s.sum()) + " s of a " +
                       number(tr.seam.wall_s) + " s traced pass");
  }
  tr.ledger.add(tr.plain.ops, "untraced");
  tr.ledger.add(tr.seam.ops, "traced");
  tr.ledger.add(tr.life.ops, "checkpoint legs");
  tr.ledger.add(tr.threaded.ops, "threaded");
  tr.ledger.add({tr.accounting}, "traced");
  return tr;
}

int run_traced(const Workload& w, const Args& args) {
  const Traced tr = run_traced_passes(w, args.seed == 42);
  const LayerTimes& t = tr.seam.t;
  const SelfTimes s = self_times(t);
  LayerCounts lc;
  double max_steps = 0, mean_steps = 0;
  for (const Outcome& op : tr.plain.ops) {
    lc.add(op.layers);
    const std::vector<u64>& steps = op.counters.member_steps;
    if (steps.empty()) continue;
    max_steps += static_cast<double>(*std::max_element(steps.begin(), steps.end()));
    for (const u64 v : steps) mean_steps += static_cast<double>(v) / static_cast<double>(steps.size());
  }
  const Lifecycle& life = tr.life.life;

  std::printf("traced pass %.3f s, untraced %.3f s, checkpoint legs %.3f s\n", tr.seam.wall_s,
              tr.plain.wall_s, tr.life.wall_s);
  const double wall = tr.seam.wall_s;
  for (const auto& [name, v] : std::vector<std::pair<const char*, double>>{
           {"sim", s.sim}, {"proc", s.proc}, {"trace", s.trace}, {"cache", s.cache},
           {"hybridmem", s.hybridmem}, {"policies", s.policies}, {"harness", s.harness}}) {
    std::printf("layer %-9s self %8.3f s  %5.1f%%\n", name, v, 100.0 * ratio(v, wall));
  }
  std::printf("lifecycle (two-leg pass): build %.3f s, warmup %.3f s, save %.3f s, load %.3f s, "
              "resume %.3f s, measure %.3f s, drain %.3f s\n",
              life.build, life.warmup, life.save, life.load, life.resume, life.measure,
              life.drain);
  std::printf("proc.replay_steps %llu of %llu engine events (steps of cores past their target)\n",
              static_cast<unsigned long long>(t.replay_steps),
              static_cast<unsigned long long>(t.steps));
  print_digest(tr.plain);

  const double saves = static_cast<double>(life.saves);
  const double hm_ns = static_cast<double>(t.hm_ns);
  print_result(
      tr.ledger,
      {{"sim.events", static_cast<double>(t.steps), "count"},
       {"sim.self_s", s.sim, "s"},
       {"sim.ns_per_event", ratio(s.sim * 1e9, static_cast<double>(t.steps)), "ns"},
       {"proc.accesses", static_cast<double>(t.port_calls), "count"},
       {"proc.self_s", s.proc, "s"},
       {"trace.calls", static_cast<double>(t.gen_calls), "count"},
       {"trace.self_s", s.trace, "s"},
       {"cache.calls", static_cast<double>(t.port_calls), "count"},
       {"cache.self_s", s.cache, "s"},
       {"cache.llc_miss_ratio",
        1.0 - ratio(static_cast<double>(lc.llc_hits), static_cast<double>(lc.llc_accesses)),
        "ratio"},
       {"hybridmem.calls", static_cast<double>(t.hm_calls), "count"},
       {"hybridmem.incl_s", s.hybridmem, "s"},
       {"hybridmem.ns_per_call", ratio(hm_ns, static_cast<double>(t.hm_calls)), "ns"},
       {"hybridmem.fast_hit_ratio",
        ratio(static_cast<double>(lc.fast_hits), static_cast<double>(lc.demand)), "ratio"},
       {"hybridmem.migrations", static_cast<double>(lc.migrations), "count"},
       {"hybridmem.remap_cache_hit_ratio",
        ratio(static_cast<double>(lc.remap_hits),
              static_cast<double>(lc.remap_hits + lc.remap_misses)),
        "ratio"},
       {"mem.requests", static_cast<double>(lc.requests), "count"},
       {"mem.row_hit_ratio",
        ratio(static_cast<double>(lc.row_hits), static_cast<double>(lc.row_hits + lc.row_misses)),
        "ratio"},
       {"mem.activations", static_cast<double>(lc.activations), "count"},
       {"mem.refreshes", static_cast<double>(lc.refreshes), "count"},
       {"mem.slow_bytes_per_demand",
        ratio(static_cast<double>(lc.slow_bytes), static_cast<double>(lc.demand)), "B"},
       {"policies.epochs", static_cast<double>(t.epochs), "count"},
       {"policies.epoch_s", s.policies, "s"},
       {"policies.reconfigurations", static_cast<double>(lc.reconfigurations), "count"},
       {"harness.setup_s", tr.setup.seconds(), "s"},
       {"harness.ckpt_save_ms", ratio(life.save * 1e3, saves), "ms"},
       {"harness.ckpt_load_ms", ratio(life.load * 1e3, static_cast<double>(life.loads)), "ms"},
       {"harness.ckpt_bytes", ratio(static_cast<double>(life.ckpt_bytes), saves), "B"},
       {"harness.shard_imbalance", ratio(max_steps, mean_steps), "ratio"},
       {"harness.shard_speedup",
        w.kind == Kind::Shard ? ratio(tr.plain.wall_s, tr.threaded.wall_s) : 1.0, "ratio"},
       {"trace_overhead", ratio(tr.seam.wall_s, tr.plain.wall_s), "ratio"}});
  return tr.ledger.failed() == 0 ? 0 : 1;
}

int run_smoke() {
  // The workloads share no state, so they run side by side; smoke only
  // checks outputs, and its timings mean nothing.
  std::vector<std::future<Traced>> runs;
  for (const std::string& name : workload_names()) {
    runs.push_back(std::async(std::launch::async, [name] {
      Workload w;
      make_workload(name, 42, /*div=*/8, &w);
      // Goldens pin full-size runs; at 1/8 size the other checks stand alone.
      return run_traced_passes(w, /*check_goldens=*/false);
    }));
  }
  u64 failed = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const Traced tr = runs[i].get();
    tr.ledger.print();
    std::cout << "smoke " << workload_names()[i] << ": " << tr.ledger.attempted
              << " operations, " << tr.ledger.failed() << " failed\n";
    failed += tr.ledger.failed();
  }
  std::cout << (failed == 0 ? "smoke: all checks passed" : "smoke: FAILED") << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace h2bench

int main(int argc, char** argv) {
  using namespace h2bench;
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, the
  // first free of a large array raises it, and every later build reuses the
  // physical pages this process happened to get first: setup_s then came out
  // near 4.4 or near 6.1 ms depending on the process. Pinned, every build
  // maps fresh pages, as a one-experiment process does, and setup_s repeats
  // within a few percent across processes.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  std::string error;
  if (!parse_args(argc, argv, &args, &error)) {
    std::cerr << "h2bench: " << error
              << "\nusage: h2bench --workload <name> [--seed <n>] [--seconds <s>] [--trace]"
                 "\n       h2bench --smoke\n";
    return 2;
  }
  if (!std::filesystem::is_regular_file("configs/bignode.cfg")) {
    std::cerr << "h2bench: run from the repository root (configs/bignode.cfg not found)\n";
    return 2;
  }
  std::filesystem::create_directories(std::string(kWorkDir) + "/ckpt");
  if (args.smoke) return run_smoke();
  Workload w;
  if (!make_workload(args.workload, args.seed, 1, &w)) {
    std::cerr << "h2bench: unknown workload '" << args.workload << "' (";
    for (const std::string& n : workload_names()) std::cerr << " " << n;
    std::cerr << " )\n";
    return 2;
  }
  return args.trace ? run_traced(w, args) : run_measured(w, args);
}
