// Workload table, untraced passes, setup timing and the output checks of
// h2bench. Everything here drives the simulator through its public
// lifecycle: SimSystem / ShardGroup build, warmup, measure, drain, and
// save_checkpoint / load_checkpoint / resume.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/stats.h"
#include "harness/checkpoint.h"
#include "harness/config_loader.h"
#include "harness/report.h"
#include "harness/shard_group.h"
#include "harness/sim_system.h"
#include "harness/sweep.h"

namespace h2bench {

namespace {

using h2::DesignSpec;
using h2::ExperimentConfig;

/// fig05 --quick sizing (bench/bench_common.h bench_config): Table I at
/// footprint scale 8, 60k instructions per CPU core, 600k per GPU cluster.
ExperimentConfig quick_config(const std::string& combo, DesignSpec design,
                              h2::ChannelBackendKind backend, u64 seed, u32 div) {
  ExperimentConfig cfg;
  cfg.combo = combo;
  cfg.design = std::move(design);
  cfg.sys = h2::SystemConfig::table1(8);
  cfg.cpu_target_instructions = 60'000 / div;
  cfg.gpu_target_instructions = 600'000 / div;
  cfg.epoch_cycles = 40'000;
  cfg.max_cycles = 400'000'000;
  cfg.backend = backend;
  // Exactly the per-run seed fig05's sweep derives, so seed 42 reproduces
  // the checked-in goldens.
  cfg.seed = h2::derive_seed(seed, combo, cfg.design.label);
  return cfg;
}

const std::vector<std::string> kQuickCombos = {"C1", "C5", "C11"};

std::vector<DesignSpec> fig05_designs() {
  return {DesignSpec::hashcache(),         DesignSpec::profess(),
          DesignSpec::waypart(),           DesignSpec::hydrogen_dp(),
          DesignSpec::hydrogen_dp_token(), DesignSpec::hydrogen_full(),
          DesignSpec::integrated()};
}

Workload fig05_workload(const std::string& name, h2::ChannelBackendKind backend,
                        const std::string& golden, u64 seed, u32 div) {
  Workload w;
  w.name = name;
  w.kind = Kind::Fig05;
  w.golden = golden;
  for (const DesignSpec& d : fig05_designs()) w.designs.push_back(d.label);
  for (const std::string& combo : kQuickCombos) {
    w.configs.push_back(quick_config(combo, DesignSpec::baseline(), backend, seed, div));
    for (DesignSpec d : fig05_designs()) {
      w.configs.push_back(quick_config(combo, std::move(d), backend, seed, div));
    }
  }
  return w;
}

Workload ckpt_workload(u64 seed, u32 div) {
  Workload w;
  w.name = "ckpt_restore";
  w.kind = Kind::Ckpt;
  for (const std::string& combo : kQuickCombos) {
    for (DesignSpec d : {DesignSpec::baseline(), DesignSpec::hydrogen_full(),
                         DesignSpec::integrated()}) {
      ExperimentConfig cfg =
          quick_config(combo, std::move(d), h2::ChannelBackendKind::Fast, seed, div);
      cfg.warmup_epochs = 8;
      cfg.checkpoint_path = std::string(kWorkDir) + "/ckpt/" + w.name + "-" +
                            cfg.combo + "-" + cfg.design.label + ".ckpt";
      cfg.checkpoint_every = 1;
      w.configs.push_back(std::move(cfg));
    }
  }
  return w;
}

Workload shard_workload(u64 seed, u32 div) {
  Workload w;
  w.name = "bignode_shard4";
  w.kind = Kind::Shard;
  ExperimentConfig cfg = h2::experiment_from_file("configs/bignode.cfg");
  cfg.cpu_target_instructions = cfg.cpu_target_instructions * 4 / div;
  cfg.gpu_target_instructions = cfg.gpu_target_instructions * 4 / div;
  // One worker: the members then run on the thread that runs the yardstick,
  // which sees only the speed of the vCPU it runs on. With two workers the
  // scaled epoch percentiles spread by up to 22 % between runs; the traced
  // run adds a pass on kTracedShardThreads workers.
  cfg.shard_threads = 1;
  cfg.seed = h2::derive_seed(seed, cfg.combo, cfg.design.label);
  w.configs.push_back(std::move(cfg));
  return w;
}

/// Records host time between epoch boundaries and the instructions the
/// boundaries report, and runs the yardstick at the first boundary after it
/// falls due; its time counts in no epoch. Registered on member 0 of a
/// shard group, whose observers see the group-merged feedback once per
/// group boundary, while the workers wait at the barrier.
class EpochClock final : public h2::EpochObserver {
 public:
  explicit EpochClock(Pass* pass) : pass_(pass) {}
  const char* name() const override { return "h2bench-epoch-clock"; }
  void arm() { last_ns_ = now_ns(); }
  void on_epoch(h2::SimSystem& /*sys*/, const h2::EpochFeedback& fb) override {
    const u64 t = now_ns();
    pass_->epoch_ms.push_back(static_cast<double>(t - last_ns_) * 1e-6);
    pass_->epoch_yardstick.push_back(pass_->yardstick_s.size());
    last_ns_ = t;
    pass_->instructions += fb.cpu_instructions + fb.gpu_instructions;
    if (t >= pass_->yardstick_due_ns) {
      pass_->yardstick_s.push_back(yardstick());
      last_ns_ = now_ns();
      pass_->yardstick_due_ns = last_ns_ + kYardstickEveryNs;
    }
  }

 private:
  Pass* pass_;
  u64 last_ns_ = 0;
};

EpochClock* attach_clock(h2::SimSystem& sys, Pass* pass) {
  auto clock = std::make_unique<EpochClock>(pass);
  EpochClock* raw = clock.get();
  sys.add_observer(std::move(clock));
  return raw;
}
EpochClock* attach_clock(h2::ShardGroup& group, Pass* pass) {
  return attach_clock(group.member(0), pass);
}

template <class System>
void collect(System& sys, Outcome& op) {
  for (h2::SimSystem* m : members(sys)) {
    op.counters.member_steps.push_back(m->engine().steps_executed());
    for (const auto& core : m->cores()) {
      op.counters.core_retired.push_back(core->retired_instructions());
      op.counters.core_done.push_back(core->done_cycle());
    }
    collect_layers(*m, op.counters, op.layers);
  }
  op.layers.reconfigurations = op.result.reconfigurations;
}

void check_finished(Outcome& op) {
  if (op.ok && !(op.result.cpu_finished && op.result.gpu_finished)) {
    op.fail("a side missed its instruction target");
  }
}

/// Seconds since `t`, and restarts `t`.
double lap(double& t) {
  const double now = now_s();
  const double d = now - t;
  t = now;
  return d;
}

template <class System>
void run_config(const Workload& w, const ExperimentConfig& cfg, PassMode mode,
                Pass& pass) {
  Lifecycle& life = pass.life;
  const bool two_leg = mode == PassMode::TwoLeg;
  const std::string warm = std::string(kWorkDir) + "/ckpt/" + w.name + "-" +
                           cfg.combo + "-" + cfg.design.label + ".warm.ckpt";
  Outcome a;
  a.label = label_of(cfg);
  try {
    double t = now_s();
    System sys(cfg);
    sys.build();
    life.build += lap(t);
    attach_clock(sys, &pass)->arm();
    sys.warmup(cfg.warmup_epochs);
    life.warmup += lap(t);
    if (two_leg) {
      h2::save_checkpoint(sys, warm);
      life.save += lap(t);
      life.saves++;
      life.ckpt_bytes += std::filesystem::file_size(warm);
      t = now_s();
    }
    sys.measure();
    life.measure += lap(t);
    a.result = sys.drain();
    life.drain += lap(t);
    collect(sys, a);
  } catch (const std::exception& e) {
    a.fail(std::string("threw: ") + e.what());
  }
  check_finished(a);
  pass.ops.push_back(a);
  if (!two_leg) return;

  Outcome b;
  b.label = a.label + " restored";
  if (!a.ok) {
    b.fail("no restore: the uninterrupted leg failed");
    pass.ops.push_back(b);
    return;
  }
  try {
    double t = now_s();
    System sys(cfg);
    sys.build();
    life.build += lap(t);
    EpochClock* clock = attach_clock(sys, &pass);
    h2::load_checkpoint(sys, warm);
    life.load += lap(t);
    life.loads++;
    clock->arm();
    sys.resume();
    life.resume += lap(t);
    b.result = sys.drain();
    life.drain += lap(t);
    collect(sys, b);
  } catch (const std::exception& e) {
    b.fail(std::string("threw: ") + e.what());
  }
  check_finished(b);
  if (b.ok && (result_line(b.result) != result_line(a.result) || !(b.counters == a.counters))) {
    b.fail("restore leg differs from the uninterrupted leg");
  }
  pass.ops.push_back(b);
}

template <class System>
double build_s(const ExperimentConfig& cfg) {
  const double t0 = now_s();
  auto sys = std::make_unique<System>(cfg);
  sys->build();
  const double t = now_s() - t0;
  return t;  // the system is destroyed outside the timed span
}

void append_hex(std::string& s, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, " %a", v);
  s += buf;
}
void append_u64(std::string& s, u64 v) {
  s += ' ';
  s += std::to_string(v);
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss(line);
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

}  // namespace

std::string label_of(const ExperimentConfig& cfg) {
  return cfg.combo + "/" + cfg.design.label;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig05_fast", "fig05_ddr",
                                                 "bignode_shard4", "ckpt_restore"};
  return names;
}

bool make_workload(const std::string& name, u64 seed, u32 div, Workload* out) {
  if (name == "fig05_fast") {
    *out = fig05_workload(name, h2::ChannelBackendKind::Fast,
                          "tests/golden/fig05_quick_integrated.csv", seed, div);
  } else if (name == "fig05_ddr") {
    *out = fig05_workload(name, h2::ChannelBackendKind::Ddr,
                          "tests/golden/fig05_quick_integrated_ddr.csv", seed, div);
  } else if (name == "bignode_shard4") {
    *out = shard_workload(seed, div);
  } else if (name == "ckpt_restore") {
    *out = ckpt_workload(seed, div);
  } else {
    return false;
  }
  return true;
}

bool Counters::operator==(const Counters& o) const {
  if (hybrid.size() != o.hybrid.size()) return false;
  for (size_t i = 0; i < hybrid.size(); ++i) {
    // HybridStats is a plain block of u64 counters: bytewise equality is
    // field-wise equality.
    if (std::memcmp(&hybrid[i], &o.hybrid[i], sizeof(h2::HybridStats)) != 0) return false;
  }
  return member_steps == o.member_steps && core_retired == o.core_retired &&
         core_done == o.core_done && channel_requests == o.channel_requests;
}

void LayerCounts::add(const LayerCounts& o) {
  llc_accesses += o.llc_accesses;
  llc_hits += o.llc_hits;
  demand += o.demand;
  fast_hits += o.fast_hits;
  migrations += o.migrations;
  remap_hits += o.remap_hits;
  remap_misses += o.remap_misses;
  requests += o.requests;
  row_hits += o.row_hits;
  row_misses += o.row_misses;
  activations += o.activations;
  refreshes += o.refreshes;
  slow_bytes += o.slow_bytes;
  reconfigurations += o.reconfigurations;
}

std::vector<h2::SimSystem*> members(h2::SimSystem& sys) { return {&sys}; }
std::vector<h2::SimSystem*> members(h2::ShardGroup& group) {
  std::vector<h2::SimSystem*> out;
  for (u32 i = 0; i < group.num_shards(); ++i) out.push_back(&group.member(i));
  return out;
}

void collect_layers(h2::SimSystem& sys, Counters& c, LayerCounts& l) {
  h2::HybridMemory& hm = sys.hybrid();
  for (const h2::Requestor r : {h2::Requestor::Cpu, h2::Requestor::Gpu}) {
    const h2::HybridStats& st = hm.stats(r);
    c.hybrid.push_back(st);
    l.demand += st.demand;
    l.fast_hits += st.fast_hits;
    l.migrations += st.migrations;
    l.llc_accesses += sys.hierarchy().llc_accesses(r);
    l.llc_hits += sys.hierarchy().llc_hits(r);
  }
  l.remap_hits += hm.remap_cache().hits();
  l.remap_misses += hm.remap_cache().misses();
  h2::MemorySystem& mem = sys.memory();
  auto add_channel = [&](const h2::Channel& ch) {
    c.channel_requests.push_back(ch.requests());
    l.requests += ch.requests();
    l.row_hits += ch.row_hits();
    l.row_misses += ch.row_misses();
    l.activations += ch.activations();
    l.refreshes += ch.refreshes();
  };
  for (u32 i = 0; i < mem.num_fast_superchannels(); ++i) add_channel(mem.fast_channel(i));
  for (u32 i = 0; i < mem.num_slow_channels(); ++i) add_channel(mem.slow_channel(i));
  l.slow_bytes += mem.tier_bytes(h2::Tier::Slow);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Pass run_pass(const Workload& w, PassMode mode, u32 shard_threads) {
  Pass pass;
  const double t0 = now_s();
  for (ExperimentConfig cfg : w.configs) {
    if (shard_threads != 0) cfg.shard_threads = shard_threads;
    if (mode == PassMode::Plain) cfg.checkpoint_path.clear();
    if (w.kind == Kind::Shard) {
      run_config<h2::ShardGroup>(w, cfg, mode, pass);
    } else {
      run_config<h2::SimSystem>(w, cfg, mode, pass);
    }
  }
  double yardstick_total = 0;
  for (const double t : pass.yardstick_s) yardstick_total += t;
  pass.wall_s = now_s() - t0 - yardstick_total;
  return pass;
}

std::vector<double> Pass::scaled_epoch_ms() const {
  std::vector<double> out;
  // The first boundary of a pass always runs the yardstick, so only a pass
  // without epochs has no run.
  if (yardstick_s.empty()) return out;
  const size_t last = yardstick_s.size() - 1;
  for (size_t i = 0; i < epoch_ms.size(); ++i) {
    const size_t at = std::min(epoch_yardstick[i], last);
    const size_t lo = at == 0 ? 0 : at - 1;
    const size_t hi = std::min(at + 1, last);
    const std::vector<double> near(yardstick_s.begin() + lo, yardstick_s.begin() + hi + 1);
    out.push_back(epoch_ms[i] * kYardstickRefS / median(near));
  }
  return out;
}

double Pass::slowdown() const {
  double raw = 0, scaled = 0;
  for (const double ms : epoch_ms) raw += ms;
  for (const double ms : scaled_epoch_ms()) scaled += ms;
  return scaled > 0 ? raw / scaled : 1.0;
}

std::vector<double> build_round(const Workload& w) {
  std::vector<double> t;
  for (const ExperimentConfig& cfg : w.configs) {
    t.push_back(w.kind == Kind::Shard ? build_s<h2::ShardGroup>(cfg)
                                      : build_s<h2::SimSystem>(cfg));
  }
  return t;
}

std::string result_line(const h2::ExperimentResult& r) {
  std::string s = r.combo + " " + r.design;
  for (const u64 v : {r.cpu_cycles, r.gpu_cycles, r.end_cycle,
                      static_cast<u64>(r.cpu_finished), static_cast<u64>(r.gpu_finished),
                      r.cpu_instructions, r.gpu_instructions}) {
    append_u64(s, v);
  }
  for (const double v : {r.cpu_ipc, r.gpu_ipc, r.weighted_ipc, r.energy_pj}) append_hex(s, v);
  append_u64(s, r.fast_bytes);
  append_u64(s, r.slow_bytes);
  for (const h2::HybridStats& st : r.hmstats) {
    for (const u64 v : {st.demand, st.fast_hits, st.chain_hits, st.misses, st.migrations,
                        st.bypasses, st.first_touches, st.dirty_writebacks, st.fast_swaps,
                        st.lazy_invalidations, st.lazy_moves, st.flush_invalidations,
                        st.llc_writebacks, st.meta_misses, st.meta_wait_cycles,
                        st.subfills}) {
      append_u64(s, v);
    }
  }
  for (const double v : {r.fast_hit_rate[0], r.fast_hit_rate[1], r.llc_hit_rate[0],
                         r.llc_hit_rate[1], r.remap_cache_hit_rate, r.slow_amplification,
                         r.read_latency_mean[0], r.read_latency_mean[1]}) {
    append_hex(s, v);
  }
  for (const u64 v : {r.read_latency_p99[0], r.read_latency_p99[1],
                      static_cast<u64>(r.final_point.cap), static_cast<u64>(r.final_point.bw),
                      static_cast<u64>(r.final_point.tok), r.reconfigurations, r.epochs,
                      r.engine_steps}) {
    append_u64(s, v);
  }
  return s;
}

void check_golden(const Workload& w, Pass& pass) {
  if (w.golden.empty() || pass.ops.empty()) return;
  std::ifstream in(w.golden);
  std::vector<std::vector<std::string>> golden;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) golden.push_back(split_csv(line));
  }
  std::vector<std::string> header = {"combo"};
  header.insert(header.end(), w.designs.begin(), w.designs.end());
  const size_t n_combos = w.configs.size() / (w.designs.size() + 1);
  if (golden.size() != n_combos + 2 || golden[0] != header) {
    pass.ops[0].fail("golden " + w.golden + " is missing or has another layout");
    return;
  }
  std::vector<std::vector<double>> speedups(w.designs.size());
  size_t k = 0;
  for (size_t c = 0; c < n_combos; ++c) {
    const Outcome& base = pass.ops[k++];
    for (size_t d = 0; d < w.designs.size(); ++d) {
      Outcome& op = pass.ops[k++];
      if (!base.ok || !op.ok) continue;  // already counted as failed
      const double su = h2::weighted_speedup(base.result, op.result);
      speedups[d].push_back(su);
      const std::string& want = golden[c + 1][d + 1];
      if (h2::fmt(su) != want) {
        op.fail("weighted speedup " + h2::fmt(su) + " != golden " + want);
      }
    }
  }
  for (size_t d = 0; d < w.designs.size(); ++d) {
    const std::string got = h2::fmt(h2::geomean(speedups[d]));
    const std::string& want = golden[n_combos + 1][d + 1];
    if (got != want) {
      // A geomean can only drift with its cells; blame the design's runs.
      for (size_t c = 0; c < n_combos; ++c) {
        pass.ops[c * (w.designs.size() + 1) + d + 1].fail(
            "geomean " + got + " != golden " + want);
      }
    }
  }
}

}  // namespace h2bench
