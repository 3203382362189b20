// The seam-timed pass behind `h2bench --trace`.
//
// The simulator has no internal profiler, so the benchmark times each layer
// from outside, at the only seams a caller can reach: it builds every
// experiment's SimSystem (or ShardGroup) as usual but never runs its engine.
// Instead it rebuilds the cores from cores()[i]->params(), with generators
// seeded exactly as build() seeds them, and runs them on its own Engine
// against the system's real hierarchy(), hybrid(), memory() and policy().
// Timers wrap
//   - AccessGenerator::next                        (trace)
//   - each core's Actor::step                      (proc)
//   - CacheHierarchy::{cpu,gpu}_access             (cache)
//   - HybridMemory::{access,writeback}             (hybridmem, which includes
//     the channel calls and per-access policy calls made inside it)
//   - PartitionPolicy::on_epoch                    (policies)
// and Engine::run, whose remainder is the engine's own cost (sim).
//
// The epoch protocol is ShardGroup's barrier protocol, which a monolithic
// system follows as a group of one: every member engine stops at the epoch
// boundary with a local feedback snapshot, the snapshots are merged, and the
// merged feedback goes to every member's policy. Engine::run resumes a
// stopped engine bit-identically, so the pass reproduces the untraced run
// exactly; h2bench rejects it unless its counters say so.
#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "bench.h"
#include "common/rng.h"
#include "harness/shard_group.h"
#include "harness/sim_system.h"
#include "trace/workloads.h"

namespace h2bench {

namespace {

using h2::Cycle;

/// One access in 4096 gets its span tree written out.
constexpr u64 kSampleMask = 4095;

struct Span {
  const char* kind;  ///< "access" or "epoch"
  u64 id;            ///< spans of one access (or epoch) share it
  const char* name;
  const char* parent;
  u32 exp;  ///< index into Tally::labels
  u64 start_ns, end_ns;
};

class TimedGenerator;

/// State the timed wrappers of one pass share.
struct Tally {
  LayerTimes t;
  u64 origin_ns = 0;
  u32 exp = 0;
  std::vector<std::string> labels;
  std::vector<Span> spans;
  TimedGenerator* stepping = nullptr;  ///< generator of the core now stepping
  u64 step_sample = 0;  ///< sampled access issued during the current step

  void span(const char* kind, u64 id, const char* name, const char* parent, u64 a,
            u64 b) {
    spans.push_back(Span{kind, id, name, parent, exp, a - origin_ns, b - origin_ns});
  }
};

class TimedGenerator final : public h2::AccessGenerator {
 public:
  TimedGenerator(const h2::WorkloadSpec& spec, u64 seed, Tally* tally)
      : inner_(spec, seed), tally_(tally) {}

  h2::Access next() override {
    const u64 a = now_ns();
    const h2::Access x = inner_.next();
    const u64 b = now_ns();
    LayerTimes& t = tally_->t;
    t.gen_ns += b - a;
    if ((t.gen_calls++ & kSampleMask) == 0) {
      sample_ = t.gen_calls;
      tally_->span("access", sample_, "trace", "proc", a, b);
    }
    return x;
  }
  /// The sampled access this generator produced last, once: a core issues
  /// an access before it asks its generator for the next one.
  u64 take_sample() { return std::exchange(sample_, 0); }

  u64 footprint_bytes() const override { return inner_.footprint_bytes(); }
  const std::string& name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void save_state(h2::ckpt::CkptWriter& w) const override { inner_.save_state(w); }
  void load_state(h2::ckpt::CkptReader& r) override { inner_.load_state(r); }

 private:
  h2::SyntheticGenerator inner_;
  Tally* tally_;
  u64 sample_ = 0;
};

/// SimSystem::access, timed per layer.
class TimedPort final : public h2::MemoryPort {
 public:
  TimedPort(h2::SimSystem& sys, Tally* tally)
      : hierarchy_(sys.hierarchy()), hybrid_(sys.hybrid()), tally_(tally) {}

  Cycle access(Cycle now, h2::Requestor cls, u32 unit, h2::Addr addr, bool write) override {
    LayerTimes& t = tally_->t;
    const u64 sample = tally_->stepping->take_sample();
    const u64 a = now_ns();
    const h2::HierarchyResult hr = cls == h2::Requestor::Cpu
                                       ? hierarchy_.cpu_access(unit, addr, write)
                                       : hierarchy_.gpu_access(unit, addr, write);
    const u64 b = now_ns();
    t.port_calls++;
    t.cache_ns += b - a;
    if (sample != 0) {
      tally_->span("access", sample, "cache", "proc", a, b);
      tally_->step_sample = sample;
    }
    const Cycle ready = now + hr.latency;
    if (!hr.memory_needed) return ready;
    if (hr.writeback) {
      hybrid_.writeback(ready, cls, hr.writeback_addr);
      t.hm_calls++;
    }
    const Cycle done = hybrid_.access(ready, cls, addr, write);
    const u64 c = now_ns();
    t.hm_calls++;
    t.hm_ns += c - b;
    if (sample != 0) tally_->span("access", sample, "hybridmem", "proc", b, c);
    return done;
  }

 private:
  h2::CacheHierarchy& hierarchy_;
  h2::HybridMemory& hybrid_;
  Tally* tally_;
};

class TimedCore final : public h2::Actor {
 public:
  TimedCore(const h2::CoreParams& p, TimedGenerator* gen, h2::MemoryPort* port,
            Tally* tally)
      : core_(p, gen, port), gen_(gen), tally_(tally) {}

  Cycle step(h2::Engine& engine, Cycle now) override {
    LayerTimes& t = tally_->t;
    if (core_.finished()) t.replay_steps++;
    tally_->stepping = gen_;
    const u64 a = now_ns();
    const Cycle next = core_.step(engine, now);
    const u64 b = now_ns();
    t.step_ns += b - a;
    t.steps++;
    if (tally_->step_sample != 0) {
      tally_->span("access", std::exchange(tally_->step_sample, 0), "proc", "sim", a, b);
    }
    return next;
  }
  const char* name() const override { return core_.name(); }
  h2::Core& core() { return core_; }

 private:
  h2::Core core_;
  TimedGenerator* gen_;
  Tally* tally_;
};

/// One member system with the benchmark's engine, generators and cores, and
/// the epoch bookkeeping SimSystem keeps for its own (unused) engine.
struct Member {
  h2::SimSystem* sys = nullptr;
  h2::Engine engine;
  std::unique_ptr<TimedPort> port;
  std::vector<std::unique_ptr<TimedGenerator>> gens;
  std::vector<std::unique_ptr<TimedCore>> cores;
  u64 prev_cpu_instr = 0, prev_gpu_instr = 0;
  u64 prev_cpu_miss = 0, prev_gpu_miss = 0, prev_gpu_migr = 0;
  bool all_done = false;
  bool at_boundary = false;
  h2::EpochFeedback pending;
};

/// SimSystem::on_epoch_boundary: the local feedback snapshot, then a pause.
void epoch_boundary(Member& m, Tally& tally, Cycle now) {
  const u64 a = now_ns();
  u64 cpu = 0, gpu = 0;
  bool done = true;
  for (const auto& tc : m.cores) {
    const h2::Core& c = tc->core();
    (c.cls() == h2::Requestor::Cpu ? cpu : gpu) += c.retired_instructions();
    done = done && c.finished();
  }
  m.all_done = done;
  const h2::HybridStats& sc = m.sys->hybrid().stats(h2::Requestor::Cpu);
  const h2::HybridStats& sg = m.sys->hybrid().stats(h2::Requestor::Gpu);
  h2::EpochFeedback& fb = m.pending;
  fb = h2::EpochFeedback{};
  fb.now = now;
  fb.epoch_cycles = m.sys->config().epoch_cycles;
  fb.cpu_instructions = cpu - m.prev_cpu_instr;
  fb.gpu_instructions = gpu - m.prev_gpu_instr;
  fb.cpu_misses = sc.misses - m.prev_cpu_miss;
  fb.gpu_misses = sg.misses - m.prev_gpu_miss;
  fb.gpu_migrations = sg.migrations - m.prev_gpu_migr;
  fb.slow_backlog = m.sys->memory().slow_backlog(now);
  m.prev_cpu_instr = cpu;
  m.prev_gpu_instr = gpu;
  m.prev_cpu_miss = sc.misses;
  m.prev_gpu_miss = sg.misses;
  m.prev_gpu_migr = sg.migrations;
  m.at_boundary = true;
  m.engine.stop();
  tally.t.hook_ns += now_ns() - a;
}

std::unique_ptr<Member> make_member(h2::SimSystem& sys, Tally* tally) {
  const h2::ExperimentConfig& cfg = sys.config();
  if (!cfg.trace_dir.empty() || cfg.cpu_only || cfg.gpu_only) {
    throw std::runtime_error("seam tracing needs synthetic shared-run workloads");
  }
  auto m = std::make_unique<Member>();
  m->sys = &sys;
  m->port = std::make_unique<TimedPort>(sys, tally);
  const h2::ComboSpec& cb = h2::combo(cfg.combo);
  for (const auto& c : sys.cores()) {
    const h2::CoreParams& p = c->params();
    const bool cpu = p.cls == h2::Requestor::Cpu;
    // Workload pick, RNG seed and engine start follow the *global* unit id,
    // as in both SimSystem::build overloads.
    u32 global = p.unit;
    if (sys.is_member()) {
      global = cpu ? sys.slice().cpu_cores.at(p.unit) : sys.slice().gpu_clusters.at(p.unit);
    }
    h2::WorkloadSpec spec;
    u64 seed = 0;
    if (cpu) {
      spec = h2::with_scaled_footprint(
          h2::cpu_workload_spec(cb.cpu[(global / 2) % cb.cpu.size()]), 1, cfg.sys.scale);
      seed = h2::mix_hash(cfg.seed, 0x1000 + global);
    } else {
      spec = h2::with_scaled_footprint(h2::gpu_workload_spec(cb.gpu), 1, cfg.sys.scale);
      spec.footprint_bytes =
          std::max<u64>(256 * 1024, spec.footprint_bytes / cfg.sys.gpu_clusters());
      seed = h2::mix_hash(cfg.seed, 0x2000 + global);
    }
    m->gens.push_back(std::make_unique<TimedGenerator>(spec, seed, tally));
    m->cores.push_back(
        std::make_unique<TimedCore>(p, m->gens.back().get(), m->port.get(), tally));
    m->engine.add_actor(m->cores.back().get(), global);
  }
  Member* raw = m.get();
  m->engine.add_periodic(cfg.epoch_cycles,
                         [raw, tally](Cycle now) { epoch_boundary(*raw, *tally, now); });
  return m;
}

h2::EpochFeedback merge(const std::vector<std::unique_ptr<Member>>& ms,
                        const h2::ExperimentConfig& cfg) {
  h2::EpochFeedback merged;
  merged.now = ms[0]->pending.now;
  merged.epoch_cycles = cfg.epoch_cycles;
  for (const auto& m : ms) {
    const h2::EpochFeedback& fb = m->pending;
    if (fb.now != merged.now) throw std::runtime_error("member epoch boundaries skewed");
    merged.cpu_instructions += fb.cpu_instructions;
    merged.gpu_instructions += fb.gpu_instructions;
    merged.cpu_misses += fb.cpu_misses;
    merged.gpu_misses += fb.gpu_misses;
    merged.gpu_migrations += fb.gpu_migrations;
    merged.slow_backlog += fb.slow_backlog;
  }
  merged.weighted_ipc = (cfg.weight_cpu * static_cast<double>(merged.cpu_instructions) +
                         cfg.weight_gpu * static_cast<double>(merged.gpu_instructions)) /
                        static_cast<double>(cfg.epoch_cycles);
  return merged;
}

/// Runs one lifecycle phase (ShardGroup::run_phase): a warmup phase ends
/// after `warmup_epochs` boundaries, the measure phase once every core of
/// every member reached its target.
void run_phase(std::vector<std::unique_ptr<Member>>& ms, const h2::ExperimentConfig& cfg,
               u32 warmup_epochs, Tally& tally, u64& last_boundary_ns) {
  u64 epochs = 0;
  for (;;) {
    const bool done = warmup_epochs > 0
                          ? epochs >= warmup_epochs
                          : std::all_of(ms.begin(), ms.end(),
                                        [](const auto& m) { return m->all_done; });
    if (done) return;
    bool all_at_boundary = true;
    for (auto& m : ms) {
      m->at_boundary = false;
      const u64 a = now_ns();
      m->engine.run(cfg.max_cycles);
      tally.t.run_ns += now_ns() - a;
      all_at_boundary = all_at_boundary && m->at_boundary;
    }
    if (!all_at_boundary) return;  // horizon or no events: the phase just ends
    epochs++;
    const h2::EpochFeedback merged = merge(ms, cfg);
    const u64 a = now_ns();
    for (auto& m : ms) {
      if (m->sys->policy().on_epoch(merged) && m->sys->hybrid().config().instant_reconfig) {
        m->sys->hybrid().run_instant_reconfig();
      }
    }
    const u64 b = now_ns();
    tally.t.epoch_ns += b - a;
    tally.t.epochs++;
    tally.span("epoch", tally.t.epochs, "epoch", "", last_boundary_ns, b);
    tally.span("epoch", tally.t.epochs, "policies", "epoch", a, b);
    last_boundary_ns = b;
  }
}

template <class System>
Outcome seam_experiment(const h2::ExperimentConfig& cfg, Tally& tally) {
  Outcome op;
  op.label = label_of(cfg);
  const u64 t0 = now_ns();
  try {
    System sys(cfg);
    sys.build();
    std::vector<std::unique_ptr<Member>> ms;
    for (h2::SimSystem* s : members(sys)) ms.push_back(make_member(*s, &tally));
    u64 last_boundary_ns = now_ns();
    if (cfg.warmup_epochs > 0) {
      run_phase(ms, cfg, cfg.warmup_epochs, tally, last_boundary_ns);
      // The warmup -> measure transition: SimSystem zeroes its layers' stats
      // (and its own idle cores); the benchmark's cores and snapshot
      // cursors are reset alongside.
      for (auto& m : ms) {
        m->sys->reset_measurement();
        for (auto& tc : m->cores) tc->core().reset_measurement();
        m->prev_cpu_instr = m->prev_gpu_instr = 0;
        m->prev_cpu_miss = m->prev_gpu_miss = m->prev_gpu_migr = 0;
        m->all_done = false;
      }
    }
    run_phase(ms, cfg, 0, tally, last_boundary_ns);
    for (auto& m : ms) {
      op.counters.member_steps.push_back(m->engine.steps_executed());
      for (auto& tc : m->cores) {
        op.counters.core_retired.push_back(tc->core().retired_instructions());
        op.counters.core_done.push_back(tc->core().done_cycle());
      }
      collect_layers(*m->sys, op.counters, op.layers);
    }
  } catch (const std::exception& e) {
    op.fail(std::string("threw: ") + e.what());
  }
  tally.t.exp_ns += now_ns() - t0;
  return op;
}

void write_spans(const Tally& tally, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : tally.spans) {
    out << "{\"kind\":\"" << s.kind << "\",\"id\":" << s.id << ",\"span\":\"" << s.name
        << "\",\"parent\":\"" << s.parent << "\",\"exp\":\"" << tally.labels[s.exp]
        << "\",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.end_ns - s.start_ns
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write span trace " + path);
}

}  // namespace

SeamPass run_seam_pass(const Workload& w, const std::string& span_path) {
  SeamPass pass;
  Tally tally;
  tally.origin_ns = now_ns();
  for (const h2::ExperimentConfig& cfg : w.configs) {
    tally.exp = static_cast<u32>(tally.labels.size());
    tally.labels.push_back(label_of(cfg));
    pass.ops.push_back(w.kind == Kind::Shard ? seam_experiment<h2::ShardGroup>(cfg, tally)
                                             : seam_experiment<h2::SimSystem>(cfg, tally));
  }
  pass.wall_s = static_cast<double>(now_ns() - tally.origin_ns) * 1e-9;
  pass.t = tally.t;
  write_spans(tally, span_path);
  return pass;
}

}  // namespace h2bench
