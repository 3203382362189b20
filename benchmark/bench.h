// h2bench internals: the workload table, the pass runners and the counters
// every output check compares. benchmark/README.md defines the workloads and
// metrics; this header only declares what h2bench.cpp, passes.cpp,
// seam_trace.cpp and yardstick.cpp share.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "harness/experiment.h"

namespace h2 {
class SimSystem;
class ShardGroup;
}  // namespace h2

namespace h2bench {

using h2::u32;
using h2::u64;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Runs a fixed piece of host work and returns the seconds it took. A shared
/// host's speed drifts by tens of percent within seconds and minutes
/// (benchmark/README.md); run between slices of simulation, the yardstick
/// slows down with it, while no change to the simulator can move it
/// (yardstick.cpp).
double yardstick();
/// yardstick()'s time on the reference host: the host benchmark/README.md
/// describes, at its faster speed level. End-to-end times are scaled by it
/// over the yardstick's median time in the same stretch of the run, so they
/// read as on the reference host.
inline constexpr double kYardstickRefS = 1.0e-3;
/// Host time between yardstick runs during a pass.
inline constexpr u64 kYardstickEveryNs = 100'000'000;
/// Worker threads of the extra shard-group pass in a traced run: one per
/// shard of bignode_shard4, on a 4-vCPU host.
inline constexpr u32 kTracedShardThreads = 4;

/// Scratch files (checkpoints under ckpt/, span traces) live here, relative
/// to the repository root h2bench runs from; benchmark/run.py builds into
/// it too. main() creates both directories.
inline constexpr const char* kWorkDir = ".bench_build";

enum class Kind {
  Fig05,  ///< monolithic SimSystem runs, cold start
  Ckpt,   ///< monolithic runs that checkpoint; passes add a restore leg
  Shard,  ///< one ShardGroup run
};

struct Workload {
  std::string name;
  Kind kind = Kind::Fig05;
  /// Experiments in run order, seeds already derived. Fig05 workloads are
  /// combo-major with the baseline first, like bench/fig05_overall.
  std::vector<h2::ExperimentConfig> configs;
  std::string golden;  ///< CSV the seed-42 weighted speedups must reproduce
  std::vector<std::string> designs;  ///< golden column order (baseline excluded)
};

const std::vector<std::string>& workload_names();
/// "<combo>/<design label>", the name an experiment's operation reports.
std::string label_of(const h2::ExperimentConfig& cfg);
/// Builds workload `name` for `seed`; every instruction target is divided
/// by `div` (8 for --smoke). False for an unknown name.
bool make_workload(const std::string& name, u64 seed, u32 div, Workload* out);

/// The state the traced run must reproduce exactly.
struct Counters {
  std::vector<u64> member_steps;  ///< engine steps, one per member system
  std::vector<u64> core_retired;  ///< every core, member-major
  std::vector<u64> core_done;
  std::vector<h2::HybridStats> hybrid;  ///< CPU then GPU, per member
  std::vector<u64> channel_requests;    ///< fast then slow, per member
  bool operator==(const Counters& o) const;
};

/// Measurement-window layer counters, summed over members.
struct LayerCounts {
  u64 llc_accesses = 0, llc_hits = 0;
  u64 demand = 0, fast_hits = 0, migrations = 0;
  u64 remap_hits = 0, remap_misses = 0;
  u64 requests = 0, row_hits = 0, row_misses = 0, activations = 0, refreshes = 0;
  u64 slow_bytes = 0;
  u64 reconfigurations = 0;
  void add(const LayerCounts& o);
};

/// The member systems whose layers an experiment runs on: the system itself,
/// or every member of a shard group.
std::vector<h2::SimSystem*> members(h2::SimSystem& sys);
std::vector<h2::SimSystem*> members(h2::ShardGroup& group);

/// Appends a member's hybrid-memory stats and channel request counts to
/// `c` and adds its measurement-window layer counters to `l`. Engine steps
/// and cores are the caller's: the seam-timed pass runs its own.
void collect_layers(h2::SimSystem& sys, Counters& c, LayerCounts& l);

/// Linear-interpolated q-th percentile (q in [0, 100]); 0 for no samples.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// One operation: one experiment, or one restore leg.
struct Outcome {
  std::string label;
  bool ok = true;
  std::string error;
  h2::ExperimentResult result;
  Counters counters;
  LayerCounts layers;
  void fail(const std::string& why) {
    if (ok) error = why;
    ok = false;
  }
};

/// Host seconds spent in each public lifecycle call over one pass.
struct Lifecycle {
  double build = 0, warmup = 0, measure = 0, save = 0, load = 0, resume = 0,
         drain = 0;
  u64 saves = 0, loads = 0, ckpt_bytes = 0;
};

struct Pass {
  double wall_s = 0;     ///< excludes the yardstick runs
  u64 instructions = 0;  ///< sum of EpochFeedback instruction deltas
  std::vector<double> epoch_ms;  ///< host time between epoch boundaries
  /// Per epoch, the index in yardstick_s of the first yardstick run at or
  /// after its end.
  std::vector<size_t> epoch_yardstick;
  std::vector<double> yardstick_s;  ///< yardstick runs, at epoch boundaries
  u64 yardstick_due_ns = 0;
  std::vector<Outcome> ops;
  Lifecycle life;

  /// epoch_ms scaled to the reference host: each epoch is divided by how
  /// much slower than kYardstickRefS the host ran around it, read as the
  /// median of the three yardstick runs nearest its end.
  std::vector<double> scaled_epoch_ms() const;
  /// How much slower the host ran during the pass than the reference host:
  /// the epochs' total time over their total scaled time.
  double slowdown() const;
};

enum class PassMode {
  Plain,   ///< build, warmup, measure, drain; no checkpoint I/O
  TwoLeg,  ///< the uninterrupted leg saves after warmup; a fresh system
           ///< restores that checkpoint and finishes as the restore leg
};

/// Runs every experiment of `w` once. `shard_threads` overrides the
/// config's worker count when non-zero.
Pass run_pass(const Workload& w, PassMode mode, u32 shard_threads = 0);

/// Host seconds to construct and build() each of the workload's systems
/// once, in config order.
std::vector<double> build_round(const Workload& w);

/// Every ExperimentResult field, doubles as hex floats: equal lines mean
/// bit-identical results.
std::string result_line(const h2::ExperimentResult& r);

/// Fails the ops of `pass` whose weighted speedup (%.2f) differs from the
/// workload's golden CSV, geomeans included.
void check_golden(const Workload& w, Pass& pass);

/// Per-layer tallies of one seam-timed pass (seam_trace.cpp).
struct LayerTimes {
  u64 exp_ns = 0;    ///< experiment spans: setup through teardown
  u64 run_ns = 0;    ///< inside Engine::run
  u64 step_ns = 0;   ///< inside core steps
  u64 hook_ns = 0;   ///< inside the epoch hook (feedback snapshot)
  u64 gen_ns = 0;    ///< inside AccessGenerator::next
  u64 cache_ns = 0;  ///< inside CacheHierarchy::{cpu,gpu}_access
  u64 hm_ns = 0;     ///< inside HybridMemory::{access,writeback}
  u64 epoch_ns = 0;  ///< inside PartitionPolicy::on_epoch
  u64 steps = 0, replay_steps = 0, gen_calls = 0, port_calls = 0,
      hm_calls = 0, epochs = 0;
};

struct SeamPass {
  double wall_s = 0;
  LayerTimes t;
  std::vector<Outcome> ops;  ///< counters only; results are not extracted
};

/// Re-runs every experiment of `w` on the benchmark's own engine, cores and
/// generators around the systems' real hierarchy, hybrid memory, channels
/// and policy, timing each layer at its public seam. Writes a 1-in-4096
/// sample of access span trees and every epoch span to `span_path` (JSONL).
SeamPass run_seam_pass(const Workload& w, const std::string& span_path);

}  // namespace h2bench
