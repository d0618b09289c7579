// Tangram benchmark binary: one workload per process, single-threaded.
//
//   tangram_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--check 1] [--spans <path>]
//
// The benchmark calls each layer's public functions itself instead of going
// through experiments::run_multistream / run_end_to_end, so it can time and
// count around every layer boundary:
//
//   trace      video/, vision/, core/partitioner via experiments::build_trace
//   estimator  core/estimator (the offline profiling campaign)
//   link       net::Link::send
//   admit      TangramSystem::receive_patch / TangramStrategy::on_patch
//              (InvokerPool, SloAwareInvoker, StitchSession, FreeRectIndex)
//   timer      invoker deadline timers dispatching into the platform
//   platform   serverless completion, backlog drain, per-patch telemetry
//   control    autoscale / forecast / pre-warm ticks and rebalance / steal
//              ticks
//   sim        the sim/ engine
//
// Its event order is the harness's, term for term, so a run reproduces the
// harness bit for bit on the same inputs (--check 1 asserts exactly that).
// Simulated time is an open loop: cameras capture at their fps whatever the
// system does.  Host time is a batch job, reported as completed patches per
// host second of the simulation phase.
//
// --trace 0 prints the end-to-end metrics of one process: one set-up, then
// simulation repetitions until --seconds of host time have passed (at least
// two), with the throughput taken over each window's fastest repetition.
// Every repetition must reproduce the first one's simulated outputs exactly.
// A line before the result carries the raw window timings; run.py pools
// set-ups and windows across several processes.
// --trace 1 runs one untraced and one traced repetition and prints the
// per-layer metrics; the traced run steps the simulator one event at a
// time and attributes each step to a layer by which benchmark callback it
// observed.  Both modes check correctness on every repetition and exit 1
// when a check fails.  The last line of standard output is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/strategies.h"
#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/system.h"
#include "experiments/harness.h"
#include "experiments/parallel_runner.h"
#include "experiments/trace.h"
#include "net/link.h"
#include "serverless/forecast.h"
#include "sim/simulator.h"
#include "video/scene_catalog.h"

// Counts every operator new in this process, so run.allocs_per_patch and the
// per-layer allocation figures are read from one shared instrument.
TANGRAM_DEFINE_ALLOC_PROBE_HOOK();

using namespace tangram;

namespace {

#ifndef TANGRAM_BENCH_COMPILER
#define TANGRAM_BENCH_COMPILER "unknown"
#endif
#ifndef TANGRAM_BENCH_BUILD_TYPE
#define TANGRAM_BENCH_BUILD_TYPE "unknown"
#endif

constexpr int kScenes[] = {1, 3, 5, 7};  // Fig. 12's PANDA4K scenes
// Simulation repetitions per process.  Each window's fastest repetition is
// the reported time, so even the slowest workload gets two samples per
// process.
constexpr int kMinSimReps = 2;
constexpr int kMaxSimReps = 64;
constexpr double kMissEpsilon = 1e-9;    // the harness's deadline tolerance
constexpr std::uint32_t kSampleStride = 64;  // traced: keep 1 in 64 spans
constexpr std::size_t kSpanCapacity = 1u << 18;
constexpr std::uint32_t kChunkEvents = 1u << 14;  // events per timed window

double now_ms() { return experiments::wall_clock_ms(); }

// Every callback the benchmark schedules must fit the simulator's inline event
// storage, so the benchmark adds no heap allocation per event: callbacks
// capture indices, never a core::Patch.
template <typename Fn>
Fn inline_event(Fn fn) {
  static_assert(sizeof(Fn) <= sim::detail::InlineTask::kInlineBytes &&
                    std::is_trivially_copyable_v<Fn>,
                "benchmark callbacks must fit the simulator's inline storage");
  return fn;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Path { kSystem, kPaper };

// One Fig. 12 Tangram cell: four cameras on one shared uplink.
struct PaperCell {
  double bandwidth_mbps = 0.0;
  double slo_s = 0.0;
  std::uint64_t platform_seed = 0;
  std::size_t replicate = 0;  // selects the camera order, Workload::orders
  bool tight = false;         // the lowest-SLO cell of its uplink
};

struct Workload {
  std::string name;
  std::string regime;
  Path path = Path::kSystem;
  // Camera i replays traces[scene_of[i]].
  std::vector<int> scene_of;
  // System path: exactly what run_multistream would receive.
  experiments::MultiStreamConfig config;
  double tight_slo = 0.0;
  // Paper path: camera i of replicate r replays traces[orders[r][i]].
  std::vector<PaperCell> cells;
  std::vector<std::vector<int>> orders;
};

// A uniformly shuffled permutation of 0..n-1 (Fisher-Yates).  Workloads
// derive every per-stream label from one permuted index, so each seed places
// the same balanced mix of (scene, class, wave) combinations on different
// stream ids.
std::vector<std::size_t> permutation(std::size_t n, common::Rng& rng) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

// City mix: streams round-robin over the four scenes and over the SLO
// classes {1.0, 0.8, 1.5} s, permuted by the seed; dedicated 40 Mbps
// uplinks, hashed(8) shards, 512-sample telemetry reservoirs.
Workload city(const char* name, const char* regime, std::size_t streams,
              int instances, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.regime = regime;
  common::Rng rng(seed, 1);
  const double classes[] = {1.0, 0.8, 1.5};
  for (const std::size_t v : permutation(streams, rng)) {
    w.scene_of.push_back(static_cast<int>(v % 4));
    w.config.per_stream_slo.push_back(classes[v % 3]);
  }
  w.config.bandwidth_mbps = 40.0;
  w.config.sharding = core::ShardPolicy::hashed(8);
  w.config.telemetry_reservoir = 512;
  w.config.platform.max_instances = instances;
  w.config.seed = seed;
  w.tight_slo = 0.8;
  return w;
}

// Provisioned mixed-SLO fleet: 1 tight (0.25 s) : 3 loose (2 s) per-class
// shards on a reserved tight pool, windowed-max forecasting with pre-warm,
// cross-shard stealing, and the step arrival shape (half the fleet arrives
// after the first wave has drained and a 4 s keepalive has cooled it).
Workload fleet(std::uint64_t seed, double wave_gap_s) {
  constexpr std::size_t kStreams = 2048;
  constexpr int kInstances = 1024;
  constexpr int kTightReserved = 256;
  Workload w;
  w.name = "fleet_provisioned";
  w.regime = "provisioned";
  common::Rng rng(seed, 2);
  for (const std::size_t v : permutation(kStreams, rng)) {
    w.config.per_stream_slo.push_back(v % 4 == 0 ? 0.25 : 2.0);
    w.config.per_stream_start_s.push_back((v / 4) % 2 == 0 ? 0.0 : wave_gap_s);
    w.scene_of.push_back(static_cast<int>((v / 8) % 4));
  }
  w.config.sharding = core::ShardPolicy::per_slo_class();
  w.config.telemetry_reservoir = 512;
  w.config.platform.max_instances = kInstances;
  w.config.platform.keepalive_s = 4.0;
  auto autoscale = serverless::AutoscalePolicy::windowed_max(24, 0.5, 0);
  autoscale.prewarm = true;
  w.config.platform.autoscale = autoscale;
  w.config.pool_for_shard = experiments::reserved_tight_pool_plan(
      0.5, kTightReserved, kInstances - kTightReserved,
      /*tight_forecast_headroom=*/4);
  w.config.rebalance.steal.enabled = true;
  w.config.seed = seed;
  w.tight_slo = 0.25;
  return w;
}

// Fig. 12's Tangram rows: three uplinks x five SLOs, 20 replicates each.
// A replicate fixes the platform seed and the order of the four cameras on
// the shared uplink (which sets their capture phases): replicate k rotates
// a seeded base order by k, so every scene takes every slot equally often.
Workload paper(std::uint64_t seed) {
  constexpr std::size_t kReplicates = 20;
  Workload w;
  w.name = "paper_fig12";
  w.regime = "paper";
  w.path = Path::kPaper;
  common::Rng rng(seed, 3);
  const std::vector<std::size_t> base = permutation(4, rng);
  for (std::size_t k = 0; k < kReplicates; ++k) {
    std::vector<int> order;
    for (std::size_t i = 0; i < base.size(); ++i)
      order.push_back(static_cast<int>(base[(i + k) % base.size()]));
    w.orders.push_back(std::move(order));
  }
  w.scene_of = w.orders.front();
  const struct {
    double mbps;
    double slos[5];
  } sweeps[] = {{20.0, {1.0, 1.1, 1.2, 1.3, 1.4}},
                {40.0, {0.8, 0.9, 1.0, 1.1, 1.2}},
                {80.0, {0.6, 0.7, 0.8, 0.9, 1.0}}};
  for (const auto& sweep : sweeps)
    for (int s = 0; s < 5; ++s)
      for (std::size_t k = 0; k < kReplicates; ++k)
        w.cells.push_back(
            {sweep.mbps, sweep.slos[s], seed * 1000 + k, k, s == 0});
  return w;
}

bool is_workload(const std::string& name) {
  return name == "city_steady" || name == "city_overload" ||
         name == "fleet_provisioned" || name == "paper_fig12";
}

// `wave_gap_s`: the second wave's start in fleet_provisioned (depends on the
// traces, so the workload is built after them).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       double wave_gap_s) {
  if (name == "city_steady")
    return city("city_steady", "load-proportional", 4096, 1024, seed);
  if (name == "city_overload")
    return city("city_overload", "overload", 1536, 64, seed);
  if (name == "fleet_provisioned") return fleet(seed, wave_gap_s);
  return paper(seed);
}

// The mapping experiments::run_multistream applies to its config.
core::TangramSystem::Config system_config_of(
    const experiments::MultiStreamConfig& config) {
  core::TangramSystem::Config sc;
  sc.canvas = config.canvas;
  sc.slack_sigma = config.slack_sigma;
  sc.heuristic = config.heuristic;
  sc.platform = config.platform;
  sc.function_latency = config.latency;
  sc.sharding = config.sharding;
  sc.rebalance = config.rebalance;
  sc.pool_for_shard = config.pool_for_shard;
  sc.telemetry_reservoir = config.telemetry_reservoir;
  if (config.telemetry_reservoir > 0 && sc.platform.telemetry_reservoir == 0)
    sc.platform.telemetry_reservoir = config.telemetry_reservoir;
  sc.profiled_estimator = config.profiled_estimator;
  sc.seed = config.seed;
  return sc;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

enum Layer : std::uint8_t {
  kFrame,      // step: a camera frame callback ran
  kDeliver,    // step: a link delivery callback ran
  kPlatform,   // step: a result callback ran (platform completion)
  kTimer,      // step: the platform got new work with none of the above
  kControl,    // step: anything else (ticks, pre-warm completions)
  kFlush,      // end-of-stream flush, outside any event
  kAdmit,      // child of kDeliver: receive_patch / on_patch
  kLink,       // child of kFrame: Link::send
  kEstimator,  // paper path: per-cell strategy construction and profiling
  kLayerCount
};
constexpr const char* kLayerNames[kLayerCount] = {
    "frame", "deliver", "platform", "timer", "control",
    "flush", "admit",   "link",     "estimator"};

struct LayerTotals {
  std::uint64_t count = 0;
  double ms = 0.0;
  double self_ms = 0.0;
  std::uint64_t allocs = 0;
};

struct Span {
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::uint64_t patch = 0;  // a patch the span handled, 0 = none
  std::int32_t parent = -1;
  Layer layer = kFrame;
};

// Per-layer totals for every span plus full records for a deterministic
// sample: frame / deliver steps of every 64th camera with their children,
// and every 64th step of the other layers.  All storage is reserved up
// front, so recording allocates nothing.
class Tracer {
 public:
  Tracer() {
    spans_.reserve(kSpanCapacity);
    children_.reserve(4096);
  }

  void child(Layer layer, double start, double end, std::uint64_t allocs,
             std::uint64_t patch) {
    LayerTotals& t = totals_[layer];
    ++t.count;
    t.ms += end - start;
    t.self_ms += end - start;
    t.allocs += allocs;
    child_ms_ += end - start;
    if (children_.size() < children_.capacity())
      children_.push_back(Span{start, end, patch, -1, layer});
  }

  // Closes a step: its self time excludes the children recorded since the
  // previous step.  `sampled` = the step's camera is in the sample (frame /
  // deliver); the other layers sample by ordinal.
  void step(Layer layer, double start, double end, std::uint64_t allocs,
            std::uint64_t patch, bool sampled) {
    LayerTotals& t = totals_[layer];
    const bool keep = (layer == kFrame || layer == kDeliver)
                          ? sampled
                          : t.count % kSampleStride == 0;
    ++t.count;
    t.ms += end - start;
    t.self_ms += end - start - child_ms_;
    t.allocs += allocs;
    if (keep) keep_span(Span{start, end, patch, -1, layer}, children_.size());
    children_.clear();
    child_ms_ = 0.0;
  }

  [[nodiscard]] const LayerTotals& totals(Layer layer) const {
    return totals_[layer];
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  // One CSV row per kept span, times in microseconds from `origin_ms`.
  void write(const std::string& path, double origin_ms) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
      throw std::runtime_error("cannot write spans to " + path);
    std::fprintf(out, "index,name,parent,start_us,end_us,patch\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%d,%.3f,%.3f,%llu\n", i, kLayerNames[s.layer],
                   s.parent, (s.start_ms - origin_ms) * 1e3,
                   (s.end_ms - origin_ms) * 1e3,
                   static_cast<unsigned long long>(s.patch));
    }
    std::fclose(out);
  }

 private:
  void keep_span(const Span& span, std::size_t kids) {
    if (spans_.size() + 1 + kids > spans_.capacity()) {
      dropped_ += 1 + kids;
      return;
    }
    const auto parent = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(span);
    for (std::size_t i = 0; i < kids; ++i) {
      spans_.push_back(children_[i]);
      spans_.back().parent = parent;
    }
  }

  LayerTotals totals_[kLayerCount];
  std::vector<Span> spans_;
  std::vector<Span> children_;
  double child_ms_ = 0.0;
  std::size_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Benchmark run
// ---------------------------------------------------------------------------

// Simulated outputs of one repetition.  Every repetition of a run must
// reproduce the first one's exactly.
struct SimOutputs {
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  std::uint64_t tight_sent = 0;
  std::uint64_t tight_done = 0;
  std::uint64_t tight_misses = 0;
  std::uint64_t bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  std::uint64_t invocations = 0;
  double cost = 0.0;
  double e2e_p50 = 0.0;
  double e2e_p999 = 0.0;

  bool operator==(const SimOutputs&) const = default;
};

// Layer counters read after a repetition (simulated, so deterministic).
struct LayerCounters {
  double batches = 0, batch_patches = 0, batch_canvases = 0;
  double eff_sum = 0, eff_count = 0;
  double saturated = 0, cold_starts = 0, fleet_peak = 0, busy_s = 0;
  double backlog_peak = 0, autoscale_samples = 0, prewarm_boots = 0;
  double steals = 0, forecast_mae_tight = 0;
  double link_wait_sum = 0, link_sends = 0;
};

struct RepResult {
  SimOutputs out;
  LayerCounters layers;
  double sim_ms = 0.0;
  // Host time per window of work (a chunk of events, or a paper cell).
  std::vector<double> windows_ms;
  std::uint64_t allocs = 0;
  std::vector<std::string> errors;
};

// Linear-interpolated quantile (common::Sampler's definition) of v[0, n).
double quantile(std::vector<double>& v, std::size_t n, double q) {
  if (n == 0) return 0.0;
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo),
                   v.begin() + static_cast<std::ptrdiff_t>(n));
  const double a = v[lo];
  if (lo + 1 >= n) return a;
  const double b = *std::min_element(
      v.begin() + static_cast<std::ptrdiff_t>(lo + 1),
      v.begin() + static_cast<std::ptrdiff_t>(n));
  return a * (1.0 - frac) + b * frac;
}

class Bench {
 public:
  Bench(const std::string& workload, std::uint64_t seed)
      : name_(workload), seed_(seed) {}
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Trace synthesis, estimator profiling and sizing of every per-patch
  // array; the system path also constructs the first repetition's system.
  // Returns the host seconds it took.
  double setup(bool tracing) {
    const double t0 = now_ms();
    traces_.clear();
    for (const int scene : kScenes)
      traces_.push_back(experiments::build_trace(video::panda4k_scene(scene)));
    const double t1 = now_ms();
    trace_build_s_ = (t1 - t0) / 1e3;
    trace_patches_ = 0;
    for (const auto& trace : traces_)
      for (const auto& frame : trace.frames)
        trace_patches_ += frame.patches.size();

    double longest_s = 0.0;
    for (const auto& trace : traces_)
      longest_s = std::max(longest_s, static_cast<double>(
                                          trace.eval_frame_count()) /
                                          trace.spec.fps);
    w_ = make_workload(name_, seed_, longest_s + 6.0);
    cameras_ = cameras_of(w_.scene_of);

    cam_patches_ = 0;
    for (const auto* cam : cameras_)
      for (std::size_t i = 0; i < cam->eval_frame_count(); ++i) {
        for (const auto& r : cam->eval_frame(i).patches)
          if (r.width > w_.config.canvas.width ||
              r.height > w_.config.canvas.height)
            throw std::logic_error("trace patch exceeds the canvas");
        cam_patches_ += cam->eval_frame(i).patches.size();
      }
    total_patches_ = w_.path == Path::kPaper
                         ? cam_patches_ * w_.cells.size()
                         : cam_patches_;
    done_.assign(total_patches_, 0);
    latency_.assign(total_patches_, 0.0);
    inv_seen_.assign(total_patches_ + w_.cells.size() + 1, 0);
    if (tracing) {
      q2i_.assign(total_patches_, 0.0);
      queue_wait_.assign(total_patches_ + 1, 0.0);
      tracer_.emplace();
    }

    estimator_profile_s_ = 0.0;
    estimator_profiles_ = 0;
    if (w_.path == Path::kSystem) {
      const double p0 = now_ms();
      w_.config.profiled_estimator = core::TangramSystem::profile_estimator(
          system_config_of(w_.config));
      estimator_profile_s_ = (now_ms() - p0) / 1e3;
      estimator_profiles_ = 1;
      rig_ = build_rig();
    }
    return (now_ms() - t0) / 1e3;
  }

  // One simulation repetition, untraced or traced.
  RepResult run_rep(bool traced) {
    reset_tallies();
    RepResult rep;
    rep.windows_ms.reserve(4096);
    const std::uint64_t a0 = common::alloc_probe_calls();
    if (w_.path == Path::kSystem) {
      if (!rig_) rig_ = build_rig();
      run_system(*rig_, traced, rep);
      rig_.reset();
    } else {
      run_paper(traced, rep);
    }
    rep.allocs = common::alloc_probe_calls() - a0;
    finish_outputs(rep);
    return rep;
  }

  // Compare against the harness runners on the same inputs.
  std::vector<std::string> cross_check(const RepResult& rep) {
    std::vector<std::string> errors;
    if (w_.path == Path::kSystem) {
      const auto h = experiments::run_multistream(cameras_, w_.config);
      if (h.events_executed != rep.out.events)
        errors.push_back("check: events differ from run_multistream");
      if (h.invocations != rep.out.invocations)
        errors.push_back("check: invocations differ from run_multistream");
      if (h.total_cost != rep.out.cost)
        errors.push_back("check: cost differs from run_multistream");
      if (h.slo_violations != rep.out.misses)
        errors.push_back("check: misses differ from run_multistream");
      if (h.patches_completed != rep.out.completed)
        errors.push_back("check: completions differ from run_multistream");
      return errors;
    }
    for (std::size_t c = 0; c < w_.cells.size(); ++c) {
      experiments::EndToEndConfig config;
      config.bandwidth_mbps = w_.cells[c].bandwidth_mbps;
      config.slo_s = w_.cells[c].slo_s;
      config.seed = w_.cells[c].platform_seed;
      const auto h = experiments::run_end_to_end(
          cameras_of(w_.orders[w_.cells[c].replicate]),
          experiments::StrategyKind::kTangram, config);
      const CellTally& mine = cell_tally_[c];
      if (h.invocations != mine.invocations || h.total_cost != mine.cost ||
          h.violations != mine.misses || h.completed_items != mine.completed)
        errors.push_back("check: cell " + std::to_string(c) +
                         " differs from run_end_to_end");
    }
    return errors;
  }

  [[nodiscard]] const Workload& workload() const { return w_; }
  [[nodiscard]] std::size_t total_patches() const { return total_patches_; }
  [[nodiscard]] double trace_build_s() const { return trace_build_s_; }
  [[nodiscard]] double estimator_profile_s() const {
    return estimator_profile_s_;
  }
  [[nodiscard]] std::uint64_t estimator_profiles() const {
    return estimator_profiles_;
  }
  [[nodiscard]] const Tracer& tracer() const { return *tracer_; }
  [[nodiscard]] double trace_origin_ms() const { return trace_origin_ms_; }
  [[nodiscard]] std::uint64_t pending_peak() const { return pending_peak_; }
  [[nodiscard]] std::size_t trace_patches() const { return trace_patches_; }
  std::vector<double>& q2i() { return q2i_; }
  std::vector<double>& queue_wait() { return queue_wait_; }
  [[nodiscard]] std::size_t invocations_seen() const { return inv_count_; }

 private:
  struct SystemRig {
    sim::Simulator sim;
    std::vector<std::unique_ptr<net::Link>> links;
    std::unique_ptr<core::TangramSystem> system;
  };

  struct CellTally {
    std::uint64_t invocations = 0;
    std::uint64_t completed = 0;
    std::uint64_t misses = 0;
    double cost = 0.0;
  };

  enum StepFlag : std::uint8_t {
    kSawFrame = 1,
    kSawDeliver = 2,
    kSawResult = 4,
  };

  [[nodiscard]] std::vector<const experiments::SceneTrace*> cameras_of(
      const std::vector<int>& scenes) const {
    std::vector<const experiments::SceneTrace*> cameras;
    for (const int scene : scenes)
      cameras.push_back(&traces_[static_cast<std::size_t>(scene)]);
    return cameras;
  }

  // Construction and stream registration, exactly as run_multistream does.
  std::unique_ptr<SystemRig> build_rig() {
    auto rig = std::make_unique<SystemRig>();
    rig->links.reserve(cameras_.size());
    for (std::size_t i = 0; i < cameras_.size(); ++i)
      rig->links.push_back(
          std::make_unique<net::Link>(rig->sim, w_.config.bandwidth_mbps));
    rig->system = std::make_unique<core::TangramSystem>(
        rig->sim, system_config_of(w_.config),
        [this](const core::Patch& patch,
               const serverless::InvocationRecord& record) {
          on_result(patch, record);
        });
    for (std::size_t cam = 0; cam < cameras_.size(); ++cam) {
      core::StreamConfig stream;
      stream.name = "cam-" + std::to_string(cam);
      stream.slo_s = base_slo(cam);
      if (rig->system->register_stream(std::move(stream)) !=
          static_cast<core::StreamId>(cam))
        throw std::logic_error("stream ids must follow camera order");
    }
    return rig;
  }

  [[nodiscard]] double base_slo(std::size_t cam) const {
    return cam < w_.config.per_stream_slo.size() ? w_.config.per_stream_slo[cam]
                                                 : w_.config.slo_s;
  }
  [[nodiscard]] double stream_start(std::size_t cam) const {
    return cam < w_.config.per_stream_start_s.size()
               ? w_.config.per_stream_start_s[cam]
               : 0.0;
  }
  [[nodiscard]] double phase(std::size_t cam) const {
    const double interval = 1.0 / cameras_[cam]->spec.fps;
    return interval * static_cast<double>(cam) /
           static_cast<double>(cameras_.size());
  }
  // Capture time of frame i of camera `cam`: the harness's arithmetic (the
  // paper path has no staged starts, and 0.0 + x == x exactly).
  [[nodiscard]] double capture(std::size_t cam, std::size_t i) const {
    const double interval = 1.0 / cameras_[cam]->spec.fps;
    return stream_start(cam) + phase(cam) +
           static_cast<double>(i) * interval;
  }

  void reset_tallies() {
    std::fill(done_.begin(), done_.end(), 0);
    std::fill(inv_seen_.begin(), inv_seen_.end(), 0);
    out_ = SimOutputs{};
    next_patch_id_ = 1;
    base_ = 0;
    inv_base_ = 0;
    inv_count_ = 0;
    duplicates_ = 0;
    billed_ = 0.0;
    pending_peak_ = 0;
    cell_tight_ = false;
    cell_tally_.assign(w_.cells.size(), CellTally{});
  }

  // --- callbacks (captures stay inside the simulator's inline storage) ----

  // Frame i of camera `cam`: every patch goes onto the camera's uplink.
  // run_multistream chains each camera's next frame from this one;
  // run_end_to_end schedules every frame up front (see run_paper).
  void emit_frame(std::uint32_t cam, std::uint32_t i) {
    flags_ |= kSawFrame;
    step_cam_ = cam;
    const experiments::FrameRecord& frame = cameras_[cam]->eval_frame(i);
    ++out_.frames;
    const bool paper = w_.path == Path::kPaper;
    net::Link& link = paper ? cell_->link : *rig_->links[cam];
    const bool tight = paper ? cell_tight_ : base_slo(cam) == w_.tight_slo;
    for (std::uint32_t p = 0; p < frame.patches.size(); ++p) {
      const std::uint64_t id = next_patch_id_++;
      ++out_.sent;
      out_.tight_sent += tight;
      out_.bytes += frame.patch_bytes[p];
      const auto on_delivered = inline_event(
          [d = this, id, cam, i, p] { d->deliver(id, cam, i, p); });
      if (tracer_ && tracing_) {
        const std::uint64_t a0 = common::alloc_probe_calls();
        const double t0 = now_ms();
        link.send(frame.patch_bytes[p], on_delivered);
        tracer_->child(kLink, t0, now_ms(), common::alloc_probe_calls() - a0,
                       id);
      } else {
        link.send(frame.patch_bytes[p], on_delivered);
      }
    }
    if (!paper && i + 1 < cameras_[cam]->eval_frame_count())
      rig_->sim.schedule_at(capture(cam, i + 1) + w_.config.edge_latency_s,
                            inline_event([d = this, cam, i] {
                              d->emit_frame(cam, i + 1);
                            }));
  }

  // Rebuilds the patch from trace indices and hands it to the scheduler.
  void deliver(std::uint64_t id, std::uint32_t cam, std::uint32_t i,
               std::uint32_t p) {
    flags_ |= kSawDeliver;
    step_cam_ = cam;
    step_patch_ = id;
    const experiments::FrameRecord& frame = cameras_[cam]->eval_frame(i);
    core::Patch patch;
    patch.id = id;
    patch.camera_id = static_cast<int>(cam);
    patch.frame_index = frame.frame_index;
    patch.region = frame.patches[p];
    patch.generation_time = capture(cam, i);
    patch.bytes = frame.patch_bytes[p];
    // The system stamps each stream's SLO; the strategy takes the patch's.
    const bool paper = w_.path == Path::kPaper;
    if (paper) patch.slo = cell_slo_;
    const auto admit = [&] {
      if (paper)
        cell_->strategy.on_patch(patch);
      else
        rig_->system->receive_patch(static_cast<core::StreamId>(cam), patch);
    };
    if (tracer_ && tracing_) {
      const std::uint64_t a0 = common::alloc_probe_calls();
      const double t0 = now_ms();
      admit();
      tracer_->child(kAdmit, t0, now_ms(), common::alloc_probe_calls() - a0,
                     id);
    } else {
      admit();
    }
  }

  void on_result(const core::Patch& patch,
                 const serverless::InvocationRecord& record) {
    if (!(flags_ & kSawResult)) step_patch_ = patch.id;
    flags_ |= kSawResult;
    const std::size_t idx = base_ + patch.id - 1;
    if (patch.id == 0 || idx >= base_ + cam_patches_ || done_[idx]) {
      ++duplicates_;
      return;
    }
    done_[idx] = 1;
    ++out_.completed;
    latency_[idx] = record.finish_time - patch.generation_time;
    const bool miss = record.finish_time > patch.deadline() + kMissEpsilon;
    out_.misses += miss;
    const bool tight =
        w_.path == Path::kPaper ? cell_tight_ : patch.slo == w_.tight_slo;
    out_.tight_done += tight;
    out_.tight_misses += tight && miss;
    const std::size_t inv = inv_base_ + record.id;
    if (inv < inv_seen_.size() && !inv_seen_[inv]) {
      inv_seen_[inv] = 1;
      billed_ += record.cost;
      if (!queue_wait_.empty() && inv_count_ < queue_wait_.size())
        queue_wait_[inv_count_] =
            record.start_time - record.setup_s - record.submit_time;
      ++inv_count_;
    }
    if (!q2i_.empty()) q2i_[idx] = record.submit_time - patch.arrival_time;
  }

  // --- system path ---------------------------------------------------------

  void run_system(SystemRig& rig, bool traced, RepResult& rep) {
    sim::Simulator& sim = rig.sim;
    const double t0 = now_ms();
    for (std::uint32_t cam = 0; cam < cameras_.size(); ++cam) {
      if (cameras_[cam]->eval_frame_count() == 0) continue;
      sim.schedule_at(stream_start(cam) + phase(cam) + w_.config.edge_latency_s,
                      inline_event([d = this, cam] { d->emit_frame(cam, 0); }));
    }
    if (traced) {
      tracing_ = true;
      trace_origin_ms_ = t0;
      step_loop(sim, rig.system->platform());
      const std::uint64_t a0 = common::alloc_probe_calls();
      const double f0 = now_ms();
      rig.system->flush();
      step_loop_reset();
      tracer_->step(kFlush, f0, now_ms(), common::alloc_probe_calls() - a0, 0,
                    true);
      step_loop(sim, rig.system->platform());
      tracing_ = false;
    } else {
      // Timed in windows of events so the caller can take each window's
      // fastest repetition; step() fires exactly what run() would.
      double c0 = t0;
      for (;;) {
        std::uint32_t n = 0;
        while (n < kChunkEvents && sim.step()) ++n;
        if (n < kChunkEvents) break;
        const double c1 = now_ms();
        rep.windows_ms.push_back(c1 - c0);
        c0 = c1;
      }
      rig.system->flush();
      sim.run();
      rep.windows_ms.push_back(now_ms() - c0);
    }
    rep.sim_ms = now_ms() - t0;

    const core::TangramSystem& system = *rig.system;
    out_.events = sim.events_executed();
    out_.invocations = system.platform().invocations();
    out_.cost = system.total_cost();

    std::uint64_t stream_completed = 0, stream_misses = 0;
    for (const auto& s : system.streams()) {
      stream_completed += s.patches_completed;
      stream_misses += s.slo_violations;
    }
    if (stream_misses != out_.misses)
      rep.errors.push_back("miss tally differs from StreamStats");
    if (stream_completed != out_.completed)
      rep.errors.push_back("completions differ from StreamStats");
    const double expected = billed_ + system.prewarm_cost();
    if (std::abs(expected - system.total_cost()) >
        1e-9 * std::max(1.0, std::abs(system.total_cost())))
      rep.errors.push_back("billing: invocation costs + pre-warm != total");

    LayerCounters& l = rep.layers;
    // Per shard: aggregate_stats() merges only the samplers' reservoirs.
    for (std::size_t i = 0; i < system.pool().shard_count(); ++i)
      add_invoker_stats(system.pool().shard(i).stats(), l);
    const core::InvokerStats stats = system.pool().aggregate_stats();
    l.saturated = static_cast<double>(stats.saturated_dispatches);
    l.steals = static_cast<double>(stats.steals);
    const serverless::FunctionPlatform& platform = system.platform();
    l.cold_starts = static_cast<double>(platform.cold_starts());
    l.fleet_peak = platform.fleet_size();
    l.busy_s = platform.busy_seconds();
    l.prewarm_boots = static_cast<double>(platform.prewarm_boots());
    const serverless::AutoscalePolicy& autoscale = w_.config.platform.autoscale;
    for (const auto& pool : platform.pool_telemetry()) {
      if (!pool.backlog_depth.empty())
        l.backlog_peak = std::max(l.backlog_peak, pool.backlog_depth.stats().max());
      l.autoscale_samples += static_cast<double>(pool.series.size());
      if (pool.name == "tight" && autoscale.forecasting())
        l.forecast_mae_tight =
            serverless::forecast::accuracy(pool.demand_history,
                                           pool.forecast_history,
                                           autoscale.horizon)
                .mae;
    }
    for (const auto& link : rig.links) {
      l.link_wait_sum += link->queueing_delay().sum();
      l.link_sends += static_cast<double>(link->queueing_delay().count());
    }
  }

  static void add_invoker_stats(const core::InvokerStats& stats,
                                LayerCounters& l) {
    l.batches += static_cast<double>(stats.batches_invoked);
    l.batch_patches += stats.batch_patch_count.stats().sum();
    l.batch_canvases += stats.batch_canvas_count.stats().sum();
    l.eff_sum += stats.canvas_efficiency.stats().sum();
    l.eff_count += static_cast<double>(stats.canvas_efficiency.count());
  }

  // --- paper path ----------------------------------------------------------

  struct PaperCellRig {
    PaperCellRig(const PaperCell& cell, const baselines::PatchCompletionFn& fn)
        : link(sim, cell.bandwidth_mbps),
          platform(sim, experiments::EndToEndConfig{}.platform,
                   experiments::EndToEndConfig{}.latency, cell.platform_seed),
          strategy(sim, platform, options(), fn) {}
    static baselines::TangramOptions options() {
      const experiments::EndToEndConfig config;
      baselines::TangramOptions o;
      o.canvas = config.canvas;
      o.slack_sigma_multiplier = config.slack_sigma;
      o.heuristic = config.heuristic;
      return o;
    }
    sim::Simulator sim;
    net::Link link;
    serverless::FunctionPlatform platform;
    baselines::TangramStrategy strategy;
  };

  void run_paper(bool traced, RepResult& rep) {
    const baselines::PatchCompletionFn on_done =
        [this](const core::Patch& patch,
               const serverless::InvocationRecord& record) {
          on_result(patch, record);
        };
    const double edge = experiments::EndToEndConfig{}.edge_latency_s;
    if (traced) {
      tracing_ = true;
      trace_origin_ms_ = now_ms();
    }
    LayerCounters& l = rep.layers;
    for (std::size_t c = 0; c < w_.cells.size(); ++c) {
      const PaperCell& cell = w_.cells[c];
      base_ = c * cam_patches_;
      inv_base_ = base_ + c;
      next_patch_id_ = 1;
      cell_slo_ = cell.slo_s;
      cell_tight_ = cell.tight;
      cell_sampled_ = c % kSampleStride == 0;
      const std::vector<int>& order = w_.orders[cell.replicate];
      for (std::size_t cam = 0; cam < order.size(); ++cam)
        cameras_[cam] = &traces_[static_cast<std::size_t>(order[cam])];
      const std::uint64_t completed0 = out_.completed;
      const std::uint64_t misses0 = out_.misses;
      const double billed0 = billed_;

      const std::uint64_t a0 = common::alloc_probe_calls();
      const double c0 = now_ms();
      auto rig = std::make_unique<PaperCellRig>(cell, on_done);
      if (traced) {
        step_loop_reset();
        tracer_->step(kEstimator, c0, now_ms(),
                      common::alloc_probe_calls() - a0, 0, true);
      }
      cell_ = rig.get();
      // run_end_to_end schedules every frame up front, camera by camera.
      for (std::uint32_t cam = 0; cam < cameras_.size(); ++cam) {
        for (std::uint32_t i = 0; i < cameras_[cam]->eval_frame_count(); ++i) {
          rig->sim.schedule_at(capture(cam, i) + edge,
                               inline_event([d = this, cam, i] {
                                 d->emit_frame(cam, i);
                               }));
        }
      }
      if (traced) {
        step_loop(rig->sim, rig->platform);
        const std::uint64_t f_a0 = common::alloc_probe_calls();
        const double f0 = now_ms();
        rig->strategy.flush();
        step_loop_reset();
        tracer_->step(kFlush, f0, now_ms(),
                      common::alloc_probe_calls() - f_a0, 0, true);
        step_loop(rig->sim, rig->platform);
      } else {
        rig->sim.run();
        rig->strategy.flush();
        rig->sim.run();
      }
      const double c1 = now_ms();
      rep.windows_ms.push_back(c1 - c0);
      rep.sim_ms += c1 - c0;

      CellTally& tally = cell_tally_[c];
      tally.invocations = rig->platform.invocations();
      tally.completed = out_.completed - completed0;
      tally.misses = out_.misses - misses0;
      tally.cost = rig->platform.total_cost();
      out_.events += rig->sim.events_executed();
      out_.invocations += tally.invocations;
      out_.cost += tally.cost;
      const double cell_billed = billed_ - billed0;
      if (std::abs(cell_billed - tally.cost) >
          1e-9 * std::max(1.0, std::abs(tally.cost)))
        rep.errors.push_back("billing: cell " + std::to_string(c) +
                             " invocation costs != total");
      const core::InvokerStats& stats = rig->strategy.invoker().stats();
      if (static_cast<std::uint64_t>(stats.batch_patch_count.stats().sum()) !=
          tally.completed)
        rep.errors.push_back("cell " + std::to_string(c) +
                             ": completions differ from dispatched patches");
      add_invoker_stats(stats, l);
      l.saturated += static_cast<double>(stats.saturated_dispatches);
      l.cold_starts += static_cast<double>(rig->platform.cold_starts());
      l.fleet_peak = std::max(l.fleet_peak,
                              static_cast<double>(rig->platform.fleet_size()));
      l.busy_s += rig->platform.busy_seconds();
      for (const auto& pool : rig->platform.pool_telemetry())
        if (!pool.backlog_depth.empty())
          l.backlog_peak =
              std::max(l.backlog_peak, pool.backlog_depth.stats().max());
      l.link_wait_sum += rig->link.queueing_delay().sum();
      l.link_sends += static_cast<double>(rig->link.queueing_delay().count());
      cell_ = nullptr;
    }
    tracing_ = false;
  }

  // --- traced stepping -----------------------------------------------------

  void step_loop_reset() {
    flags_ = 0;
    step_cam_ = 0;
    step_patch_ = 0;
  }

  // Steps `sim` to idle, attributing each step to the layer whose callback
  // it observed (see Layer).
  void step_loop(sim::Simulator& sim,
                 const serverless::FunctionPlatform& platform) {
    for (;;) {
      step_loop_reset();
      const std::uint64_t inv0 = platform.invocations();
      const std::size_t queued0 = platform.queued_requests();
      const std::uint64_t a0 = common::alloc_probe_calls();
      const double t0 = now_ms();
      if (!sim.step()) break;
      const double t1 = now_ms();
      const std::uint64_t allocs = common::alloc_probe_calls() - a0;
      Layer layer = kControl;
      if (flags_ & kSawFrame)
        layer = kFrame;
      else if (flags_ & kSawDeliver)
        layer = kDeliver;
      else if (flags_ & kSawResult)
        layer = kPlatform;
      else if (platform.invocations() > inv0 ||
               platform.queued_requests() > queued0)
        layer = kTimer;
      tracer_->step(layer, t0, t1, allocs, step_patch_,
                    w_.path == Path::kPaper ? cell_sampled_
                                            : step_cam_ % kSampleStride == 0);
      pending_peak_ =
          std::max<std::uint64_t>(pending_peak_, sim.pending_events());
    }
  }

  void finish_outputs(RepResult& rep) {
    const std::size_t n = w_.path == Path::kPaper
                              ? cam_patches_ * w_.cells.size()
                              : cam_patches_;
    if (duplicates_ != 0)
      rep.errors.push_back(std::to_string(duplicates_) +
                           " duplicate or unknown patch completions");
    if (out_.sent != n)
      rep.errors.push_back("sent patches differ from the trace total");
    if (out_.completed != out_.sent)
      rep.errors.push_back(std::to_string(out_.sent - out_.completed) +
                           " patches never completed");
    // Latencies of completed patches only (all of them, when correct).
    std::vector<double>& lat = latency_;
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (done_[i]) lat[m++] = lat[i];
    out_.e2e_p50 = quantile(lat, m, 0.5);
    out_.e2e_p999 = quantile(lat, m, 0.999);
    rep.out = out_;
  }

  std::string name_;
  std::uint64_t seed_;
  Workload w_;
  std::vector<experiments::SceneTrace> traces_;
  std::vector<const experiments::SceneTrace*> cameras_;
  std::unique_ptr<SystemRig> rig_;
  PaperCellRig* cell_ = nullptr;
  std::size_t cam_patches_ = 0;    // patches per fleet pass / paper cell
  std::size_t total_patches_ = 0;  // patches per repetition
  double trace_build_s_ = 0.0;
  std::size_t trace_patches_ = 0;  // synthesized, all frames of four scenes
  double estimator_profile_s_ = 0.0;
  std::uint64_t estimator_profiles_ = 0;

  // Per-patch records, sized in setup and indexed by patch id.
  std::vector<char> done_;
  std::vector<double> latency_;
  std::vector<char> inv_seen_;
  std::vector<double> q2i_;         // traced runs only
  std::vector<double> queue_wait_;  // traced runs only, per invocation

  SimOutputs out_;
  std::vector<CellTally> cell_tally_;
  std::uint64_t next_patch_id_ = 1;
  std::size_t base_ = 0;      // paper path: this cell's first record index
  std::size_t inv_base_ = 0;  // paper path: this cell's first invocation slot
  std::size_t inv_count_ = 0;
  std::uint64_t duplicates_ = 0;
  double billed_ = 0.0;
  double cell_slo_ = 0.0;
  bool cell_tight_ = false;
  bool cell_sampled_ = false;  // traced: keep this cell's frame spans

  std::optional<Tracer> tracer_;
  bool tracing_ = false;
  double trace_origin_ms_ = 0.0;
  std::uint8_t flags_ = 0;
  std::uint32_t step_cam_ = 0;
  std::uint64_t step_patch_ = 0;
  std::uint64_t pending_peak_ = 0;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> end_to_end_metrics(const SimOutputs& o, double setup_s,
                                       double patches_per_s) {
  const double sent = static_cast<double>(o.sent);
  const double unfinished = static_cast<double>(o.sent - o.completed);
  const double tight_unfinished =
      static_cast<double>(o.tight_sent - o.tight_done);
  return {
      {"setup_s", setup_s, "s"},
      {"patches_per_s", patches_per_s, "patches/s"},
      {"peak_rss_mb",
       static_cast<double>(experiments::peak_rss_kb()) / 1024.0, "MB"},
      {"slo_miss_rate",
       ratio(static_cast<double>(o.misses) + unfinished, sent), "fraction"},
      {"tight_class_miss_rate",
       ratio(static_cast<double>(o.tight_misses) + tight_unfinished,
             static_cast<double>(o.tight_sent)),
       "fraction"},
      {"e2e_p50_s", o.e2e_p50, "s"},
      {"e2e_p999_s", o.e2e_p999, "s"},
      {"cost_per_kpatch_usd",
       ratio(o.cost * 1000.0, static_cast<double>(o.completed)), "USD"},
      {"uplink_kb_per_frame",
       ratio(static_cast<double>(o.bytes) / 1000.0,
             static_cast<double>(o.frames)),
       "KB"},
  };
}

std::vector<Metric> per_layer_metrics(Bench& d, const RepResult& plain,
                                      const RepResult& traced) {
  const Tracer& t = d.tracer();
  const SimOutputs& o = traced.out;
  const LayerCounters& l = traced.layers;
  const double patches = static_cast<double>(o.completed);
  const auto ns_per = [&](Layer layer) {
    return ratio(t.totals(layer).ms * 1e6,
                 static_cast<double>(t.totals(layer).count));
  };
  double step_ms = 0.0;
  for (const Layer layer :
       {kFrame, kDeliver, kPlatform, kTimer, kControl, kFlush, kEstimator})
    step_ms += t.totals(layer).ms;
  const auto share = [&](Layer layer) {
    return ratio(100.0 * t.totals(layer).ms, step_ms);
  };
  const std::size_t n = std::min(d.total_patches(), d.q2i().size());
  const std::size_t invs = std::min(d.invocations_seen(), d.queue_wait().size());
  return {
      {"admit.ns_per_patch", ratio(t.totals(kAdmit).ms * 1e6, patches), "ns"},
      {"admit.allocs_per_patch",
       ratio(static_cast<double>(t.totals(kAdmit).allocs), patches), "count"},
      {"admit.q2i_p50_s", quantile(d.q2i(), n, 0.5), "s"},
      {"admit.q2i_p99_s", quantile(d.q2i(), n, 0.99), "s"},
      {"admit.share_pct", share(kAdmit), "%"},
      {"batch.patches_mean", ratio(l.batch_patches, l.batches), "count"},
      {"batch.canvases_mean", ratio(l.batch_canvases, l.batches), "count"},
      {"batch.canvas_eff_mean", ratio(l.eff_sum, l.eff_count), "fraction"},
      {"batch.invocations_per_kpatch",
       ratio(1000.0 * static_cast<double>(o.invocations), patches), "count"},
      {"deliver.self_ns_per_step",
       ratio(t.totals(kDeliver).self_ms * 1e6,
             static_cast<double>(t.totals(kDeliver).count)),
       "ns"},
      {"deliver.share_pct", share(kDeliver), "%"},
      {"frame.self_ns_per_step",
       ratio(t.totals(kFrame).self_ms * 1e6,
             static_cast<double>(t.totals(kFrame).count)),
       "ns"},
      {"frame.share_pct", share(kFrame), "%"},
      {"platform.complete_steps",
       static_cast<double>(t.totals(kPlatform).count), "count"},
      {"platform.complete_ns_per_step", ns_per(kPlatform), "ns"},
      {"platform.complete_allocs_per_step",
       ratio(static_cast<double>(t.totals(kPlatform).allocs),
             static_cast<double>(t.totals(kPlatform).count)),
       "count"},
      {"platform.share_pct", share(kPlatform), "%"},
      {"platform.queue_wait_p99_s", quantile(d.queue_wait(), invs, 0.99), "s"},
      {"platform.backlog_peak", l.backlog_peak, "count"},
      {"platform.cold_starts", l.cold_starts, "count"},
      {"platform.fleet_peak", l.fleet_peak, "count"},
      {"platform.busy_s", l.busy_s, "s"},
      {"platform.saturated_dispatches", l.saturated, "count"},
      {"timer.steps", static_cast<double>(t.totals(kTimer).count), "count"},
      {"timer.ns_per_step", ns_per(kTimer), "ns"},
      {"timer.share_pct", share(kTimer), "%"},
      {"control.steps", static_cast<double>(t.totals(kControl).count),
       "count"},
      {"control.ns_per_step", ns_per(kControl), "ns"},
      {"control.share_pct", share(kControl), "%"},
      {"control.autoscale_samples", l.autoscale_samples, "count"},
      {"control.prewarm_boots", l.prewarm_boots, "count"},
      {"control.steals", l.steals, "count"},
      {"control.forecast_mae_tight", l.forecast_mae_tight, "instances"},
      {"trace.build_s", d.trace_build_s(), "s"},
      {"trace.patches", static_cast<double>(d.trace_patches()), "count"},
      {"estimator.profile_s",
       d.estimator_profile_s() + t.totals(kEstimator).ms / 1e3, "s"},
      {"estimator.profiles",
       static_cast<double>(d.estimator_profiles() +
                           t.totals(kEstimator).count),
       "count"},
      {"link.send_ns", ns_per(kLink), "ns"},
      {"link.queue_wait_mean_s", ratio(l.link_wait_sum, l.link_sends), "s"},
      {"sim.events", static_cast<double>(o.events), "count"},
      {"sim.pending_peak", static_cast<double>(d.pending_peak()), "count"},
      {"run.allocs_per_patch",
       ratio(static_cast<double>(plain.allocs), patches), "count"},
      {"run.trace_overhead_pct",
       ratio(100.0 * (traced.sim_ms - plain.sim_ms), plain.sim_ms), "%"},
      {"run.failed_patch_rate",
       ratio(static_cast<double>(o.sent - o.completed),
             static_cast<double>(o.sent)),
       "fraction"},
  };
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool check = false;
  std::string spans_path;
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--check") {
      opt.check = value == "1";
    } else if (key == "--spans") {
      opt.spans_path = value;

    } else {
      return false;
    }
  }
  return argc % 2 == 1 && is_workload(opt.workload) && opt.seconds > 0.0;
}

void print_info(const Bench& d, const Options& opt) {
  std::printf(
      "{\"workload\": \"%s\", \"regime\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"patches_per_rep\": %zu}\n",
      d.workload().name.c_str(), d.workload().regime.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(), TANGRAM_BENCH_COMPILER,
      TANGRAM_BENCH_BUILD_TYPE, d.total_patches());
}

// Simulated outputs must depend on the seed: a neighbouring seed's first
// repetition has to differ somewhere.
std::vector<std::string> seed_check(const Options& opt,
                                    const SimOutputs& outputs) {
  Bench other(opt.workload, opt.seed + 1);
  other.setup(/*tracing=*/false);
  if (other.run_rep(false).out == outputs)
    return {"check: seeds " + std::to_string(opt.seed) + " and " +
            std::to_string(opt.seed + 1) + " give identical outputs"};
  return {};
}

int run(const Options& opt) {
  Bench bench(opt.workload, opt.seed);
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  const auto absorb = [&](const RepResult& rep) {
    attempted += rep.out.sent;
    failed += rep.out.sent - rep.out.completed;
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
  };
  const auto add = [&](std::vector<std::string> more) {
    errors.insert(errors.end(), more.begin(), more.end());
  };
  // A repetition that throws counts every patch it owed as failed.
  const auto guarded_rep = [&](bool traced) -> std::optional<RepResult> {
    try {
      RepResult rep = bench.run_rep(traced);
      absorb(rep);
      return rep;
    } catch (const std::exception& e) {
      attempted += bench.total_patches();
      failed += bench.total_patches();
      errors.push_back(std::string("repetition threw: ") + e.what());
      return std::nullopt;
    }
  };
  const auto finish = [&](const std::vector<Metric>& metrics) {
    for (const auto& e : errors) std::printf("error: %s\n", e.c_str());
    print_result(errors.empty(), attempted, failed, metrics);
    return errors.empty() ? 0 : 1;
  };

  if (opt.trace) {
    bench.setup(/*tracing=*/true);
    print_info(bench, opt);
    const auto plain = guarded_rep(false);
    const auto traced = guarded_rep(true);
    if (!plain || !traced) return finish({});
    if (!(traced->out == plain->out))
      errors.push_back("traced simulated outputs differ from untraced");
    if (opt.check) {
      add(bench.cross_check(*plain));
      add(seed_check(opt, plain->out));
    }
    if (!opt.spans_path.empty()) {
      bench.tracer().write(opt.spans_path, bench.trace_origin_ms());
      std::printf("{\"spans\": \"%s\", \"spans_dropped\": %zu}\n",
                  opt.spans_path.c_str(), bench.tracer().dropped());
    }
    return finish(per_layer_metrics(bench, *plain, *traced));
  }

  const double setup_s = bench.setup(/*tracing=*/false);
  print_info(bench, opt);

  std::vector<std::vector<double>> rep_windows;  // [repetition][window] ms
  std::optional<SimOutputs> first;
  double elapsed_ms = 0.0;
  for (int rep = 0; rep < kMaxSimReps; ++rep) {
    if (rep >= kMinSimReps && elapsed_ms >= opt.seconds * 1e3) break;
    const auto r = guarded_rep(false);
    if (!r) return finish({});
    elapsed_ms += r->sim_ms;
    rep_windows.push_back(r->windows_ms);
    if (r->windows_ms.size() != rep_windows.front().size())
      errors.push_back("repetition " + std::to_string(rep) +
                       " ran a different number of windows");
    if (!first) {
      first = r->out;
      if (opt.check) {
        add(bench.cross_check(*r));
        add(seed_check(opt, r->out));
      }
    } else if (!(r->out == *first)) {
      errors.push_back("repetition " + std::to_string(rep) +
                       " is not deterministic");
    }
  }

  // Raw timings, so a caller running several processes can pool them.
  std::string raw = "{\"windows_ms\": [";
  for (std::size_t r = 0; r < rep_windows.size(); ++r) {
    raw += r ? ", [" : "[";
    for (std::size_t k = 0; k < rep_windows[r].size(); ++k)
      raw += (k ? ", " : "") + fmt(rep_windows[r][k]);
    raw += ']';
  }
  std::printf("%s]}\n", raw.c_str());

  // Throughput over each window's least-disturbed time across repetitions:
  // interference from the rest of a shared machine only ever adds time.
  double best_ms = 0.0;
  for (std::size_t k = 0; k < rep_windows.front().size(); ++k) {
    double best = rep_windows.front()[k];
    for (const auto& windows : rep_windows)
      if (k < windows.size()) best = std::min(best, windows[k]);
    best_ms += best;
  }
  return finish(end_to_end_metrics(
      *first, setup_s,
      static_cast<double>(first->completed) / (best_ms / 1e3)));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: tangram_perfbench --workload "
                 "<city_steady|city_overload|fleet_provisioned|paper_fig12> "
                 "--seed <n> --seconds <s> --trace <0|1> [--check 1] "
                 "[--spans <path>]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
}
