// Differential test of FunctionPlatform's backlog against a naive reference
// platform.
//
// The reference keeps the backlog the obvious way: ONE vector of waiting
// requests in arrival order, drained by a full scan with per-pool "blocked"
// flags — a pool whose oldest entry cannot start keeps all its later
// entries queued, while other pools keep draining past it.  Everything else
// (instance choice, capacity-pool headroom, autoscaling, forecasting,
// pre-warming) is written out plainly from the platform's documented rules,
// favouring obviousness over speed: counts are recomputed by scanning
// instead of being kept in counters.
//
// Both run the same seeded scenarios on their own simulators: 1-4 capacity
// pools with reservations and burst caps, every AutoscalePolicy kind (the
// forecast kinds with and without pre-warm), dyadic latencies so arrivals,
// completions, boots and ticks collide on the same timestamps, and
// completion callbacks that submit follow-up work before the drain runs.
// Every request must get the same invocation id (dispatch order), start and
// finish time, instance and pool, and both simulators must execute the same
// number of events.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serverless/forecast.h"
#include "serverless/platform.h"
#include "sim/simulator.h"

namespace tangram::serverless {
namespace {

// What a request saw, from either platform.
struct Outcome {
  bool done = false;
  std::uint64_t id = 0;
  double submit = 0.0;
  double start = 0.0;
  double finish = 0.0;
  double setup = 0.0;
  int instance = -1;
  int pool = -1;
  bool operator==(const Outcome&) const = default;
};

// --- reference platform ----------------------------------------------------

class ReferencePlatform {
 public:
  using DoneFn = std::function<void(int tag, const Outcome&)>;

  ReferencePlatform(sim::Simulator& sim, const PlatformConfig& config,
                    const LatencyModelParams& latency, std::uint64_t seed,
                    DoneFn on_done)
      : sim_(sim),
        config_(config),
        latency_(latency, common::Rng(seed, 5)),
        on_done_(std::move(on_done)) {
    add_pool({FunctionPlatform::kDefaultPool, 0, config_.max_instances});
    for (const CapacityPoolConfig& pool : config_.pools) add_pool(pool);
  }

  void invoke(int tag, double megapixels, int pool) {
    arm_autoscaler();
    const Waiting request{tag, megapixels, pool, sim_.now()};
    if (waiting(pool) > 0 || headroom(pool) <= 0) {
      backlog_.push_back(request);
    } else {
      start(request);
    }
    note_demand_peak(pool);
  }

  [[nodiscard]] std::size_t queued() const { return backlog_.size(); }
  [[nodiscard]] std::size_t waiting(int pool) const {
    return static_cast<std::size_t>(
        std::count_if(backlog_.begin(), backlog_.end(),
                      [pool](const Waiting& w) { return w.pool == pool; }));
  }
  [[nodiscard]] int limit(int pool) const { return pool_at(pool).limit; }
  [[nodiscard]] std::uint64_t prewarm_boots(int pool) const {
    return pool_at(pool).prewarm_boots;
  }

 private:
  struct Instance {
    double busy_until = 0.0;
    double warm_until = 0.0;
    bool started = false;
  };
  struct Pool {
    int reserved = 0;
    int burst = 0;
    int headroom = 0;
    int limit = 0;
    int in_use = 0;
    int prewarming = 0;
    double demand_peak = 0.0;
    std::vector<double> demand;
    std::vector<double> forecast;
    std::uint64_t prewarm_boots = 0;
  };
  struct Waiting {
    int tag;
    double megapixels;
    int pool;
    double submit;
  };

  const Pool& pool_at(int pool) const {
    return pools_[static_cast<std::size_t>(pool)];
  }
  Pool& pool_at(int pool) { return pools_[static_cast<std::size_t>(pool)]; }

  void add_pool(const CapacityPoolConfig& config) {
    Pool pool;
    pool.reserved = config.reserved;
    pool.burst =
        config.burst_limit < 0 ? config_.max_instances : config.burst_limit;
    pool.headroom = config.forecast_headroom >= 0
                        ? config.forecast_headroom
                        : config_.autoscale.headroom;
    pool.limit = config_.autoscale.initial_limit == 0
                     ? pool.burst
                     : std::clamp(config_.autoscale.initial_limit,
                                  std::max(1, pool.reserved), pool.burst);
    pools_.push_back(pool);
  }

  [[nodiscard]] int total_in_use() const {
    int total = 0;
    for (const Pool& pool : pools_) total += pool.in_use;
    return total;
  }

  // Slots this pool may start right now: its own unmet reservation, plus
  // fleet slots that are neither busy nor owed to any pool's reservation,
  // capped by the pool's limit.
  [[nodiscard]] int headroom(int pool) const {
    const Pool& p = pool_at(pool);
    const int guaranteed = std::max(0, p.reserved - p.in_use);
    int owed_elsewhere = 0;
    for (std::size_t i = 0; i < pools_.size(); ++i)
      if (static_cast<int>(i) != pool)
        owed_elsewhere += std::max(0, pools_[i].reserved - pools_[i].in_use);
    const int free_unreserved = config_.max_instances - total_in_use() -
                                guaranteed - owed_elsewhere;
    const int physical = guaranteed + std::max(0, free_unreserved);
    return std::max(0, std::min(p.limit - p.in_use, physical));
  }

  // The pre-per-pool-FIFO drain: one arrival-ordered scan of everything.
  void drain() {
    std::vector<bool> blocked(pools_.size(), false);
    std::size_t i = 0;
    while (i < backlog_.size()) {
      const Waiting w = backlog_[i];
      if (!blocked[static_cast<std::size_t>(w.pool)] && headroom(w.pool) > 0) {
        backlog_.erase(backlog_.begin() + static_cast<std::ptrdiff_t>(i));
        start(w);
      } else {
        blocked[static_cast<std::size_t>(w.pool)] = true;
        ++i;
      }
    }
  }

  [[nodiscard]] bool idle_warm(const Instance& inst) const {
    return inst.started && inst.busy_until <= sim_.now() &&
           inst.warm_until > sim_.now();
  }
  [[nodiscard]] bool cooled(const Instance& inst) const {
    return inst.busy_until <= sim_.now() && inst.warm_until <= sim_.now();
  }
  [[nodiscard]] int first_cooled() const {
    for (std::size_t i = 0; i < instances_.size(); ++i)
      if (cooled(instances_[i])) return static_cast<int>(i);
    return -1;
  }

  // Round-robin over idle warm instances; else a cooled slot; else a new
  // one.  The last two pay a cold start.
  void start(const Waiting& w) {
    int chosen = -1;
    const int n = static_cast<int>(instances_.size());
    for (int step = 0; step < n && chosen < 0; ++step) {
      const int i = (round_robin_ + step) % n;
      if (idle_warm(instances_[static_cast<std::size_t>(i)])) {
        chosen = i;
        round_robin_ = (i + 1) % n;
      }
    }
    bool cold = false;
    if (chosen < 0) {
      cold = true;
      chosen = first_cooled();
      if (chosen < 0) {
        instances_.push_back({});
        chosen = n;
      }
    }
    Outcome out;
    out.done = true;
    out.id = next_id_++;
    out.submit = w.submit;
    out.setup = cold ? config_.cold_start_s : 0.0;
    out.start = sim_.now() + out.setup;
    out.finish = out.start + latency_.sample_image_latency(w.megapixels);
    out.instance = chosen;
    out.pool = w.pool;
    Instance& inst = instances_[static_cast<std::size_t>(chosen)];
    inst.started = true;
    inst.busy_until = out.finish;
    inst.warm_until = out.finish + config_.keepalive_s;
    ++pool_at(w.pool).in_use;
    const int tag = w.tag;
    sim_.schedule_at(out.finish, [this, tag, out] {
      --pool_at(out.pool).in_use;
      on_done_(tag, out);
      drain();
    });
  }

  // --- autoscaling -----------------------------------------------------------

  [[nodiscard]] bool forecasting() const {
    return config_.autoscale.forecasting();
  }
  [[nodiscard]] double demand_now(int pool) const {
    const Pool& p = pool_at(pool);
    return static_cast<double>(p.in_use - p.prewarming) +
           static_cast<double>(waiting(pool));
  }
  void note_demand_peak(int pool) {
    if (!forecasting()) return;
    Pool& p = pool_at(pool);
    p.demand_peak = std::max(p.demand_peak, demand_now(pool));
  }

  void arm_autoscaler() {
    if (config_.autoscale.kind == AutoscalePolicy::Kind::kStatic) return;
    if (timer_.pending()) return;
    timer_ = sim_.schedule_in(config_.autoscale.interval_s, [this] { tick(); });
  }

  static int ceil_forecast(double value) {
    return static_cast<int>(std::ceil(value - 1e-9));
  }

  double observe_and_forecast(int pool) {
    const AutoscalePolicy& policy = config_.autoscale;
    Pool& p = pool_at(pool);
    const double now_demand = demand_now(pool);
    p.demand.push_back(std::max(p.demand_peak, now_demand));
    p.demand_peak = now_demand;
    double predicted = 0.0;
    if (policy.kind == AutoscalePolicy::Kind::kEwma)
      predicted = forecast::ewma(p.demand, policy.alpha);
    if (policy.kind == AutoscalePolicy::Kind::kHoltWinters)
      predicted = forecast::holt_winters(p.demand, policy.alpha, policy.beta,
                                         policy.gamma, policy.period,
                                         policy.horizon);
    if (policy.kind == AutoscalePolicy::Kind::kWindowedMax)
      predicted = forecast::windowed_max(p.demand, policy.window);
    p.forecast.push_back(predicted);
    return predicted;
  }

  [[nodiscard]] int reactive_limit(int pool) const {
    const AutoscalePolicy& policy = config_.autoscale;
    const Pool& p = pool_at(pool);
    const std::size_t queued_here = waiting(pool);
    int next = p.limit;
    if (policy.kind == AutoscalePolicy::Kind::kTargetUtilization) {
      const double utilization = static_cast<double>(p.in_use) /
                                 static_cast<double>(std::max(1, p.limit));
      if (utilization >= policy.scale_up_utilization || queued_here > 0)
        next += policy.step;
      else if (utilization <= policy.scale_down_utilization)
        next -= policy.step;
    } else {  // kQueuePressure
      if (queued_here >= policy.backlog_scale_up)
        next += policy.step;
      else if (queued_here == 0 && p.in_use < p.limit)
        next -= policy.step;
    }
    return std::clamp(next, std::max(1, p.reserved), p.burst);
  }

  void tick() {
    const AutoscalePolicy& policy = config_.autoscale;
    bool limits_moved = false;
    bool saw_demand = false;
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const int pool = static_cast<int>(i);
      Pool& p = pools_[i];
      int next;
      if (forecasting()) {
        const double predicted = observe_and_forecast(pool);
        saw_demand |= p.demand.back() > 0.0;
        next = std::clamp(ceil_forecast(predicted) + p.headroom,
                          std::max(1, p.reserved), p.burst);
      } else {
        next = reactive_limit(pool);
      }
      limits_moved |= next != p.limit;
      p.limit = next;
    }
    const std::size_t backlog_before = backlog_.size();
    drain();
    if (forecasting() && policy.prewarm) prewarm();
    idle_ticks_ = saw_demand ? 0 : idle_ticks_ + 1;
    bool predicts_demand = false;
    if (forecasting() && policy.prewarm &&
        idle_ticks_ <= 2 * std::max(policy.period, policy.window))
      for (const Pool& p : pools_)
        predicts_demand |=
            !p.forecast.empty() && ceil_forecast(p.forecast.back()) > 0;
    const bool progressed = limits_moved || backlog_.size() != backlog_before;
    if (total_in_use() > 0 || predicts_demand ||
        (!backlog_.empty() && progressed))
      timer_ = sim_.schedule_in(policy.interval_s, [this] { tick(); });
  }

  // Re-warm cooled slots up to each pool's point forecast, after idle warm
  // instances are counted against it; never grows the fleet.
  void prewarm() {
    int idle = 0;
    for (const Instance& inst : instances_) idle += idle_warm(inst) ? 1 : 0;
    int bootable = std::max(0, config_.max_instances - total_in_use() - idle);
    for (std::size_t i = 0; i < pools_.size(); ++i) {
      const int pool = static_cast<int>(i);
      Pool& p = pools_[i];
      if (p.forecast.empty()) continue;
      const int target = std::min(ceil_forecast(p.forecast.back()), p.limit);
      int shortfall = target - p.in_use;
      const int claimed = std::min(idle, std::max(0, shortfall));
      idle -= claimed;
      shortfall -= claimed;
      while (shortfall > 0 && bootable > 0 && headroom(pool) > 0) {
        const int slot = first_cooled();
        if (slot < 0) break;
        Instance& inst = instances_[static_cast<std::size_t>(slot)];
        inst.started = true;
        inst.busy_until = sim_.now() + config_.cold_start_s;
        inst.warm_until = inst.busy_until + config_.keepalive_s;
        ++p.in_use;
        ++p.prewarming;
        ++p.prewarm_boots;
        sim_.schedule_at(inst.busy_until, [this, pool] {
          --pool_at(pool).prewarming;
          --pool_at(pool).in_use;
          drain();
        });
        --shortfall;
        --bootable;
      }
    }
  }

  sim::Simulator& sim_;
  PlatformConfig config_;
  InferenceLatencyModel latency_;
  DoneFn on_done_;
  std::vector<Instance> instances_;
  std::vector<Pool> pools_;       // pools_[0] is the default pool
  std::vector<Waiting> backlog_;  // every pool's waiting requests, oldest first
  sim::EventHandle timer_;
  std::size_t idle_ticks_ = 0;
  int round_robin_ = 0;
  std::uint64_t next_id_ = 0;
};

// --- seeded scenarios ------------------------------------------------------

struct Arrival {
  double time = 0.0;
  int pool = 0;
  double megapixels = 1.0;
  int follow_pool = -1;  // >= 0: its completion submits a follow-up here
  double follow_megapixels = 1.0;
};

struct Scenario {
  PlatformConfig config;
  LatencyModelParams latency;
  std::uint64_t seed = 0;
  std::vector<Arrival> arrivals;
  int pool_count = 1;
};

Scenario draw_scenario(std::uint64_t seed) {
  common::Rng rng(seed, 41);
  Scenario s;
  s.seed = seed;
  PlatformConfig& config = s.config;
  config.max_instances = rng.uniform_int(2, 8);
  config.cold_start_s = rng.bernoulli(0.5) ? 0.25 : 0.5;
  const double keepalives[] = {0.5, 1.0, 4.0, 60.0};
  config.keepalive_s = keepalives[rng.uniform_int(0, 3)];
  int unreserved = config.max_instances;
  const int extra_pools = rng.uniform_int(0, 3);
  for (int k = 0; k < extra_pools; ++k) {
    CapacityPoolConfig pool;
    pool.name = "pool" + std::to_string(k);
    pool.reserved = rng.uniform_int(0, std::min(2, unreserved));
    unreserved -= pool.reserved;
    pool.burst_limit =
        rng.uniform_int(std::max(1, pool.reserved), config.max_instances);
    pool.forecast_headroom = rng.uniform_int(-1, 2);
    config.pools.push_back(pool);
  }
  s.pool_count = 1 + extra_pools;

  AutoscalePolicy& policy = config.autoscale;
  policy.kind = static_cast<AutoscalePolicy::Kind>(rng.uniform_int(0, 5));
  policy.interval_s = rng.bernoulli(0.5) ? 0.25 : 0.5;
  policy.initial_limit = rng.uniform_int(0, 3);
  policy.step = rng.uniform_int(1, 2);
  policy.backlog_scale_up = static_cast<std::size_t>(rng.uniform_int(1, 3));
  policy.period = static_cast<std::size_t>(rng.uniform_int(2, 6));
  policy.horizon = static_cast<std::size_t>(rng.uniform_int(1, 2));
  policy.window = static_cast<std::size_t>(rng.uniform_int(2, 8));
  policy.headroom = rng.uniform_int(0, 2);
  policy.prewarm = policy.forecasting() && rng.bernoulli(0.5);

  // Dyadic execution times (0.5 / 0.75 / 1.0 s without jitter) put
  // completions, arrivals, boots and ticks on a shared 1/8-s grid.
  s.latency.image_overhead_s = 0.25;
  s.latency.per_megapixel_s = 0.25;
  s.latency.image_gamma = 1.0;
  s.latency.jitter_sigma = rng.bernoulli(0.25) ? 0.05 : 0.0;

  const int n = rng.uniform_int(20, 100);
  // Two waves with a quiet gap, so keepalives lapse and pre-warm has a
  // valley to bridge.
  for (int i = 0; i < n; ++i) {
    Arrival a;
    const double wave = i < n / 2 ? 0.0 : 8.0;
    a.time = wave + 0.125 * rng.uniform_int(0, 24);
    a.pool = rng.uniform_int(0, s.pool_count - 1);
    a.megapixels = rng.uniform_int(1, 3);
    if (rng.bernoulli(0.3)) {
      a.follow_pool = rng.uniform_int(0, s.pool_count - 1);
      a.follow_megapixels = rng.uniform_int(1, 3);
    }
    s.arrivals.push_back(a);
  }
  return s;
}

// Long enough for every scenario to go quiet; a bound in case one never
// does.
constexpr double kHorizonS = 400.0;

struct RunResult {
  std::vector<Outcome> outcomes;  // arrivals first, then their follow-ups
  std::size_t queued = 0;
  std::vector<std::size_t> waiting;
  std::vector<int> limits;
  std::vector<std::uint64_t> prewarm_boots;
  std::uint64_t events = 0;
};

RunResult run_platform(const Scenario& s) {
  const std::size_t n = s.arrivals.size();
  sim::Simulator sim;
  FunctionPlatform platform(sim, s.config, s.latency, s.seed);
  RunResult r;
  r.outcomes.resize(2 * n);
  std::function<void(std::size_t, int, double)> submit =
      [&](std::size_t tag, int pool, double megapixels) {
        RequestSpec spec;
        spec.image_megapixels = megapixels;
        platform.invoke(spec, pool, [&, tag](const InvocationRecord& rec) {
          r.outcomes[tag] = {true,           rec.id,          rec.submit_time,
                             rec.start_time, rec.finish_time, rec.setup_s,
                             rec.instance_id, rec.pool};
          const Arrival& a = s.arrivals[tag % n];
          if (tag < n && a.follow_pool >= 0)
            submit(n + tag, a.follow_pool, a.follow_megapixels);
        });
      };
  for (std::size_t i = 0; i < n; ++i)
    sim.schedule_at(s.arrivals[i].time, [&, i] {
      submit(i, s.arrivals[i].pool, s.arrivals[i].megapixels);
    });
  sim.run_until(kHorizonS);
  r.queued = platform.queued_requests();
  for (const PoolTelemetry& pool : platform.pool_telemetry()) {
    r.waiting.push_back(pool.backlogged);
    r.limits.push_back(pool.limit);
    r.prewarm_boots.push_back(pool.prewarm_boots);
  }
  r.events = sim.events_executed();
  return r;
}

RunResult run_reference(const Scenario& s) {
  const std::size_t n = s.arrivals.size();
  sim::Simulator sim;
  RunResult r;
  r.outcomes.resize(2 * n);
  ReferencePlatform* ref = nullptr;
  ReferencePlatform platform(
      sim, s.config, s.latency, s.seed, [&](int tag, const Outcome& out) {
        const auto t = static_cast<std::size_t>(tag);
        r.outcomes[t] = out;
        const Arrival& a = s.arrivals[t % n];
        if (t < n && a.follow_pool >= 0)
          ref->invoke(static_cast<int>(n + t), a.follow_megapixels,
                      a.follow_pool);
      });
  ref = &platform;
  for (std::size_t i = 0; i < n; ++i)
    sim.schedule_at(s.arrivals[i].time, [&, i] {
      platform.invoke(static_cast<int>(i), s.arrivals[i].megapixels,
                      s.arrivals[i].pool);
    });
  sim.run_until(kHorizonS);
  r.queued = platform.queued();
  for (int pool = 0; pool < s.pool_count; ++pool) {
    r.waiting.push_back(platform.waiting(pool));
    r.limits.push_back(platform.limit(pool));
    r.prewarm_boots.push_back(platform.prewarm_boots(pool));
  }
  r.events = sim.events_executed();
  return r;
}

std::string describe(const Outcome& o) {
  std::ostringstream out;
  if (!o.done) return "never ran";
  out << "id " << o.id << " start " << o.start << " finish " << o.finish
      << " instance " << o.instance << " pool " << o.pool;
  return out.str();
}

// Empty when the runs agree; otherwise the first difference.
std::string first_difference(const RunResult& got, const RunResult& want) {
  for (std::size_t tag = 0; tag < want.outcomes.size(); ++tag)
    if (!(got.outcomes[tag] == want.outcomes[tag]))
      return "request " + std::to_string(tag) + ": platform " +
             describe(got.outcomes[tag]) + ", reference " +
             describe(want.outcomes[tag]);
  if (got.queued != want.queued) return "queued request counts differ";
  if (got.waiting != want.waiting) return "per-pool backlogs differ";
  if (got.limits != want.limits) return "final pool limits differ";
  if (got.prewarm_boots != want.prewarm_boots) return "pre-warm boots differ";
  if (got.events != want.events) return "executed event counts differ";
  return {};
}

TEST(PlatformReference, MatchesNaiveBacklogScanOverSeededConfigs) {
  constexpr std::uint64_t kScenarios = 300;
  // Coverage tallies: the agreement only means something if the scenarios
  // actually queue work across pools, collide timestamps, and pre-warm.
  std::size_t multi_pool_queueing = 0;
  std::size_t same_time_arrivals = 0;
  std::size_t prewarming = 0;
  std::vector<std::size_t> per_kind(6, 0);
  for (std::uint64_t seed = 1; seed <= kScenarios; ++seed) {
    const Scenario s = draw_scenario(seed);
    const RunResult got = run_platform(s);
    const RunResult want = run_reference(s);
    ASSERT_EQ(first_difference(got, want), "")
        << "seed " << seed << " (" << s.pool_count << " pools, "
        << s.config.max_instances << " instances, autoscale kind "
        << static_cast<int>(s.config.autoscale.kind)
        << (s.config.autoscale.prewarm ? " + prewarm" : "") << ")";

    ++per_kind[static_cast<std::size_t>(s.config.autoscale.kind)];
    std::vector<double> finishes;
    bool queued_in_other_pool = false;
    for (const Outcome& o : got.outcomes) {
      if (!o.done) continue;
      finishes.push_back(o.finish);
      queued_in_other_pool |= o.pool > 0 && o.start - o.setup > o.submit;
    }
    multi_pool_queueing += queued_in_other_pool ? 1 : 0;
    for (const Outcome& o : got.outcomes)
      if (o.done &&
          std::find(finishes.begin(), finishes.end(), o.submit) !=
              finishes.end()) {
        ++same_time_arrivals;
        break;
      }
    for (const std::uint64_t boots : got.prewarm_boots)
      if (boots > 0) {
        ++prewarming;
        break;
      }
  }
  EXPECT_GT(multi_pool_queueing, kScenarios / 4);
  EXPECT_GT(same_time_arrivals, kScenarios / 2);
  EXPECT_GT(prewarming, 10u);
  for (std::size_t kind = 0; kind < per_kind.size(); ++kind)
    EXPECT_GT(per_kind[kind], 20u) << "autoscale kind " << kind;
}

}  // namespace
}  // namespace tangram::serverless
