// Forwarding workloads: an open-loop generator drives SwitchGroup port
// workers through PortRuntime ingress rings, draining egress on each
// worker after every batch.
//
//   full-chain-churn  1 port, the full Fig. 5 chain (1024-rule ACL in
//                     the pruned TCAM tier, 256 /32 routes, analog load
//                     balancer, classifier, AQM, 2 service classes), IMIX
//                     frames, and a controller thread committing
//                     verdict-neutral table deltas and same-target AQM
//                     reprograms while traffic flows.
//   bare-64b-2port    2 ports over one SharedTables, permit-all plus the
//                     256 routes, AQM on, 64 B frames, no churn: the
//                     runtime (ring handoff, mailbox poll, snapshot
//                     acquire, cross-thread frees, drain) is exposed.
//
// Packets are synthesized once per port into a pool during set-up; the
// hot path only copies pooled batches. Each port has a model clock:
// its k-th pushed batch arrives at model time (k+1) * kModelBatchS and
// carries pool batch k mod kPoolBatches. A ring-dropped batch is retried
// by the port's next push, so every port's switch sees the same batch
// sequence whatever the offered rate — which is what lets a
// single-threaded reference switch reproduce its stats and energy.
// Wall-clock pacing (due times) only decides when batches are pushed.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/telemetry/metrics.hpp"
#include "analognf/traffic/source.hpp"
#include "analognf/traffic/workload.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace analognf;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kPoolBatches = 2048;  // per port
constexpr std::size_t kRingBatches = 256;
// Model clock: one batch every 64 us per port (1 Mpps per port).
constexpr double kModelBatchS = 64.0e-6;
constexpr std::size_t kSetups = 5;

// Trial lengths, in seconds of offered traffic.
constexpr double kSearchTrialS = 0.25;
constexpr double kLatencyTrialS = 0.25;
// The verification trial pushes exactly one pool's worth of batches
// per port, retrying on a full ring, so the reference replays a fixed
// sequence and energy per packet is identical across runs.
constexpr std::uint64_t kVerifyBatches = kPoolBatches;

// A trial is disturbed when the platform, not the switch, stalled one
// of its threads: a thread was kept off the CPU (wall time advancing
// without thread CPU time) while it had work, for longer than the trial
// can absorb — the p99 limit for search trials, 1 ms for latency trials
// whose p99 is a few hundred us. A disturbed trial is run again, up to
// kTrialAttempts times; one still disturbed then is not counted as an
// observation.
constexpr std::uint64_t kSearchStallNs = 2'000'000;
constexpr std::uint64_t kLatencyStallNs = 1'000'000;
constexpr int kTrialAttempts = 4;
// A port worker may sleep voluntarily for one poll tick (200 us in
// PortRuntime) after a batch arrives; this much not-running time is
// allowed on top of the time the ring was empty.
constexpr std::uint64_t kPollSlackNs = 300'000;

// Zero-loss criterion (RFC 2544 style): ring drop at most this share of
// offered packets, p99 latency within the workload's limit, and no
// growing backlog (the last tenth of the trial also within the limit).
constexpr double kMaxDropFrac = 0.001;
constexpr double kP99LimitUs = 2000.0;
// One fixed-rate latency trial after every this many search trials.
constexpr int kSearchTrialsPerLatencyTrial = 3;

// Churn pacing: one verdict-neutral commit every 5 ms, and a same-target
// AQM reprogram with every 10th commit.
constexpr double kCommitPeriodS = 0.005;
constexpr std::size_t kAqmEvery = 10;

struct Spec {
  std::size_t ports = 1;
  // The full Fig. 5 chain under table churn (full-chain-churn), or the
  // bare chain without it (bare-64b-2port).
  bool full_chain = false;
  // Aggregate offered rate of the latency trials (Mpps), near half the
  // zero-loss rate.
  double fixed_rate_mpps = 0.0;
  // Where the first zero-loss search starts (Mpps).
  double search_start_mpps = 0.0;
};

Spec SpecFor(const std::string& name) {
  Spec s;
  if (name == "full-chain-churn") {
    s.ports = 1;
    s.full_chain = true;
    s.fixed_rate_mpps = 0.35;
    s.search_start_mpps = 0.7;
  } else {
    s.ports = 2;
    s.fixed_rate_mpps = 0.9;
    s.search_start_mpps = 1.8;
  }
  return s;
}

arch::SwitchConfig SwitchConfigFor(const Spec& spec) {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.port_rate_bps = 100.0e9;
  c.service_classes = 2;
  c.enable_aqm = true;
  if (spec.full_chain) {
    c.enable_load_balancer = true;
    c.enable_classifier = true;
    c.classifier_classes = {
        {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
        {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
    };
  }
  return c;
}

traffic::WorkloadConfig WorkloadFor(const Spec& spec, std::uint64_t seed,
                                    std::size_t port) {
  traffic::WorkloadConfig w;
  w.population.flows = 1u << 20;
  w.population.seed = seed ^ 0x5eedf10u;
  w.zipf_s = 1.0;
  w.arrivals.rate_pps = 1.0 / kModelBatchS * static_cast<double>(kBatch);
  if (spec.full_chain) {
    w.sizes = traffic::WorkloadConfig::Sizes::kImix;
  } else {
    w.sizes = traffic::WorkloadConfig::Sizes::kFixed;
    w.fixed_size_bytes = 64;
  }
  w.seed = seed * 0x9e3779b97f4a7c15ull + port + 1;
  return w;
}

// Installs the workload's tables. Every rule is verdict-neutral for the
// generated population (sources in 100.64.0.0/10, destinations in
// 10.0.0.0/24): permits pin the most popular flows' sources, denies
// cover documentation ranges the population never uses, and a
// catch-all permit closes the list.
void InstallTables(const Spec& spec, std::uint64_t seed,
                   arch::SwitchGroup& group) {
  for (std::uint32_t i = 0; i < 256; ++i) {
    group.AddRoute(0x0a000000u + i, 32, i % 4);
  }
  if (spec.full_chain) {
    const traffic::FlowPopulation population(
        WorkloadFor(spec, seed, 0).population);
    for (std::uint32_t i = 0; i < 767; ++i) {
      const traffic::FlowTuple t = population.Tuple(i);
      arch::FirewallPattern p;
      p.src_ip = t.src_ip;
      p.src_prefix_len = 32;
      if (i % 3 == 1) {
        p.dst_ip = t.dst_ip;
        p.dst_prefix_len = 24;
      } else if (i % 3 == 2) {
        p.any_protocol = false;
        p.protocol = t.protocol;
      }
      group.AddFirewallRule(p, true, 2);
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      arch::FirewallPattern p;
      p.src_ip = (i < 128 ? 0xc0000200u : 0xc6336400u) + (i % 128);
      p.src_prefix_len = 32;
      group.AddFirewallRule(p, false, 3);
    }
  }
  group.AddFirewallRule(arch::FirewallPattern{}, true, 1);
  group.Commit();
}

using Pool = std::vector<std::vector<net::Packet>>;

// Zero-loss rate search as a transformed up-down staircase (2-up,
// 1-down): the offered rate steps up only after two passing trials in a
// row (a pass confirmed by a repeat trial) and down after any failing
// trial, so it settles where a trial passes about 71% of the time
// (Levitt, 1971). Steps are x1.10 until the second reversal and x1.02
// after; the estimate is the geometric mean of the later reversal rates
// (continuous, unlike any single rate on the step grid). Unlike
// a bisection, every trial refines the same estimate, so a trial that
// fails by chance moves it one small step instead of halving the range.
class Staircase {
 public:
  explicit Staircase(double start_mpps) : rate_(start_mpps) {}

  double rate() const { return rate_; }

  void Record(bool pass) {
    int direction = 0;
    if (!pass) {
      passes_ = 0;
      direction = -1;
    } else if (++passes_ == 2) {
      passes_ = 0;
      direction = 1;
    }
    if (direction == 0) return;
    if (last_direction_ != 0 && direction != last_direction_) {
      reversals_.push_back(rate_);
    }
    last_direction_ = direction;
    const double step = reversals_.size() < kCoarseReversals ? 1.10 : 1.02;
    rate_ = direction > 0 ? rate_ * step : rate_ / step;
  }

  // Reversal rates after the coarse phase; in a window too short for
  // that, every reversal, or else the current rate.
  std::vector<double> estimates() const {
    if (reversals_.size() > kCoarseReversals) {
      return {reversals_.begin() + kCoarseReversals, reversals_.end()};
    }
    if (!reversals_.empty()) return reversals_;
    return {rate_};
  }

 private:
  static constexpr std::size_t kCoarseReversals = 2;
  double rate_;
  int passes_ = 0;
  int last_direction_ = 0;
  std::vector<double> reversals_;
};

std::uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Per-port hook state. Fields marked "worker" are written only on the
// port's worker thread inside the ring hook; the main thread reads them
// after `retired` (release by the hook) reaches the pushed count. Trial
// fields are written by the main thread before the trial's first push,
// which the ring's release/acquire orders before the hook's reads.
struct PortState {
  struct WorkerRecord {
    std::uint64_t start_ns = 0, done_ns = 0, drain_ns = 0, retire_ns = 0;
  };
  arch::PortRuntime* runtime = nullptr;
  // Trial configuration (main thread, between trials).
  std::uint64_t trial_base = 0;
  bool traced = false;
  std::vector<WorkerRecord> records;  // indexed by batch - trial_base
  // Worker.
  std::uint64_t batches_retired = 0;
  std::uint64_t delivered = 0;
  std::vector<arch::Delivery> deliveries;
  // Stall detection: the previous hook entry's wall and thread CPU
  // clocks, the previous retire, and the longest involuntary
  // not-running interval seen this trial (reset by the main thread).
  std::uint64_t prev_entry_ns = 0, prev_entry_cpu_ns = 0, prev_retire_ns = 0;
  std::uint64_t max_stall_ns = 0;
  std::atomic<std::uint64_t> retired{0};
  // Main thread (producer).
  struct ProducerRecord {
    std::uint64_t due_ns = 0, copy_ns = 0, copied_ns = 0, push_ns = 0,
                  pushed_ns = 0;
  };
  std::uint64_t pushed = 0;
  std::vector<ProducerRecord> produced;  // indexed by batch - trial_base
};

// Ring hook: runs on the worker after each batch retires. Drains the
// port's egress up to the batch's model time and stamps the retire.
void OnBatchRetired(PortState& st,
                    const arch::PortRuntime::RingBatchInfo& info) {
  const std::uint64_t entry_ns = NowNs();
  const std::uint64_t entry_cpu_ns = ThreadCpuNs();
  const std::uint64_t k = st.batches_retired++;
  const std::uint64_t idx = k - st.trial_base;
  const bool recorded = idx < st.records.size();
  if (recorded && idx > 0) {
    // Since the previous hook the worker ran its poll loop, perhaps
    // slept while the ring was empty, and served this batch. Time off
    // the CPU beyond that sleep allowance was taken by the platform.
    const std::int64_t off_cpu =
        static_cast<std::int64_t>(entry_ns - st.prev_entry_ns) -
        static_cast<std::int64_t>(entry_cpu_ns - st.prev_entry_cpu_ns);
    const std::uint64_t push = st.produced[idx].push_ns;
    const std::uint64_t empty =
        push > st.prev_retire_ns ? push - st.prev_retire_ns : 0;
    const std::int64_t stall =
        off_cpu - static_cast<std::int64_t>(empty + kPollSlackNs);
    if (stall > 0) {
      st.max_stall_ns =
          std::max(st.max_stall_ns, static_cast<std::uint64_t>(stall));
    }
  }
  st.prev_entry_ns = entry_ns;
  st.prev_entry_cpu_ns = entry_cpu_ns;
  const double now_s = static_cast<double>(k + 1) * kModelBatchS;
  const std::uint64_t drain_ns = st.traced ? NowNs() : 0;
  st.deliveries.clear();
  st.delivered += st.runtime->device().DrainInto(now_s, st.deliveries);
  const std::uint64_t retire_ns = NowNs();
  st.prev_retire_ns = retire_ns;
  if (recorded) {
    PortState::WorkerRecord& r = st.records[idx];
    r.start_ns = info.start_ns;
    r.done_ns = info.done_ns;
    r.drain_ns = drain_ns;
    r.retire_ns = retire_ns;
  }
  st.retired.fetch_add(1, std::memory_order_release);
}

struct TrialResult {
  std::uint64_t offered = 0, pushed = 0, dropped = 0;  // packets
  double wall_s = 0.0;
  std::vector<double> latency_us;   // per pushed batch (all ports)
  std::vector<double> lateness_us;  // per attempted batch
  double tail_max_latency_us = 0.0;
  double producer_busy_ns = 0.0;
  bool producer_saturated = false;
  std::uint64_t max_stall_ns = 0;  // longest platform stall, any thread
  bool disturbed = false;
  bool pass = false;
  // Worker-side sums over pushed batches (all ports).
  double service_ns = 0.0, drain_ns = 0.0, busy_ns = 0.0;
  double max_port_busy_ns = 0.0;
  std::vector<double> ring_wait_us;
  std::uint64_t allocs = 0;
  // Traced trials: per-stage Process() time and packets over the trial,
  // summed across ports, in graph order.
  std::vector<std::string> stage_names;
  std::vector<double> stage_ns;
  std::vector<std::uint64_t> stage_packets;
};

struct Span {
  const char* name;
  std::uint64_t id;
  std::size_t port;
  std::uint64_t start_ns, end_ns;
};

class ForwardingBench {
 public:
  ForwardingBench(const Options& options, Report& report)
      : options_(options), report_(report), spec_(SpecFor(options.workload)) {}

  void Run();

 private:
  void Setup(bool bind_table_telemetry);
  // Offers `rate_mpps` for `duration_s`; with `fixed_batches` > 0 it
  // instead pushes exactly that many batches per port, retrying on a
  // full ring.
  TrialResult RunTrial(double rate_mpps, double duration_s, bool traced,
                       std::uint64_t stall_limit_ns,
                       std::uint64_t fixed_batches = 0);
  // RunTrial, repeated while the platform disturbs it.
  TrialResult RunCleanTrial(double rate_mpps, double duration_s,
                            bool traced, std::uint64_t stall_limit_ns);
  bool Passes(const TrialResult& t) const;
  void Controller();
  void VerifyAgainstReference();
  void FinalChecks();
  void WriteSpans() const;

  Options options_;
  Report& report_;
  Spec spec_;

  // Declared before the group: the shared firewall table's telemetry
  // handles point into it.
  std::unique_ptr<telemetry::MetricsRegistry> table_registry_;
  std::unique_ptr<arch::SwitchGroup> group_;
  std::vector<Pool> pools_;
  std::vector<std::unique_ptr<arch::PortRuntime::IngressRing>> rings_;
  std::vector<std::unique_ptr<PortState>> ports_;
  double synth_ns_ = 0.0;
  std::size_t synth_packets_ = 0;

  // Controller thread (churn).
  std::atomic<bool> stop_controller_{false};
  std::vector<double> commit_us_;
  std::vector<Span> commit_spans_;
  std::uint64_t commits_ = 0, commit_failures_ = 0;

  // Reference pass results.
  double reference_ns_per_pkt_ = 0.0;
  double reference_nj_per_pkt_ = 0.0;
  std::uint64_t latency_trial_drops_ = 0;
  std::uint64_t disturbed_trials_ = 0;
  std::vector<Span> spans_;
};

void ForwardingBench::Setup(bool bind_table_telemetry) {
  rings_.clear();
  ports_.clear();
  pools_.clear();
  group_.reset();
  table_registry_.reset();

  const arch::SwitchConfig config = SwitchConfigFor(spec_);
  group_ = std::make_unique<arch::SwitchGroup>(spec_.ports, config);
  if (bind_table_telemetry) {
    table_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    group_->tables().firewall.BindTelemetry(*table_registry_,
                                            "tcam.firewall");
  }
  InstallTables(spec_, options_.seed, *group_);

  synth_ns_ = 0.0;
  synth_packets_ = 0;
  pools_.resize(spec_.ports);
  for (std::size_t p = 0; p < spec_.ports; ++p) {
    traffic::TrafficSource source =
        traffic::TrafficSource::Live(WorkloadFor(spec_, options_.seed, p));
    Pool& pool = pools_[p];
    pool.resize(kPoolBatches);
    for (auto& batch : pool) {
      double now_s = 0.0;
      batch.reserve(kBatch);
      const std::uint64_t t0 = NowNs();
      synth_packets_ += source.NextBatch(kBatch, batch, now_s);
      synth_ns_ += static_cast<double>(NowNs() - t0);
    }
  }
  for (std::size_t p = 0; p < spec_.ports; ++p) {
    rings_.push_back(
        std::make_unique<arch::PortRuntime::IngressRing>(kRingBatches));
    auto st = std::make_unique<PortState>();
    st->runtime = &group_->runtime(p);
    ports_.push_back(std::move(st));
  }
}

TrialResult ForwardingBench::RunCleanTrial(double rate_mpps,
                                           double duration_s, bool traced,
                                           std::uint64_t stall_limit_ns) {
  TrialResult t;
  for (int attempt = 0; attempt < kTrialAttempts; ++attempt) {
    if (attempt > 0) spans_.clear();
    t = RunTrial(rate_mpps, duration_s, traced, stall_limit_ns);
    if (!t.disturbed) break;
    ++disturbed_trials_;
  }
  return t;
}

TrialResult ForwardingBench::RunTrial(double rate_mpps, double duration_s,
                                      bool traced,
                                      std::uint64_t stall_limit_ns,
                                      std::uint64_t fixed_batches) {
  TrialResult t;
  const std::size_t ports = spec_.ports;
  const auto period_ns = static_cast<std::uint64_t>(
      std::llround(static_cast<double>(kBatch) * 1.0e3 / rate_mpps));
  const std::uint64_t batches =
      fixed_batches > 0
          ? fixed_batches * ports
          : std::max<std::uint64_t>(
                ports, static_cast<std::uint64_t>(
                           duration_s * 1.0e9 /
                           static_cast<double>(period_ns)));
  const std::uint64_t per_port_max = batches / ports + 1;
  for (auto& st : ports_) {
    st->trial_base = st->pushed;
    st->traced = traced;
    st->records.assign(per_port_max, {});
    st->produced.assign(per_port_max, {});
    st->max_stall_ns = 0;
  }
  t.lateness_us.reserve(batches);
  std::vector<std::uint64_t> trial_pushed(ports, 0);

  std::vector<std::vector<arch::StageMetrics>> stages_before;
  if (traced) {
    for (std::size_t p = 0; p < ports; ++p) {
      stages_before.emplace_back();
      for (const auto& stage : group_->device(p).graph().stages()) {
        stages_before.back().push_back(stage->metrics());
      }
    }
  }
  const std::uint64_t allocs_before = g_allocs.load();
  if (traced) g_count_allocs.store(true);
  const std::uint64_t t0 = NowNs() + 200'000;  // 200 us lead-in
  std::uint64_t prev_ns = NowNs(), prev_cpu_ns = ThreadCpuNs();
  for (std::uint64_t s = 0; s < batches; ++s) {
    const std::size_t p = s % ports;
    PortState& st = *ports_[p];
    PortState::ProducerRecord& rec = st.produced[st.pushed - st.trial_base];
    rec.copy_ns = NowNs();
    arch::PortRuntime::Batch batch;
    batch.packets = pools_[p][st.pushed % kPoolBatches];
    batch.now_s = static_cast<double>(st.pushed + 1) * kModelBatchS;
    rec.due_ns = t0 + s * period_ns;
    batch.enqueue_ns = rec.due_ns;
    rec.copied_ns = NowNs();
    std::uint64_t now = rec.copied_ns;
    while (now < rec.due_ns) now = NowNs();
    rec.push_ns = now;
    t.lateness_us.push_back(static_cast<double>(now - rec.due_ns) / 1e3);
    t.offered += kBatch;
    if (fixed_batches > 0) {
      while (!rings_[p]->TryPush(batch)) std::this_thread::yield();
    }
    if (fixed_batches > 0 || rings_[p]->TryPush(batch)) {
      ++st.pushed;
      ++trial_pushed[p];
      t.pushed += kBatch;
    } else {
      t.dropped += kBatch;
    }
    const std::uint64_t end_ns = NowNs();
    rec.pushed_ns = end_ns;
    t.producer_busy_ns += static_cast<double>(rec.copied_ns - rec.copy_ns) +
                          static_cast<double>(end_ns - now);
    // The producer never sleeps, so any wall time without thread CPU
    // time is a platform stall.
    const std::uint64_t cpu_ns = ThreadCpuNs();
    const std::uint64_t wall = end_ns - prev_ns;
    const std::uint64_t off_cpu = wall - std::min(wall, cpu_ns - prev_cpu_ns);
    t.max_stall_ns = std::max(t.max_stall_ns, off_cpu);
    prev_ns = end_ns;
    prev_cpu_ns = cpu_ns;
  }
  for (std::size_t p = 0; p < ports; ++p) {
    while (ports_[p]->retired.load(std::memory_order_acquire) <
           ports_[p]->pushed) {
      std::this_thread::yield();
    }
  }
  const std::uint64_t end = NowNs();
  if (traced) g_count_allocs.store(false);
  t.allocs = g_allocs.load() - allocs_before;
  for (std::size_t p = 0; p < stages_before.size(); ++p) {
    const auto& stages = group_->device(p).graph().stages();
    t.stage_names.resize(stages.size());
    t.stage_ns.resize(stages.size(), 0.0);
    t.stage_packets.resize(stages.size(), 0);
    for (std::size_t i = 0; i < stages.size(); ++i) {
      t.stage_names[i] = stages[i]->name();
      t.stage_ns[i] +=
          stages[i]->metrics().process_ns - stages_before[p][i].process_ns;
      t.stage_packets[i] +=
          stages[i]->metrics().packets - stages_before[p][i].packets;
    }
  }
  t.wall_s = static_cast<double>(end - t0) / 1e9;

  for (std::size_t p = 0; p < ports; ++p) {
    const PortState& st = *ports_[p];
    double port_busy = 0.0;
    const std::uint64_t n = trial_pushed[p];
    const std::uint64_t tail_from = n - n / 10;
    for (std::uint64_t i = 0; i < n; ++i) {
      const PortState::WorkerRecord& r = st.records[i];
      const PortState::ProducerRecord& pr = st.produced[i];
      const double latency_us =
          static_cast<double>(r.retire_ns - pr.due_ns) / 1e3;
      t.latency_us.push_back(latency_us);
      if (i >= tail_from) {
        t.tail_max_latency_us = std::max(t.tail_max_latency_us, latency_us);
      }
      const double busy = static_cast<double>(r.retire_ns - r.start_ns);
      port_busy += busy;
      t.busy_ns += busy;
      t.service_ns += static_cast<double>(r.done_ns - r.start_ns);
      if (traced) {
        t.drain_ns += static_cast<double>(r.retire_ns - r.drain_ns);
        t.ring_wait_us.push_back(
            static_cast<double>(r.start_ns - pr.push_ns) / 1e3);
        const std::uint64_t id = st.trial_base + i;
        spans_.push_back({"copy", id, p, pr.copy_ns, pr.copied_ns});
        spans_.push_back({"push", id, p, pr.push_ns, pr.pushed_ns});
        spans_.push_back({"service", id, p, r.start_ns, r.done_ns});
        spans_.push_back({"drain", id, p, r.drain_ns, r.retire_ns});
      }
    }
    t.max_port_busy_ns = std::max(t.max_port_busy_ns, port_busy);
  }
  // The producer saturated if it could not keep to the arrival clock:
  // it was busy for most of the trial, or ran late by more than half
  // the latency limit.
  const double wall_ns = static_cast<double>(end - t0);
  t.producer_saturated =
      t.producer_busy_ns > 0.9 * wall_ns ||
      Quantile(t.lateness_us, 0.99) > 0.5 * kP99LimitUs;
  for (const auto& st : ports_) {
    t.max_stall_ns = std::max(t.max_stall_ns, st->max_stall_ns);
  }
  t.disturbed = t.max_stall_ns > stall_limit_ns;
  if (t.offered != t.pushed + t.dropped) {
    report_.Fail("ring conservation: offered != pushed + dropped");
  }
  t.pass = Passes(t);
  std::fprintf(stderr,
               "trial %.4f Mpps: %s drop %.5f p50 %.1f us p99 %.1f us tail "
               "%.1f us late_p99 %.1f us stall %.0f us%s%s\n",
               rate_mpps, t.pass ? "pass" : "FAIL",
               static_cast<double>(t.dropped) / static_cast<double>(t.offered),
               Quantile(t.latency_us, 0.5), Quantile(t.latency_us, 0.99),
               t.tail_max_latency_us, Quantile(t.lateness_us, 0.99),
               static_cast<double>(t.max_stall_ns) / 1e3,
               t.producer_saturated ? " (producer saturated)" : "",
               t.disturbed ? " (disturbed)" : "");
  return t;
}

bool ForwardingBench::Passes(const TrialResult& t) const {
  const double drop_frac =
      static_cast<double>(t.dropped) / static_cast<double>(t.offered);
  return !t.producer_saturated && drop_frac <= kMaxDropFrac &&
         Quantile(t.latency_us, 0.99) <= kP99LimitUs &&
         t.tail_max_latency_us <= kP99LimitUs;
}

void ForwardingBench::Controller() {
  const std::uint64_t start = NowNs();
  const auto period_ns = static_cast<std::uint64_t>(kCommitPeriodS * 1e9);
  std::vector<std::size_t> rules, routes;
  const double target_s = arch::SwitchConfig{}.aqm.target_delay_s;
  const double deviation_s = arch::SwitchConfig{}.aqm.max_deviation_s;
  for (std::uint64_t c = 0; !stop_controller_.load(); ++c) {
    const std::uint64_t due = start + c * period_ns;
    while (NowNs() < due) {
      if (stop_controller_.load()) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    try {
      const auto k = static_cast<std::uint32_t>(c / 2 % 256);
      if (rules.empty()) {
        arch::FirewallPattern p;
        p.src_ip = 0xcb007100u + k;  // 203.0.113.0/24, never a source
        p.src_prefix_len = 32;
        rules.push_back(group_->AddFirewallRule(p, false, 3));
        routes.push_back(
            group_->AddRoute(0xc6120000u + (k << 8), 24, k % 4));  // 198.18/15
      } else {
        group_->EraseFirewallRule(rules.back());
        group_->WithdrawRoute(routes.back());
        rules.pop_back();
        routes.pop_back();
      }
      const std::uint64_t t0 = NowNs();
      group_->Commit();
      const std::uint64_t t1 = NowNs();
      commit_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (options_.trace) commit_spans_.push_back({"commit", c, 0, t0, t1});
      if (c % kAqmEvery == 0) {
        group_->ProgramAqmTarget(target_s, deviation_s);
      }
    } catch (const std::exception&) {
      ++commit_failures_;
    }
    ++commits_;
  }
}

// Replays each port's pushed batches through a fresh single-threaded
// CognitiveSwitch over the same SharedTables; its stats and energy
// ledger must match the port's exactly.
void ForwardingBench::VerifyAgainstReference() {
  const arch::SwitchConfig config = SwitchConfigFor(spec_);
  double inject_ns = 0.0, energy_j = 0.0;
  std::uint64_t packets = 0, forwarded = 0;
  std::vector<double> stage_j(6, 0.0);
  static const char* kStages[] = {"parse",         "firewall",
                                  "route",         "load-balancer",
                                  "traffic-class", "traffic-manager"};
  for (std::size_t p = 0; p < spec_.ports; ++p) {
    arch::CognitiveSwitch ref(config, &group_->tables());
    std::vector<arch::Delivery> deliveries;
    const PortState& st = *ports_[p];
    for (std::uint64_t k = 0; k < st.pushed; ++k) {
      const std::vector<net::Packet>& batch = pools_[p][k % kPoolBatches];
      const double now_s = static_cast<double>(k + 1) * kModelBatchS;
      const std::uint64_t t0 = NowNs();
      ref.InjectBatch(batch, now_s);
      inject_ns += static_cast<double>(NowNs() - t0);
      deliveries.clear();
      ref.DrainInto(now_s, deliveries);
      packets += batch.size();
    }
    const arch::SwitchStats& a = group_->device(p).stats();
    const arch::SwitchStats& b = ref.stats();
    const bool same_stats =
        a.injected == b.injected && a.forwarded == b.forwarded &&
        a.parse_errors == b.parse_errors &&
        a.firewall_denies == b.firewall_denies && a.no_route == b.no_route &&
        a.aqm_drops == b.aqm_drops && a.queue_full == b.queue_full &&
        a.delivered == b.delivered;
    if (!same_stats) {
      report_.Fail("port " + std::to_string(p) +
                   " stats differ from the single-threaded reference");
    }
    if (group_->device(p).ledger().TotalJ() != ref.ledger().TotalJ()) {
      report_.Fail("port " + std::to_string(p) +
                   " energy ledger differs from the single-threaded "
                   "reference");
    }
    energy_j += ref.ledger().TotalJ();
    forwarded += b.forwarded;
    for (std::size_t s = 0; s < 6; ++s) {
      stage_j[s] +=
          ref.stage_ledger().Of(std::string("stage.") + kStages[s]).energy_j;
    }
  }
  reference_ns_per_pkt_ = inject_ns / static_cast<double>(packets);
  reference_nj_per_pkt_ =
      forwarded == 0 ? 0.0 : energy_j * 1e9 / static_cast<double>(forwarded);
  if (options_.trace) {
    for (std::size_t s = 0; s < 6; ++s) {
      report_.Set(std::string("stage.") + kStages[s] + ".nj_per_pkt",
                  stage_j[s] * 1e9 / static_cast<double>(packets), "nJ",
                  packets);
    }
  }
}

void ForwardingBench::FinalChecks() {
  std::uint64_t injected = 0, forwarded = 0, delivered = 0, pushed = 0;
  for (std::size_t p = 0; p < spec_.ports; ++p) {
    PortState& st = *ports_[p];
    arch::CognitiveSwitch& sw = group_->device(p);
    st.deliveries.clear();
    st.delivered += sw.DrainInto(1.0e30, st.deliveries);
    const arch::SwitchStats& s = sw.stats();
    const std::uint64_t partition = s.forwarded + s.parse_errors +
                                    s.firewall_denies + s.no_route +
                                    s.aqm_drops + s.queue_full;
    if (partition != s.injected) {
      report_.Fail("port " + std::to_string(p) +
                   ": verdict counters do not partition injected");
    }
    if (s.forwarded != s.injected) {
      report_.Fail("port " + std::to_string(p) + ": " +
                   std::to_string(s.injected - s.forwarded) +
                   " packets not forwarded (churn or AQM changed a verdict)");
    }
    if (s.delivered != s.forwarded || st.delivered != s.forwarded) {
      report_.Fail("port " + std::to_string(p) +
                   ": delivered != forwarded after the final drain");
    }
    if (st.retired.load() != st.pushed ||
        s.injected != st.pushed * kBatch) {
      report_.Fail("port " + std::to_string(p) +
                   ": ring conservation (pushed == retired == injected)");
    }
    injected += s.injected;
    forwarded += s.forwarded;
    delivered += std::min(s.delivered, st.delivered);
    pushed += st.pushed * kBatch;
  }
  // Operations: every injected packet (failed unless forwarded and
  // delivered), every latency-trial packet the ring dropped, and every
  // commit. Ring drops in search trials are the search's signal, not
  // failures.
  report_.Count(injected, injected - std::min(forwarded, delivered));
  report_.Count(latency_trial_drops_, latency_trial_drops_);
  report_.Count(commits_, commit_failures_);
  report_.Note("packets_injected", std::to_string(pushed));
}

void ForwardingBench::WriteSpans() const {
  if (options_.trace_out.empty()) return;
  std::ofstream out(options_.trace_out);
  out << "span,request_id,port,start_ns,end_ns\n";
  for (const auto* list : {&spans_, &commit_spans_}) {
    for (const Span& s : *list) {
      out << s.name << "," << s.id << "," << s.port << "," << s.start_ns
          << "," << s.end_ns << "\n";
    }
  }
}

void ForwardingBench::Run() {
  const bool traced = options_.trace;
  report_.Note("ports", std::to_string(spec_.ports));
  report_.Note("fixed_rate_mpps", std::to_string(spec_.fixed_rate_mpps));
  report_.Note("p99_limit_us", std::to_string(kP99LimitUs));

  std::vector<double> setup_s;
  for (std::size_t i = 0; i < (traced ? 1 : kSetups); ++i) {
    const std::uint64_t t0 = NowNs();
    Setup(traced);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  for (std::size_t p = 0; p < spec_.ports; ++p) {
    PortState* st = ports_[p].get();
    group_->runtime(p).AttachRing(
        rings_[p].get(),
        [st](const arch::PortRuntime::RingBatchInfo& info) {
          OnBatchRetired(*st, info);
        });
  }
  std::thread controller;
  std::vector<double> zero_loss, p50, p99;
  int trials = 0, invalid = 0;
  try {
    // Verification trial, before any churn: the reference pass replays
    // exactly these batches from the same fresh switch state.
    const TrialResult verify =
        RunTrial(spec_.fixed_rate_mpps, 0.0, false, kLatencyStallNs,
                 kVerifyBatches);
    VerifyAgainstReference();
    if (spec_.full_chain) controller = std::thread([this] { Controller(); });
    if (traced) {
      const double pkts = static_cast<double>(verify.pushed);
      report_.Set("port.thread_tax",
                  verify.service_ns / pkts / reference_ns_per_pkt_, "ratio",
                  verify.latency_us.size());

      // Untraced then traced trial at the fixed rate; the per-layer
      // split comes from the traced one.
      const double trial_s = std::max(kLatencyTrialS, options_.seconds / 4);
      const TrialResult plain = RunCleanTrial(spec_.fixed_rate_mpps, trial_s,
                                              false, kLatencyStallNs);
      const TrialResult t = RunCleanTrial(spec_.fixed_rate_mpps, trial_s,
                                          true, kLatencyStallNs);
      const double n = static_cast<double>(t.pushed);
      double stage_total_ns = 0.0;
      for (std::size_t s = 0; s < t.stage_names.size(); ++s) {
        stage_total_ns += t.stage_ns[s];
        const std::uint64_t pk = t.stage_packets[s];
        report_.Set("stage." + t.stage_names[s] + ".ns_per_pkt",
                    pk == 0 ? 0.0 : t.stage_ns[s] / static_cast<double>(pk),
                    "ns", pk);
      }
      const std::size_t nb = t.latency_us.size();
      report_.Set("port.service_ns_per_pkt", t.service_ns / n, "ns", nb);
      report_.Set("port.drain_ns_per_pkt", t.drain_ns / n, "ns", nb);
      report_.Set("port.busy_frac", t.max_port_busy_ns / (t.wall_s * 1e9),
                  "ratio", nb);
      report_.Set("ring.wait_p50_us", Quantile(t.ring_wait_us, 0.5), "us",
                  nb);
      report_.Set("ring.wait_p99_us", Quantile(t.ring_wait_us, 0.99), "us",
                  nb);
      report_.Set("ring.drop_frac",
                  static_cast<double>(t.dropped) /
                      static_cast<double>(t.offered),
                  "ratio", t.offered);
      report_.Set("alloc.per_pkt",
                  static_cast<double>(t.allocs) /
                      static_cast<double>(t.offered),
                  "count", t.offered);
      report_.Set("gen.lateness_p99_us", Quantile(t.lateness_us, 0.99), "us",
                  t.lateness_us.size());
      report_.Set("gen.busy_frac", t.producer_busy_ns / (t.wall_s * 1e9),
                  "ratio", t.lateness_us.size());
      report_.Set("unattributed_frac",
                  1.0 - (stage_total_ns + t.drain_ns) /
                            (t.service_ns + t.drain_ns),
                  "ratio", nb);
      report_.Set("trace.overhead_frac",
                  (t.busy_ns / n) /
                          (plain.busy_ns / static_cast<double>(plain.pushed)) -
                      1.0,
                  "ratio", nb);
      if (table_registry_) {
        for (const auto& g : table_registry_->Snapshot().gauges) {
          if (g.name == "tcam.firewall.prune_ratio") {
            report_.Set("tcam.prune_ratio", g.value, "ratio", 1);
          }
        }
      }
    } else {
      // Search trials and fixed-rate latency trials interleave over the
      // whole window, so both see the same machine conditions. Should the
      // platform disturb every latency trial of the window, the window
      // is extended once and, failing that, disturbed trials are used.
      const auto window_ns =
          static_cast<std::uint64_t>(options_.seconds * 1e9);
      const std::uint64_t deadline = NowNs() + window_ns;
      Staircase staircase(spec_.search_start_mpps);
      std::vector<double> disturbed_p50, disturbed_p99;
      for (int i = 1; NowNs() < deadline ||
                      (p50.empty() && NowNs() < deadline + window_ns);
           ++i) {
        const TrialResult t = RunCleanTrial(staircase.rate(), kSearchTrialS,
                                            false, kSearchStallNs);
        ++trials;
        if (t.producer_saturated) ++invalid;
        if (!t.disturbed) staircase.Record(t.pass);
        if (i % kSearchTrialsPerLatencyTrial != 0) continue;
        const TrialResult lat = RunCleanTrial(
            spec_.fixed_rate_mpps, kLatencyTrialS, false, kLatencyStallNs);
        if (lat.disturbed) {
          disturbed_p50.push_back(Quantile(lat.latency_us, 0.5));
          disturbed_p99.push_back(Quantile(lat.latency_us, 0.99));
          continue;
        }
        latency_trial_drops_ += lat.dropped;
        p50.push_back(Quantile(lat.latency_us, 0.5));
        p99.push_back(Quantile(lat.latency_us, 0.99));
      }
      if (p50.empty()) {
        p50 = disturbed_p50;
        p99 = disturbed_p99;
      }
      zero_loss = staircase.estimates();
    }
  } catch (...) {
    stop_controller_.store(true);
    if (controller.joinable()) controller.join();
    for (std::size_t p = 0; p < spec_.ports; ++p) {
      group_->runtime(p).DetachRing();
    }
    throw;
  }
  stop_controller_.store(true);
  if (controller.joinable()) controller.join();
  for (std::size_t p = 0; p < spec_.ports; ++p) {
    group_->runtime(p).DetachRing();
  }
  group_->WaitIdle();
  FinalChecks();

  if (spec_.full_chain) {
    const TableCommitStats& fw = group_->tables().firewall.commit_stats();
    const TableCommitStats& rt = group_->tables().routes.commit_stats();
    const std::uint64_t commits = fw.commits + rt.commits;
    const std::uint64_t deltas = fw.delta_commits + rt.delta_commits;
    const double delta_frac =
        commits == 0 ? 0.0
                     : static_cast<double>(deltas) /
                           static_cast<double>(commits);
    const double rows_mean =
        deltas == 0 ? 0.0
                    : static_cast<double>(fw.delta_rows + rt.delta_rows) /
                          static_cast<double>(deltas);
    report_.Set("commit.delta_frac", delta_frac, "ratio", commits);
    report_.Set("commit.delta_rows_mean", rows_mean, "count", deltas);
    report_.Set("commit.p50_us", Quantile(commit_us_, 0.5), "us",
                commit_us_.size());
    report_.Set("commit.p99_us", Quantile(commit_us_, 0.99), "us",
                commit_us_.size());
  }
  report_.Set("traffic.synth_ns_per_pkt",
              synth_ns_ / static_cast<double>(synth_packets_), "ns",
              synth_packets_);

  if (!traced) {
    report_.Set("setup_s", Median(setup_s), "s", setup_s.size());
    report_.Set("peak_rss_mb", PeakRssMb(), "MB", 1);
    double log_sum = 0.0;
    for (double z : zero_loss) log_sum += std::log(z);
    const double zero_loss_mpps =
        zero_loss.empty()
            ? 0.0
            : std::exp(log_sum / static_cast<double>(zero_loss.size()));
    report_.Set("zero_loss_mpps", zero_loss_mpps, "Mpps", zero_loss.size());
    report_.Set("p50_latency_us", Median(p50), "us", p50.size());
    report_.Set("p99_latency_us", Median(p99), "us", p99.size());
    report_.Set("nj_per_pkt", reference_nj_per_pkt_, "nJ", 1);
    report_.Note("zero_loss_mpps reversal rates",
                 [&] {
                   std::string s;
                   for (double z : zero_loss) s += std::to_string(z) + " ";
                   return s;
                 }());
    report_.Note("search_trials", std::to_string(trials) + " (" +
                                      std::to_string(invalid) +
                                      " producer-saturated)");
    report_.Note("trials_rerun_after_platform_stall",
                 std::to_string(disturbed_trials_));
    if (spec_.full_chain) {
      report_.Set("commit_p50_us", Quantile(commit_us_, 0.5), "us",
                  commit_us_.size());
      report_.Set("commit_p99_us", Quantile(commit_us_, 0.99), "us",
                  commit_us_.size());
    }
  }
  WriteSpans();
}

}  // namespace

void RunForwarding(const Options& options, Report& report) {
  ForwardingBench bench(options, report);
  bench.Run();
}

}  // namespace perfbench
