// The unified match-action stage contract of the Fig. 5 stage graph.
//
// Digital MATs (TCAM firewall, LPM routing), analog MATs (pCAM AQM
// admission, load balancing, traffic analysis) and the cognitive traffic
// manager all implement one interface: Process(PacketBatch&) over a
// whole ingress batch. Stages communicate only through the batch's SoA
// lanes, which is what makes them interchangeable slots in the pipeline
// — the graph is an ordered chain, and inserting a custom stage is one
// Add() call.
//
// Attribution contract:
//  * every stage owns a meter in the switch's *stage ledger*
//    ("stage.<name>") and adds the energy of the work it performs to it
//    inside Process(); across stages these meters sum to the main
//    ledger's total (the invariant test asserts it);
//  * the canonical per-category ledger (tcam.search, pcam.search,
//    digital.*) is committed by the traffic-manager stage in strict
//    packet order, so totals stay bit-identical to a sequential
//    per-packet pipeline regardless of how stages batch their work;
//  * Process() wall-clock time is accumulated by the graph runner.
//    Latency metrics are observability-only: no data-plane outcome may
//    depend on them (the determinism convention of ARCHITECTURE.md).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analognf/energy/ledger.hpp"
#include "analognf/net/packet_batch.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::arch {

// Per-stage observability counters.
struct StageMetrics {
  // The stage's meter in the owning switch's stage ledger; stages add
  // the energy of their own work here (non-negative contributions only).
  energy::CategoryTotal* energy = nullptr;
  // Total wall-clock time spent inside Process() (graph-maintained).
  double process_ns = 0.0;
  // Packets offered to Process() (batch sizes summed) and call count.
  std::uint64_t packets = 0;
  std::uint64_t invocations = 0;
};

// Registry handles behind the `stage.<name>.*` metric names, maintained
// by the graph runner around each Process() call. All null until the
// graph is bound to a registry. Packet and call counts are not mirrored
// here: StageMetrics holds them.
struct StageTelemetry {
  telemetry::CounterHandle drops;        // verdicts settled by this stage
  telemetry::HistogramHandle ns;         // per-batch Process() wall time
  telemetry::HistogramHandle nj;         // per-batch stage-meter energy
};

// One slot of the pipeline. Implementations read and write PacketBatch
// lanes; a stage must skip packets whose verdict is already settled
// (anything other than Verdict::kForwarded).
class MatchActionStage {
 public:
  explicit MatchActionStage(std::string name) : name_(std::move(name)) {}
  virtual ~MatchActionStage() = default;
  MatchActionStage(const MatchActionStage&) = delete;
  MatchActionStage& operator=(const MatchActionStage&) = delete;

  const std::string& name() const { return name_; }

  // Runs the stage over the whole batch.
  virtual void Process(net::PacketBatch& batch) = 0;

  const StageMetrics& metrics() const { return metrics_; }

 protected:
  // Stage implementations accumulate their energy through this.
  energy::CategoryTotal& stage_meter() { return *metrics_.energy; }

 private:
  friend class StageGraph;
  std::string name_;
  StageMetrics metrics_;
  StageTelemetry telemetry_;
};

// An ordered chain of stages sharing one stage ledger. Run() walks the
// chain over a batch and attributes per-stage wall-clock time.
class StageGraph {
 public:
  explicit StageGraph(energy::EnergyLedger* stage_ledger)
      : stage_ledger_(stage_ledger) {}

  // Appends a stage, binding its meter ("stage.<name>") in the stage
  // ledger. Returns the stage for convenience.
  MatchActionStage& Add(std::unique_ptr<MatchActionStage> stage);

  // Inserts a stage at `index` (0 = first). Used by the switch to slot
  // custom stages in front of the traffic manager.
  MatchActionStage& Insert(std::size_t index,
                           std::unique_ptr<MatchActionStage> stage);

  // Runs every stage over the batch, in order.
  void Run(net::PacketBatch& batch);

  std::size_t size() const { return stages_.size(); }
  const std::vector<std::unique_ptr<MatchActionStage>>& stages() const {
    return stages_;
  }

  // Binds every current and future stage to `stage.<name>.*` metrics in
  // `registry` (drops counter, ns/nJ histograms).
  // Run() additionally records per-stage wall time for the flight
  // recorder once bound. Telemetry is observability-only: it never
  // changes what a stage does to the batch.
  void BindTelemetry(telemetry::MetricsRegistry& registry);
  bool telemetry_bound() const { return registry_ != nullptr; }

  // Per-stage Process() nanoseconds of the most recent Run(); empty
  // until the graph is bound to a registry.
  const std::vector<double>& last_stage_ns() const { return last_stage_ns_; }

 private:
  void Bind(MatchActionStage& stage);
  void BindStageTelemetry(MatchActionStage& stage);

  energy::EnergyLedger* stage_ledger_;
  telemetry::MetricsRegistry* registry_ = nullptr;
  std::vector<std::unique_ptr<MatchActionStage>> stages_;
  std::vector<double> last_stage_ns_;
};

}  // namespace analognf::arch
