#include "analognf/arch/stage.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

namespace analognf::arch {

namespace {

// Per-batch Process() wall time: 16 ns .. ~4.3 s across 28 doublings.
telemetry::HistogramSpec NsSpec() {
  telemetry::HistogramSpec spec;
  spec.first_bound = 16.0;
  spec.growth = 2.0;
  spec.buckets = 28;
  return spec;
}

// Per-batch stage energy in nJ. Analog search energies start around
// femtojoules (1e-6 nJ), so the first bound sits far below a nanojoule
// and quadruples up to ~2.8e5 nJ.
telemetry::HistogramSpec NjSpec() {
  telemetry::HistogramSpec spec;
  spec.first_bound = 1e-9;
  spec.growth = 4.0;
  spec.buckets = 24;
  return spec;
}

std::size_t CountForwarded(const net::PacketBatch& batch) {
  std::size_t n = 0;
  for (net::Verdict v : batch.verdicts) {
    if (v == net::Verdict::kForwarded) ++n;
  }
  return n;
}

}  // namespace

MatchActionStage& StageGraph::Add(std::unique_ptr<MatchActionStage> stage) {
  return Insert(stages_.size(), std::move(stage));
}

MatchActionStage& StageGraph::Insert(std::size_t index,
                                     std::unique_ptr<MatchActionStage> stage) {
  if (stage == nullptr) {
    throw std::invalid_argument("StageGraph: null stage");
  }
  if (index > stages_.size()) {
    throw std::invalid_argument("StageGraph: insert index out of range");
  }
  Bind(*stage);
  MatchActionStage& ref = *stage;
  stages_.insert(stages_.begin() + static_cast<std::ptrdiff_t>(index),
                 std::move(stage));
  return ref;
}

void StageGraph::Bind(MatchActionStage& stage) {
  for (const auto& existing : stages_) {
    if (existing->name() == stage.name()) {
      throw std::invalid_argument("StageGraph: duplicate stage name '" +
                                  stage.name() + "'");
    }
  }
  stage.metrics_.energy = stage_ledger_->Meter("stage." + stage.name());
  if (registry_ != nullptr) BindStageTelemetry(stage);
}

void StageGraph::BindTelemetry(telemetry::MetricsRegistry& registry) {
  registry_ = &registry;
  for (const auto& stage : stages_) BindStageTelemetry(*stage);
}

void StageGraph::BindStageTelemetry(MatchActionStage& stage) {
  const std::string prefix = "stage." + stage.name();
  StageTelemetry& t = stage.telemetry_;
  t.drops = registry_->GetCounter(prefix + ".drops");
  t.ns = registry_->GetHistogram(prefix + ".ns", NsSpec());
  t.nj = registry_->GetHistogram(prefix + ".nj", NjSpec());
}

void StageGraph::Run(net::PacketBatch& batch) {
  using clock = std::chrono::steady_clock;
  // The verdict-lane scans and per-stage timing capture only run once a
  // registry is bound, so an un-instrumented graph costs exactly what it
  // did before telemetry existed.
  const bool instrumented = registry_ != nullptr && registry_->enabled();
  if (instrumented) last_stage_ns_.assign(stages_.size(), 0.0);
  std::size_t in_flight =
      instrumented ? CountForwarded(batch) : 0;
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    MatchActionStage& stage = *stages_[si];
    const double energy_before_j =
        instrumented ? stage.metrics_.energy->energy_j : 0.0;
    const auto start = clock::now();
    stage.Process(batch);
    const auto stop = clock::now();
    // Observability only: nothing in the data plane may read this back
    // (the determinism convention), so the timer does not perturb results.
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    stage.metrics_.process_ns += ns;
    stage.metrics_.packets += batch.size();
    ++stage.metrics_.invocations;
    if (instrumented) {
      last_stage_ns_[si] = ns;
      stage.telemetry_.ns.Observe(ns);
      stage.telemetry_.nj.Observe(
          (stage.metrics_.energy->energy_j - energy_before_j) * 1e9);
      const std::size_t still_forwarded = CountForwarded(batch);
      stage.telemetry_.drops.Inc(in_flight - still_forwarded);
      in_flight = still_forwarded;
    }
  }
}

}  // namespace analognf::arch
