// The AQM shoot-out grid (sim::GridSpec::Default(), 180 cells, with the
// benchmark seed), run as part of full-chain-churn's traced run. It is
// the only code path that exercises the sim layer and the digital AQM
// policies, so it supplies their per-layer metrics. The grid's quality
// outputs are deterministic, so its two repeats must agree bit for bit.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analognf/sim/experiment_grid.hpp"
#include "common.hpp"

namespace perfbench {
namespace {

using namespace analognf;

sim::GridSpec SpecFor(std::uint64_t seed) {
  sim::GridSpec spec = sim::GridSpec::Default();
  spec.seed = seed;
  return spec;
}

// FNV-1a over every deterministic field of every cell.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t DigestOf(const sim::GridReport& report) {
  Digest d;
  for (const sim::GridCellResult& c : report.cells) {
    d.Add(static_cast<int>(c.policy));
    d.Add(static_cast<int>(c.simulator));
    d.Add(c.base_rtt_s);
    d.Add(c.ecn_fraction);
    d.Add(c.adherence);
    d.Add(c.mean_sojourn_s);
    d.Add(c.p50_sojourn_s);
    d.Add(c.p99_sojourn_s);
    d.Add(c.drop_rate);
    d.Add(c.mark_rate);
    d.Add(c.fairness);
    d.Add(c.utilization);
    d.Add(c.offered_packets);
    d.Add(c.delivered_packets);
    d.Add(c.dropped_packets);
    d.Add(c.marked_packets);
    d.Add(c.decisions);
    d.Add(c.energy_nj_per_decision);
  }
  return d.value();
}

// Packets the cell's bottleneck buffer can hold (fixed-size segments;
// GridSpec: buffer_bdp_multiple BDPs of the cell's RTT, 8-segment floor).
std::uint64_t BufferPackets(const sim::GridSpec& spec, double rtt_s) {
  const double bdp_bytes = spec.link_rate_bps * rtt_s / 8.0;
  const double bytes = std::max(spec.buffer_bdp_multiple * bdp_bytes,
                                8.0 * static_cast<double>(spec.segment_bytes));
  return static_cast<std::uint64_t>(bytes) / spec.segment_bytes;
}

double MeanEnergy(const sim::GridReport& report, sim::AqmPolicyKind kind) {
  double total = 0.0;
  for (sim::GridSimulator simulator :
       {sim::GridSimulator::kOpenLoop, sim::GridSimulator::kClosedLoop}) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const sim::GridCellResult& cell : report.cells) {
      if (cell.policy == kind && cell.simulator == simulator) {
        sum += cell.energy_nj_per_decision;
        ++n;
      }
    }
    total += n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
  return total / 2.0;
}

struct GridRun {
  sim::GridReport report;
  double wall_ns = 0.0;
  std::vector<std::uint64_t> cell_start_ns, cell_end_ns;  // sweep order

  double CellNs(std::size_t i) const {
    return static_cast<double>(cell_end_ns[i] - cell_start_ns[i]);
  }
};

GridRun RunOnce(const sim::GridSpec& spec) {
  GridRun run;
  sim::ExperimentGrid grid(spec);
  std::uint64_t last = 0;
  grid.SetCellCallback([&](const sim::GridCellResult&) {
    const std::uint64_t now = NowNs();
    run.cell_start_ns.push_back(last);
    run.cell_end_ns.push_back(now);
    last = NowNs();
  });
  const std::uint64_t t0 = NowNs();
  last = t0;
  run.report = grid.Run();
  run.wall_ns = static_cast<double>(NowNs() - t0);
  return run;
}

// Every cell conserves packets: offered == delivered + dropped +
// residual, with the residual at most what the buffer holds.
void CheckConservation(const sim::GridSpec& spec, const GridRun& run,
                       Report& report, std::uint64_t& attempted,
                       std::uint64_t& failed) {
  for (const sim::GridCellResult& c : run.report.cells) {
    ++attempted;
    const std::uint64_t out = c.delivered_packets + c.dropped_packets;
    const bool ok = c.offered_packets > 0 && out <= c.offered_packets &&
                    c.offered_packets - out <=
                        BufferPackets(spec, c.base_rtt_s) + 1;
    if (!ok) {
      ++failed;
      report.Fail(std::string("grid cell ") + sim::ToString(c.policy) + "/" +
                  sim::ToString(c.simulator) + " rtt " +
                  std::to_string(c.base_rtt_s) + " load " + c.load.label +
                  " does not conserve packets");
    }
  }
}

}  // namespace

void MeasureGridLayers(const Options& options, Report& report) {
  const sim::GridSpec spec = SpecFor(options.seed);
  // Two identical repeats: the first warms up and checks determinism, the
  // per-layer split comes from the second.
  const GridRun first = RunOnce(spec);
  const GridRun traced = RunOnce(spec);

  std::uint64_t attempted = 0, failed = 0;
  for (const GridRun* run : {&first, &traced}) {
    CheckConservation(spec, *run, report, attempted, failed);
  }
  report.Count(attempted, failed);
  const std::uint64_t digest = DigestOf(first.report);
  if (DigestOf(traced.report) != digest) {
    report.Fail("grid results differ between repeats with the same seed");
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  report.Note("grid_digest", hex);

  const std::size_t n = traced.report.cells.size();
  double open_ns = 0.0, closed_ns = 0.0, open_pkts = 0.0, closed_pkts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const sim::GridCellResult& c = traced.report.cells[i];
    if (c.simulator == sim::GridSimulator::kOpenLoop) {
      open_ns += traced.CellNs(i);
      open_pkts += static_cast<double>(c.offered_packets);
    } else {
      closed_ns += traced.CellNs(i);
      closed_pkts += static_cast<double>(c.offered_packets);
    }
  }
  report.Set("sim.open.ns_per_pkt", open_ns / open_pkts, "ns", n / 2);
  report.Set("sim.closed.ns_per_pkt", closed_ns / closed_pkts, "ns", n / 2);
  for (sim::AqmPolicyKind kind : spec.policies) {
    double ns = 0.0;
    std::size_t cells = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (traced.report.cells[i].policy == kind) {
        ns += traced.CellNs(i);
        ++cells;
      }
    }
    const std::string name = sim::ToString(kind);
    report.Set("sim." + name + ".cell_ms",
               ns / 1e6 / static_cast<double>(cells), "ms", cells);
    report.Set("aqm." + name + ".nj_per_decision",
               MeanEnergy(traced.report, kind), "nJ", cells);
  }
  const double margin_open =
      traced.report.AdherenceMargin(sim::GridSimulator::kOpenLoop, "1.4x");
  const double margin_closed =
      traced.report.AdherenceMargin(sim::GridSimulator::kClosedLoop, "1.4x");
  report.Set("aqm.margin_open", margin_open, "ratio", n / 2);
  report.Set("aqm.margin_closed", margin_closed, "ratio", n / 2);
  // The same figures under the shoot-out's names.
  report.Set("aqm_margin_open", margin_open, "ratio", 1);
  report.Set("aqm_margin_closed", margin_closed, "ratio", 1);
  report.Set("aqm_nj_per_decision",
             MeanEnergy(traced.report, sim::AqmPolicyKind::kAnalog), "nJ", 1);
  report.Set("grid_wall_s", traced.wall_ns / 1e9, "s", 1);

  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out, std::ios::app);
    for (std::size_t i = 0; i < n; ++i) {
      out << "cell," << i << ",0," << traced.cell_start_ns[i] << ","
          << traced.cell_end_ns[i] << "\n";
    }
  }
}

}  // namespace perfbench
