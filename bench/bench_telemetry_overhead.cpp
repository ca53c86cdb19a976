// Telemetry overhead on the batched data plane: InjectBatch throughput
// with the full instrumentation (metrics + flight recorder) enabled
// versus the TelemetryConfig off-switch, over the complete Fig. 5 chain.
//
// The telemetry subsystem's acceptance bar is <= 3% InjectBatch cost;
// this binary self-times both configurations and writes the per-batch
// measurements (and the overhead percentage) to BENCH_telemetry.json
// (machine-readable, consumed by CI).
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "analognf/arch/stages.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/net/packet.hpp"

namespace {

using namespace analognf;

arch::SwitchConfig PipelineConfig(bool telemetry_enabled) {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.port_rate_bps = 100.0e9;  // fast egress: admission, not drainage
  c.service_classes = 2;
  c.enable_aqm = true;
  c.enable_load_balancer = true;
  c.enable_classifier = true;
  c.classifier_classes = {
      {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
      {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
  };
  c.telemetry.enabled = telemetry_enabled;
  return c;
}

net::Packet MakeFlowPacket(std::uint32_t flow, std::size_t payload,
                           std::uint8_t dscp) {
  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  net::Ipv4Header ip;
  ip.src_ip = 0x01010000u + flow;
  ip.dst_ip = 0x0a000000u + (flow & 0xff);
  ip.protocol = net::kIpProtoUdp;
  ip.dscp = dscp;
  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(1024 + (flow & 0x3ff));
  udp.dst_port = 53;
  return net::PacketBuilder()
      .Ethernet(eth)
      .Ipv4(ip)
      .Udp(udp)
      .Payload(payload)
      .Build();
}

std::vector<net::Packet> MakeTraffic(std::size_t count) {
  analognf::RandomStream rng(0x9199);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto flow = static_cast<std::uint32_t>(rng.NextIndex(256));
    const std::size_t payload = 40 + rng.NextIndex(1200);
    const auto dscp = static_cast<std::uint8_t>(rng.NextIndex(8) << 3);
    packets.push_back(MakeFlowPacket(flow, payload, dscp));
  }
  return packets;
}

std::unique_ptr<arch::CognitiveSwitch> MakeSwitch(bool telemetry_enabled) {
  auto sw = std::make_unique<arch::CognitiveSwitch>(
      PipelineConfig(telemetry_enabled));
  sw->AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw->AddFirewallRule(arch::FirewallPattern{}, true, 1);
  return sw;
}

void Report() {
  bench::Banner("telemetry overhead on the batched data plane");
  bench::Line("InjectBatch over the full Fig. 5 chain, instrumentation "
              "on vs the TelemetryConfig off-switch (budget: <= 3%)");
}

// --- google-benchmark timings -------------------------------------------

// Args = {batch size, telemetry enabled}.
void BM_InjectBatchTelemetry(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto sw = MakeSwitch(state.range(1) != 0);
  const auto packets = MakeTraffic(batch);
  std::vector<arch::Delivery> drained;
  double now_s = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw->InjectBatch(packets, now_s));
    now_s += 1.0e-3;
    drained.clear();
    sw->DrainInto(now_s, drained);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_InjectBatchTelemetry)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

// --- machine-readable measurements (BENCH_telemetry.json) ---------------

double TimeInjectNsPerPacket(bool telemetry_enabled, std::size_t batch,
                             std::size_t total_packets) {
  auto sw = MakeSwitch(telemetry_enabled);
  const auto packets = MakeTraffic(batch);
  std::vector<arch::Delivery> drained;
  double now_s = 0.0;
  sw->InjectBatch(packets, now_s);  // warm engines and snapshots
  const std::size_t reps = total_packets / batch;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) {
    now_s += 1.0e-3;
    benchmark::DoNotOptimize(sw->InjectBatch(packets, now_s));
    drained.clear();
    sw->DrainInto(now_s, drained);
  }
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / static_cast<double>(reps * batch);
}

void EmitTelemetryJson() {
  const std::size_t batches[] = {256, 1024};
  constexpr std::size_t kPacketsPerConfig = 262144;

  bench::JsonArray results{"results", {}};
  double worst_overhead_pct = 0.0;
  for (const std::size_t batch : batches) {
    // Pair each round's off/on timings (back-to-back, so slow frequency
    // drift hits both sides of a ratio equally) and take the median
    // ratio across rounds: the median shrugs off the odd preempted
    // round that min-of-independent-minima is vulnerable to.
    constexpr int kRounds = 9;
    double off_ns = 0.0;
    double on_ns = 0.0;
    std::vector<double> ratios;
    ratios.reserve(kRounds);
    for (int round = 0; round < kRounds; ++round) {
      const double off =
          TimeInjectNsPerPacket(false, batch, kPacketsPerConfig);
      const double on = TimeInjectNsPerPacket(true, batch, kPacketsPerConfig);
      ratios.push_back(on / off);
      if (round == 0 || off < off_ns) off_ns = off;
      if (round == 0 || on < on_ns) on_ns = on;
    }
    std::sort(ratios.begin(), ratios.end());
    const double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
    if (overhead_pct > worst_overhead_pct) worst_overhead_pct = overhead_pct;
    results.items.push_back(
        {bench::JsonInt("batch", batch),
         bench::JsonNum("ns_per_packet_off", off_ns),
         bench::JsonNum("ns_per_packet_on", on_ns),
         bench::JsonNum("overhead_pct", overhead_pct)});
    bench::Line("batch " + std::to_string(batch) + ": " +
                std::to_string(kRounds) + " paired off/on rounds of " +
                std::to_string(kPacketsPerConfig) + " packets");
    bench::TimingLine("batch " + std::to_string(batch) + ": off " +
                      std::to_string(off_ns) + " ns/pkt, on " +
                      std::to_string(on_ns) + " ns/pkt, overhead " +
                      std::to_string(overhead_pct) + "%");
  }
  bench::TimingLine("worst overhead " + std::to_string(worst_overhead_pct) +
                    "%");

  bench::WriteBenchJson(
      "BENCH_telemetry.json",
      {bench::JsonStr("bench", "telemetry_overhead"),
       bench::JsonNum("budget_pct", 3.0),
       bench::JsonNum("worst_overhead_pct", worst_overhead_pct)},
      {results}, std::to_string(results.items.size()) + " batch sizes");
}

void ReportAndEmitJson() {
  Report();
  EmitTelemetryJson();
}

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
