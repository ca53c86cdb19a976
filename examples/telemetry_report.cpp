// Telemetry demo: the observability companion to the Fig. 5 switch.
//
// Drives the cognitive switch (digital TCAM firewall + LPM route, analog
// load balancer, traffic classifier and AQM admission) with a small
// traffic mix, then dumps everything the telemetry subsystem collected:
// the Prometheus text exposition of every metric, the JSON snapshot of
// the same values, and the flight recorder's last per-batch trace
// records — the one-call post-mortem a dump-on-signal handler would
// produce in a deployment.
#include <cstdio>
#include <iostream>
#include <vector>

#include "analognf/arch/stages.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/telemetry/export.hpp"

using namespace analognf;

namespace {

arch::SwitchConfig DemoConfig() {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.port_rate_bps = 1.0e9;
  c.service_classes = 2;
  c.enable_aqm = true;
  c.enable_load_balancer = true;
  c.enable_classifier = true;
  c.classifier_classes = {
      {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
      {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
  };
  // Keep the last 64 ingress batches for the post-mortem.
  c.telemetry.flight_recorder_capacity = 64;
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

}  // namespace

int main() {
  arch::CognitiveSwitch sw(DemoConfig());
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw.AddFirewallRule(arch::FirewallPattern{}, true, 1);

  // A few milliseconds of mixed traffic in 256-packet ingress batches.
  analognf::RandomStream rng(0x7e1e);
  std::vector<arch::Delivery> drained;
  double now_s = 0.0;
  for (int b = 0; b < 16; ++b) {
    std::vector<net::Packet> batch;
    batch.reserve(256);
    for (int i = 0; i < 256; ++i) {
      const auto flow = static_cast<std::uint32_t>(rng.NextIndex(128));
      const std::size_t payload = 40 + rng.NextIndex(1200);
      const auto dscp = static_cast<std::uint8_t>(rng.NextIndex(8) << 3);
      batch.push_back(MakeFlowPacket(flow, payload, dscp));
    }
    sw.InjectBatch(batch, now_s);
    now_s += 1.0e-3;
    drained.clear();
    sw.DrainInto(now_s, drained);
  }

  // Verdict counts live in SwitchStats only; the registry below holds
  // what no struct does (stage drops and timings, engine counters).
  const arch::SwitchStats& stats = sw.stats();
  std::printf(
      "injected %llu, forwarded %llu, parse errors %llu, firewall denies "
      "%llu, no route %llu, aqm drops %llu, queue full %llu, delivered "
      "%llu\n\n",
      static_cast<unsigned long long>(stats.injected),
      static_cast<unsigned long long>(stats.forwarded),
      static_cast<unsigned long long>(stats.parse_errors),
      static_cast<unsigned long long>(stats.firewall_denies),
      static_cast<unsigned long long>(stats.no_route),
      static_cast<unsigned long long>(stats.aqm_drops),
      static_cast<unsigned long long>(stats.queue_full),
      static_cast<unsigned long long>(stats.delivered));

  // The one-call post-mortem: Prometheus snapshot + last batch traces.
  std::printf("---- post-mortem dump (Prometheus + flight recorder) ----\n");
  sw.telemetry().WritePostMortem(std::cout, /*max_records=*/4);

  // The same snapshot as JSON — both documents carry identical values,
  // so either can feed a scrape endpoint or a log pipeline.
  std::printf("\n---- JSON snapshot ----\n");
  std::cout << telemetry::ToJson(sw.telemetry().metrics().Snapshot());
  return 0;
}
