// Analog traffic analysis: the "traffic analysis" cognitive function of
// Fig. 5 running end to end.
//
// Synthetic VoIP, bulk-transfer and bursty-video flows are generated,
// tracked online per flow (mean packet size, inter-arrival time,
// burstiness), and classified by a single pCAM table search per flow.
// The analog match degree doubles as the classification confidence.
#include <cstdio>
#include <map>
#include <vector>

#include "analognf/cognitive/classifier.hpp"
#include "analognf/net/generator.hpp"

using namespace analognf;

int main() {
  // --- Ground-truth traffic mix ----------------------------------------
  // One single-flow generator per source; the seed picks the flow hash.
  struct Source {
    const char* truth;
    net::PacketGenerator gen;
  };
  const auto single_flow = [](net::ArrivalConfig arrivals,
                              std::uint32_t bytes) {
    net::PacketGenerator::Config c;
    c.arrivals = arrivals;
    c.flows = 1;
    c.fixed_size_bytes = bytes;
    return c;
  };
  std::vector<Source> sources;
  // Four VoIP-like constant-rate flows: 160-byte frames every 20 ms.
  net::ArrivalConfig voip;
  voip.process = net::ArrivalConfig::Process::kConstant;
  voip.rate_pps = 50.0;
  for (std::uint64_t i = 0; i < 4; ++i) {
    sources.push_back({"voip", net::PacketGenerator(single_flow(voip, 160),
                                                    /*seed=*/0x100 + i)});
  }
  // Three bulk flows: 1500-byte segments, steady 800 pps.
  net::ArrivalConfig bulk;
  bulk.process = net::ArrivalConfig::Process::kConstant;
  bulk.rate_pps = 800.0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    sources.push_back({"bulk", net::PacketGenerator(single_flow(bulk, 1500),
                                                    /*seed=*/0x200 + i)});
  }
  // Three bursty video flows (MMPP): 30 pps calm, 900 pps bursts.
  net::ArrivalConfig video;
  video.process = net::ArrivalConfig::Process::kMmpp;
  video.rate_pps = 30.0;
  video.burst_factor = 30.0;
  video.mean_calm_dwell_s = 0.2;
  video.mean_burst_dwell_s = 0.05;
  for (std::uint64_t i = 0; i < 3; ++i) {
    sources.push_back({"video", net::PacketGenerator(single_flow(video, 1200),
                                                     /*seed=*/900 + i)});
  }

  // --- The cognitive function ------------------------------------------
  cognitive::FlowTracker tracker;
  core::HardwarePcamConfig hw;
  hw.state_levels = 1024;
  cognitive::AnalogTrafficClassifier classifier(hw);
  classifier.AddClass({"voip", 40, 240, 0.008, 0.040, 0.0, 0.6});
  classifier.AddClass({"bulk", 1000, 1600, 0.00005, 0.004, 0.0, 1.4});
  classifier.AddClass({"video", 700, 1600, 0.0005, 0.040, 1.2, 4.0});

  // Observe ~30 seconds of traffic from every source.
  std::map<std::uint64_t, const char*> truth;
  for (Source& src : sources) {
    for (int i = 0; i < 1500; ++i) {
      const net::PacketMeta p = src.gen.Next();
      if (p.arrival_time_s > 30.0) break;
      truth[p.flow_hash] = src.truth;
      tracker.Observe(p);
    }
  }

  // Classify every tracked flow.
  std::printf("%-10s %-10s %-10s %-12s %-12s %-10s\n", "flow", "truth",
              "class", "size (B)", "iat (ms)", "confidence");
  int correct = 0;
  int total = 0;
  for (const auto& [flow, label] : truth) {
    const cognitive::FlowFeatures f = tracker.Features(flow);
    const auto result = classifier.Classify(f, 0.05);
    ++total;
    const bool ok = result.has_value() && result->label == label;
    if (ok) ++correct;
    std::printf("%-10llx %-10s %-10s %-12.0f %-12.2f %-10s\n",
                static_cast<unsigned long long>(flow), label,
                result.has_value() ? result->label.c_str() : "(none)",
                f.mean_packet_size_bytes, f.mean_interarrival_s * 1000.0,
                result.has_value()
                    ? std::to_string(result->confidence).substr(0, 5).c_str()
                    : "-");
  }
  std::printf("\naccuracy: %d/%d flows\n", correct, total);
  std::printf("analog search energy for %d classifications: %.3g J\n",
              total, classifier.ConsumedEnergyJ());
  return correct == total ? 0 : 1;
}
