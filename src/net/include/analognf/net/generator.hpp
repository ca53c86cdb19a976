// The traffic model: one arrival clock and one packet generator.
//
// Sec. 6 evaluates the analog AQM "by simulating the network queues with
// the Poisson distributed network flows". ArrivalProcess is the clock of
// every workload in the repo — Poisson (the paper's), two-state MMPP
// (the bursty traffic the 3rd-order derivative feature of Fig. 6 is
// meant to detect) and constant rate. PacketGenerator puts N synthetic
// flows on top of it for the queueing experiments; traffic::TrafficSource
// drives the same clock and size sampler for byte-accurate synthesis.
#pragma once

#include <cstdint>
#include <vector>

#include "analognf/common/rng.hpp"

namespace analognf::net {

// Simulation-plane packet descriptor. The byte-accurate Packet is used
// by the parser path; the queueing experiments only need metadata.
struct PacketMeta {
  std::uint64_t id = 0;  // unique and monotone within its stream
  double arrival_time_s = 0.0;
  std::uint32_t size_bytes = 0;
  std::uint64_t flow_hash = 0;
  // 0 = best effort .. 7 = highest; maps onto the IPv4 DSCP class bits.
  std::uint8_t priority = 0;
  // ECN-capable transport (IP ECT codepoint): an AQM may mark instead
  // of dropping.
  bool ecn_capable = false;
  // Set by the AQM when it signals congestion on this packet (CE).
  bool ecn_marked = false;
};

// Packet-size models.
enum class PacketSizes : std::uint8_t {
  kImix,   // 64 B (7/12), 576 B (4/12), 1500 B (1/12): one draw
  kFixed,  // every packet `fixed_bytes`: no draw
};

std::uint32_t SamplePacketSize(PacketSizes sizes, std::uint32_t fixed_bytes,
                               analognf::RandomStream& rng);

// When packets arrive, in model time.
struct ArrivalConfig {
  enum class Process : std::uint8_t {
    kPoisson,   // memoryless arrivals at rate_pps
    kMmpp,      // two-state Markov-modulated Poisson (calm / burst)
    kConstant,  // one arrival every 1 / rate_pps
  };
  Process process = Process::kPoisson;
  double rate_pps = 1000.0;  // kMmpp: the calm-state rate
  // kMmpp only: the burst state sends at rate_pps * burst_factor; dwell
  // times in each state are exponential with these means.
  double burst_factor = 8.0;
  double mean_calm_dwell_s = 0.5;
  double mean_burst_dwell_s = 0.05;

  void Validate() const;  // throws std::invalid_argument
};

// Stateful arrival clock. It owns no randomness: every draw comes from
// the stream the caller passes, so a caller can share one stream between
// the clock and its other draws or keep them apart.
class ArrivalProcess {
 public:
  // Validates `config`; kMmpp draws its first calm dwell from `rng`.
  ArrivalProcess(ArrivalConfig config, analognf::RandomStream& rng);

  // The next arrival time in seconds; non-decreasing.
  double Next(analognf::RandomStream& rng);

  // Changes the (calm-state) rate on the fly, e.g. the congestion phase
  // of Fig. 8. Throws unless finite and positive.
  void SetRate(double rate_pps);
  double rate_pps() const { return config_.rate_pps; }
  bool in_burst() const { return in_burst_; }

 private:
  ArrivalConfig config_;
  double now_s_ = 0.0;
  double state_ends_s_ = 0.0;
  bool in_burst_ = false;
};

// `flows` synthetic flows behind one arrival clock. Each packet draws,
// from one seeded stream, its arrival time, then its flow (uniform),
// then its size. Flow hash, priority and ECT are stable per flow.
class PacketGenerator {
 public:
  struct Config {
    ArrivalConfig arrivals{};
    std::uint32_t flows = 8;
    // Fraction of flows marked high priority (priority 7 vs 0).
    double high_priority_fraction = 0.25;
    // Fraction of flows that are ECN-capable transports.
    double ecn_capable_fraction = 0.0;
    PacketSizes sizes = PacketSizes::kFixed;
    std::uint32_t fixed_size_bytes = 1000;  // kFixed only

    void Validate() const;  // throws std::invalid_argument
  };

  PacketGenerator(Config config, std::uint64_t seed);

  // Next arrival; arrival_time_s values are non-decreasing.
  PacketMeta Next();

  void SetRate(double rate_pps) { clock_.SetRate(rate_pps); }
  double rate_pps() const { return clock_.rate_pps(); }
  bool in_burst() const { return clock_.in_burst(); }

 private:
  struct Flow {
    std::uint64_t hash = 0;
    std::uint8_t priority = 0;
    bool ect = false;
  };

  Config config_;
  analognf::RandomStream rng_;
  ArrivalProcess clock_;  // after rng_: construction may draw from it
  std::vector<Flow> flows_;
  std::uint64_t next_id_ = 0;
};

}  // namespace analognf::net
