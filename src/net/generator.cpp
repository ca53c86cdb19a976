#include "analognf/net/generator.hpp"

#include <cmath>
#include <stdexcept>

namespace analognf::net {
namespace {

bool FinitePositive(double x) { return std::isfinite(x) && x > 0.0; }

bool InUnitInterval(double x) { return x >= 0.0 && x <= 1.0; }  // false on NaN

}  // namespace

std::uint32_t SamplePacketSize(PacketSizes sizes, std::uint32_t fixed_bytes,
                               analognf::RandomStream& rng) {
  if (sizes == PacketSizes::kFixed) return fixed_bytes;
  const std::uint64_t bucket = rng.NextIndex(12);
  if (bucket < 7) return 64;
  if (bucket < 11) return 576;
  return 1500;
}

// ------------------------------------------------------------- arrivals

void ArrivalConfig::Validate() const {
  if (!FinitePositive(rate_pps)) {
    throw std::invalid_argument("ArrivalConfig: rate_pps not finite and > 0");
  }
  if (!FinitePositive(burst_factor) ||
      !FinitePositive(rate_pps * burst_factor)) {
    throw std::invalid_argument("ArrivalConfig: bad burst_factor");
  }
  if (!FinitePositive(mean_calm_dwell_s) ||
      !FinitePositive(mean_burst_dwell_s)) {
    throw std::invalid_argument(
        "ArrivalConfig: dwell times must be finite and > 0");
  }
}

ArrivalProcess::ArrivalProcess(ArrivalConfig config,
                               analognf::RandomStream& rng)
    : config_(config) {
  config_.Validate();
  if (config_.process == ArrivalConfig::Process::kMmpp) {
    state_ends_s_ = rng.NextExponential(1.0 / config_.mean_calm_dwell_s);
  }
}

double ArrivalProcess::Next(analognf::RandomStream& rng) {
  switch (config_.process) {
    case ArrivalConfig::Process::kPoisson:
      now_s_ += rng.NextExponential(config_.rate_pps);
      return now_s_;
    case ArrivalConfig::Process::kConstant:
      now_s_ += 1.0 / config_.rate_pps;
      return now_s_;
    case ArrivalConfig::Process::kMmpp:
      break;
  }
  for (;;) {
    const double rate = in_burst_ ? config_.rate_pps * config_.burst_factor
                                  : config_.rate_pps;
    const double candidate = now_s_ + rng.NextExponential(rate);
    if (candidate <= state_ends_s_) {
      now_s_ = candidate;
      return now_s_;
    }
    // State transition before the candidate arrival: discard it (exact
    // by memorylessness) and switch state.
    now_s_ = state_ends_s_;
    in_burst_ = !in_burst_;
    const double dwell =
        in_burst_ ? config_.mean_burst_dwell_s : config_.mean_calm_dwell_s;
    state_ends_s_ = now_s_ + rng.NextExponential(1.0 / dwell);
  }
}

void ArrivalProcess::SetRate(double rate_pps) {
  ArrivalConfig next = config_;
  next.rate_pps = rate_pps;
  next.Validate();
  config_ = next;
}

// ------------------------------------------------------------ generator

void PacketGenerator::Config::Validate() const {
  arrivals.Validate();
  if (flows == 0) {
    throw std::invalid_argument("PacketGenerator: flows == 0");
  }
  if (!InUnitInterval(high_priority_fraction) ||
      !InUnitInterval(ecn_capable_fraction)) {
    throw std::invalid_argument("PacketGenerator: fraction outside [0, 1]");
  }
  if (sizes == PacketSizes::kFixed && fixed_size_bytes == 0) {
    throw std::invalid_argument("PacketGenerator: zero packet size");
  }
}

PacketGenerator::PacketGenerator(Config config, std::uint64_t seed)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      rng_(seed),
      clock_(config_.arrivals, rng_) {
  const auto flows = static_cast<double>(config_.flows);
  const auto high_count = static_cast<std::uint32_t>(
      config_.high_priority_fraction * flows + 0.5);
  const auto ect_count =
      static_cast<std::uint32_t>(config_.ecn_capable_fraction * flows + 0.5);
  flows_.reserve(config_.flows);
  for (std::uint32_t i = 0; i < config_.flows; ++i) {
    Flow flow;
    flow.hash = analognf::SplitMix64(seed ^ (0x9e37ULL << 32) ^ i).Next();
    flow.priority = i < high_count ? std::uint8_t{7} : std::uint8_t{0};
    // ECT flows are counted from the tail so the two traits cross-cut.
    flow.ect = config_.flows - 1 - i < ect_count;
    flows_.push_back(flow);
  }
}

PacketMeta PacketGenerator::Next() {
  PacketMeta p;
  p.arrival_time_s = clock_.Next(rng_);
  const Flow& flow = flows_[rng_.NextIndex(config_.flows)];
  p.id = next_id_++;
  p.size_bytes =
      SamplePacketSize(config_.sizes, config_.fixed_size_bytes, rng_);
  p.flow_hash = flow.hash;
  p.priority = flow.priority;
  p.ecn_capable = flow.ect;
  return p;
}

}  // namespace analognf::net
