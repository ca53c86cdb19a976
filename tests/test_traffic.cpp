// Tests for the src/traffic ingress subsystem: the SPSC ring, the Zipf
// sampler, the storage-free flow population, byte-accurate synthesis
// (differential against net::Parser), arrival processes, traffic
// sources with trace record/replay, and the ring-fed PortRuntime mode.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/common/spsc_ring.hpp"
#include "analognf/net/parser.hpp"
#include "analognf/net/pcap.hpp"
#include "analognf/traffic/source.hpp"
#include "analognf/traffic/trace.hpp"
#include "analognf/traffic/workload.hpp"
#include "analognf/traffic/zipf.hpp"

namespace {

using namespace analognf;

// ------------------------------------------------------------ SpscRing

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> exact(16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(SpscRingTest, PushPopSingleThreadFifo) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  int full = 99;
  EXPECT_FALSE(ring.TryPush(full));
  EXPECT_EQ(full, 99);  // intact on failure
  EXPECT_EQ(ring.Size(), 4u);
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    EXPECT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.TryPop(out));
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, WrapAroundKeepsOrder) {
  SpscRing<int> ring(4);
  int out = -1;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
    EXPECT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(SpscRingTest, BatchPushPop) {
  SpscRing<int> ring(8);
  int in[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.PushBatch(in, 6), 6u);
  int more[6] = {6, 7, 8, 9, 10, 11};
  EXPECT_EQ(ring.PushBatch(more, 6), 2u);  // only 2 slots free
  int out[16];
  EXPECT_EQ(ring.PopBatch(out, 16), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.PopBatch(out, 16), 0u);
}

TEST(SpscRingTest, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(2);
  auto p = std::make_unique<int>(42);
  EXPECT_TRUE(ring.TryPush(std::move(p)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(ring.TryPop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// The TSan target: one producer, one consumer, every value handed over
// exactly once and in order.
TEST(SpscRingTest, TwoThreadHandoff) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::uint64_t> ring(64);
  std::uint64_t received = 0;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t buf[32];
    while (received < kCount) {
      const std::size_t n = ring.PopBatch(buf, 32);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(buf[i], received + i);
        sum += buf[i];
      }
      received += n;
      if (n == 0) std::this_thread::yield();
    }
  });
  for (std::uint64_t v = 0; v < kCount;) {
    if (ring.TryPush(v)) {
      ++v;
    } else {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// Park() marks the consumer parked and re-checks the ring before it
// sleeps, so work queued after the bell was read never blocks it; a bell
// that moved past `seen` returns at once too.
TEST(SpscRingTest, ParkReturnsWhenNotEmpty) {
  SpscRing<int> ring(4);
  const std::uint32_t seen = ring.Bell();
  EXPECT_TRUE(ring.TryPush(7));
  ring.Park(seen);
  int out = 0;
  EXPECT_TRUE(ring.TryPop(out));
  EXPECT_EQ(out, 7);
  ring.Wake();
  ring.Park(seen);
  EXPECT_TRUE(ring.Empty());
}

// The lost-wakeup target: one item per round, pushed only after the
// consumer retired the previous one, so nearly every push races a
// consumer on its way into Park(). A missed wake shows as a round that
// stalls for 5 s; the producer then rings the bell itself — and from
// then on after 1 ms — so the test fails instead of hanging.
TEST(SpscRingTest, ParkWakesOnPush) {
  constexpr int kRounds = 10'000;
  SpscRing<int> ring(2);
  std::atomic<int> retired{0};
  std::vector<int> received;
  received.reserve(kRounds);
  std::thread consumer([&] {
    for (int i = 0; i < kRounds; ++i) {
      int value = -1;
      for (;;) {
        const std::uint32_t seen = ring.Bell();
        if (ring.TryPop(value)) break;
        ring.Park(seen);
      }
      received.push_back(value);
      retired.store(i + 1, std::memory_order_release);
    }
  });
  int stalled_rounds = 0;
  std::chrono::steady_clock::duration patience = std::chrono::seconds(5);
  for (int i = 0; i < kRounds; ++i) {
    int value = i;
    // Alternate the two producer entry points; both ring the bell.
    if (i % 2 == 0) {
      EXPECT_TRUE(ring.TryPush(value));
    } else {
      EXPECT_EQ(ring.PushBatch(&value, 1), 1u);
    }
    auto deadline = std::chrono::steady_clock::now() + patience;
    while (retired.load(std::memory_order_acquire) != i + 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        ++stalled_rounds;
        patience = std::chrono::milliseconds(1);
        ring.Wake();
        deadline = std::chrono::steady_clock::now() + patience;
      }
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(stalled_rounds, 0);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kRounds));
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], static_cast<int>(i));
  }
}

// ------------------------------------------------------------- Zipf

TEST(ZipfSamplerTest, RejectsBadArguments) {
  EXPECT_THROW(traffic::ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(traffic::ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(ZipfSamplerTest, DeterministicAcrossInstances) {
  traffic::ZipfSampler a(1000, 1.2);
  traffic::ZipfSampler b(1000, 1.2);
  RandomStream ra(7), rb(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Sample(ra), b.Sample(rb));
}

TEST(ZipfSamplerTest, SZeroIsUniform) {
  traffic::ZipfSampler z(100, 0.0);
  RandomStream rng(3);
  std::vector<int> counts(100, 0);
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.Sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 100, 250);  // ~8 sigma
  }
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  traffic::ZipfSampler z(500, 0.8);
  double sum = 0.0;
  for (std::uint64_t k = 0; k < 500; ++k) sum += z.Probability(k);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_EQ(z.Probability(500), 0.0);
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatchProbabilities) {
  traffic::ZipfSampler z(1000, 1.0);
  RandomStream rng(11);
  constexpr int kSamples = 200'000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.Sample(rng)];
  // Top ranks carry enough mass for tight relative checks.
  for (std::uint64_t k = 0; k < 5; ++k) {
    const double expected = z.Probability(k) * kSamples;
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected))
        << "rank " << k;
  }
  // Monotone popularity: rank 0 strictly dominates rank 9.
  EXPECT_GT(counts[0], counts[9]);
}

TEST(ZipfSamplerTest, MillionFlowPopulationStaysInRange) {
  const std::uint64_t n = 1u << 20;
  traffic::ZipfSampler z(n, 1.0);
  RandomStream rng(13);
  std::uint64_t rank0 = 0;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t k = z.Sample(rng);
    ASSERT_LT(k, n);
    if (k == 0) ++rank0;
  }
  // P(rank 0) = 1/H(2^20) ~ 6.9%; far above uniform 1/2^20.
  EXPECT_GT(rank0, 2000u);
}

// ------------------------------------------------------ FlowPopulation

TEST(FlowPopulationTest, TuplesAreStableAndDistinct) {
  traffic::PopulationConfig config;
  config.flows = 1u << 20;
  traffic::FlowPopulation a(config), b(config);
  for (std::uint64_t f : {0ull, 1ull, 12345ull, (1ull << 20) - 1}) {
    const traffic::FlowTuple ta = a.Tuple(f), tb = b.Tuple(f);
    EXPECT_EQ(ta.src_ip, tb.src_ip);
    EXPECT_EQ(ta.dst_ip, tb.dst_ip);
    EXPECT_EQ(ta.src_port, tb.src_port);
    EXPECT_EQ(ta.dst_port, tb.dst_port);
    EXPECT_EQ(ta.protocol, tb.protocol);
    EXPECT_EQ(ta.dscp, tb.dscp);
    EXPECT_EQ(ta.ect, tb.ect);
  }
  EXPECT_NE(a.Tuple(0).src_ip, a.Tuple(1).src_ip);
}

TEST(FlowPopulationTest, TraitFractionsMatchConfig) {
  traffic::PopulationConfig config;
  config.flows = 40'000;
  config.udp_fraction = 0.8;
  config.ect_fraction = 0.5;
  config.high_priority_fraction = 0.25;
  traffic::FlowPopulation pop(config);
  int udp = 0, ect = 0, high = 0;
  for (std::uint64_t f = 0; f < config.flows; ++f) {
    const traffic::FlowTuple t = pop.Tuple(f);
    if (t.protocol == net::kIpProtoUdp) ++udp;
    if (t.ect) ++ect;
    if ((t.dscp >> 3) >= 4) ++high;
    EXPECT_EQ(t.dst_port, t.protocol == net::kIpProtoUdp ? 53 : 443);
    EXPECT_GE(t.dst_ip, config.dst_base);
    EXPECT_LT(t.dst_ip, config.dst_base + config.dst_hosts);
  }
  const auto n = static_cast<double>(config.flows);
  EXPECT_NEAR(udp / n, 0.8, 0.02);
  EXPECT_NEAR(ect / n, 0.5, 0.02);
  EXPECT_NEAR(high / n, 0.25, 0.02);
}

TEST(FlowPopulationTest, ValidateRejectsBadConfig) {
  traffic::PopulationConfig config;
  config.flows = 0;
  EXPECT_THROW(traffic::FlowPopulation{config}, std::invalid_argument);
  config.flows = 8;
  config.udp_fraction = 1.5;
  EXPECT_THROW(traffic::FlowPopulation{config}, std::invalid_argument);
}

// ---------------------------------------------------- frame synthesis

// Differential test: synthesized bytes must parse cleanly (checksum
// verified) and reproduce the tuple bit-exactly.
TEST(SynthesizeFrameTest, ParsesBackToTheTuple) {
  traffic::PopulationConfig config;
  config.flows = 512;
  traffic::FlowPopulation pop(config);
  net::Parser parser;  // checksum verification on
  for (std::uint64_t f = 0; f < config.flows; ++f) {
    const traffic::FlowTuple t = pop.Tuple(f);
    for (std::uint32_t size : {0u, 64u, 576u, 1500u}) {
      const net::Packet packet = traffic::SynthesizePacket(t, size);
      const net::ParsedPacket parsed = parser.Parse(packet);
      ASSERT_TRUE(parsed.ok()) << net::ToString(parsed.error);
      ASSERT_TRUE(parsed.ipv4.has_value());
      EXPECT_EQ(parsed.ipv4->src_ip, t.src_ip);
      EXPECT_EQ(parsed.ipv4->dst_ip, t.dst_ip);
      EXPECT_EQ(parsed.ipv4->protocol, t.protocol);
      EXPECT_EQ(parsed.ipv4->dscp, t.dscp);
      EXPECT_EQ(parsed.ipv4->ecn, t.ect ? 2 : 0);
      const net::FiveTuple key = parsed.Key();
      EXPECT_EQ(key.src_port, t.src_port);
      EXPECT_EQ(key.dst_port, t.dst_port);
      // Exact frame length (clamped up to the headers' minimum).
      const std::uint32_t l4 = t.protocol == net::kIpProtoTcp
                                   ? net::TcpHeader::kSize
                                   : net::UdpHeader::kSize;
      const std::uint32_t min_bytes =
          net::EthernetHeader::kSize + net::Ipv4Header::kSize + l4;
      EXPECT_EQ(packet.size(), std::max(size, min_bytes));
      EXPECT_EQ(traffic::FrameBytes(t, size), packet.size());
    }
  }
}

TEST(SynthesizeFrameTest, DeterministicBytes) {
  traffic::FlowPopulation pop(traffic::PopulationConfig{});
  const traffic::FlowTuple t = pop.Tuple(77);
  EXPECT_EQ(traffic::SynthesizePacket(t, 256),
            traffic::SynthesizePacket(t, 256));
  // A buffer shorter than the headers is refused, not overrun.
  std::uint8_t short_frame[traffic::kMinFrameBytes - 1] = {};
  EXPECT_THROW(traffic::SynthesizeFrame(t, short_frame),
               std::invalid_argument);
}

// -------------------------------------------------------- arrivals

TEST(ArrivalProcessTest, PoissonIsMonotoneAtConfiguredRate) {
  net::ArrivalConfig config;
  config.rate_pps = 1000.0;
  RandomStream rng(5);
  net::ArrivalProcess arrivals(config, rng);
  double prev = 0.0;
  constexpr int kEvents = 50'000;
  double last = 0.0;
  for (int i = 0; i < kEvents; ++i) {
    const double t = arrivals.Next(rng);
    EXPECT_GT(t, prev);
    prev = t;
    last = t;
  }
  // Mean inter-arrival 1/rate: 50k events in ~50 s.
  EXPECT_NEAR(last, kEvents / config.rate_pps, 0.05 * kEvents / 1000.0);
}

TEST(ArrivalProcessTest, MmppIsMonotone) {
  net::ArrivalConfig config;
  config.process = net::ArrivalConfig::Process::kMmpp;
  RandomStream rng(21);
  net::ArrivalProcess arrivals(config, rng);
  double prev = 0.0;
  for (int i = 0; i < 10'000; ++i) {
    const double t = arrivals.Next(rng);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// --------------------------------------------------------- stream pins
//
// FNV-1a digests of the first 10^5 frames (bytes and arrival clock) of
// the two workloads the forwarding benchmark synthesizes: IMIX over a
// Zipf(1) population of 2^20 flows, and fixed 64 B frames. Any change
// that moves a draw of the arrival clock, the flow sampler or the size
// model changes a digest.

class StreamDigest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    AddBytes(bytes, sizeof(T));
  }
  void AddBytes(const unsigned char* bytes, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t LiveStreamDigest(traffic::WorkloadConfig::Sizes sizes) {
  // The benchmark's per-port workload for seed 1, port 0.
  traffic::WorkloadConfig w;
  w.population.flows = 1u << 20;
  w.population.seed = 1 ^ 0x5eedf10u;
  w.zipf_s = 1.0;
  w.arrivals.rate_pps = 1.0 / 64.0e-6 * 64.0;
  w.sizes = sizes;
  w.fixed_size_bytes = 64;
  w.seed = 0x9e3779b97f4a7c15ull + 1;
  traffic::TrafficSource source = traffic::TrafficSource::Live(w);
  StreamDigest digest;
  std::vector<net::Packet> packets;
  for (int i = 0; i < 100'000; ++i) {
    packets.clear();
    double now_s = 0.0;
    EXPECT_EQ(source.NextBatch(1, packets, now_s), 1u);
    const std::span<const std::uint8_t> bytes = packets.front().bytes();
    digest.Add(bytes.size());
    digest.AddBytes(bytes.data(), bytes.size());
    digest.Add(now_s);
  }
  return digest.value();
}

TEST(StreamPinTest, LiveImixZipfMillionFlows) {
  EXPECT_EQ(LiveStreamDigest(traffic::WorkloadConfig::Sizes::kImix),
            0x1d49439a9385ccb6ULL);
}

TEST(StreamPinTest, LiveFixed64) {
  EXPECT_EQ(LiveStreamDigest(traffic::WorkloadConfig::Sizes::kFixed),
            0xc9bd733edd916ff8ULL);
}

// ---------------------------------------------------------- trace

TEST(TraceTest, RoundTripsBitExactly) {
  traffic::Trace trace;
  trace.population.flows = 1u << 16;
  trace.population.seed = 0xabcdef;
  trace.records.push_back({1.0 / 3.0, 42, 64});
  trace.records.push_back({0x1.fffffffffffffp-1, 65535, 1500});
  trace.records.push_back({2.0000000000000004, 7, 576});

  std::stringstream buffer;
  traffic::WriteTrace(buffer, trace);
  const traffic::Trace back = traffic::ReadTrace(buffer);

  EXPECT_EQ(back.population.flows, trace.population.flows);
  EXPECT_EQ(back.population.seed, trace.population.seed);
  ASSERT_EQ(back.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    // Bit-pattern equality, stricter than ==.
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &trace.records[i].arrival_s, 8);
    std::memcpy(&b, &back.records[i].arrival_s, 8);
    EXPECT_EQ(a, b);
    EXPECT_EQ(back.records[i].flow, trace.records[i].flow);
    EXPECT_EQ(back.records[i].frame_bytes, trace.records[i].frame_bytes);
  }
}

TEST(TraceTest, RejectsCorruptInput) {
  std::stringstream empty;
  EXPECT_THROW(traffic::ReadTrace(empty), std::runtime_error);

  traffic::Trace trace;
  trace.records.push_back({0.5, 1, 64});
  std::stringstream buffer;
  traffic::WriteTrace(buffer, trace);
  std::string bytes = buffer.str();
  bytes[0] = static_cast<char>(bytes[0] ^ 0x7f);  // break the magic
  std::stringstream bad(bytes);
  EXPECT_THROW(traffic::ReadTrace(bad), std::runtime_error);

  std::stringstream truncated(buffer.str().substr(0, 40));
  EXPECT_THROW(traffic::ReadTrace(truncated), std::runtime_error);

  // A header-only file whose count claims 2^40 records is truncated
  // input, not a request to reserve 2^40 records.
  std::stringstream header_only;
  traffic::WriteTrace(header_only, traffic::Trace{});
  std::string huge = header_only.str();
  ASSERT_EQ(huge.size(), 64u);
  huge[56 + 5] = 1;  // little-endian u64 count at offset 56: 2^40
  std::stringstream claims_huge(huge);
  EXPECT_THROW(traffic::ReadTrace(claims_huge), std::runtime_error);
}

// ----------------------------------------------------- TrafficSource

traffic::WorkloadConfig SmallWorkload() {
  traffic::WorkloadConfig w;
  w.population.flows = 1u << 16;
  w.arrivals.rate_pps = 1.0e6;
  return w;
}

TEST(TrafficSourceTest, LiveBatchesAreOrderedAndSized) {
  traffic::TrafficSource src = traffic::TrafficSource::Live(SmallWorkload());
  std::vector<net::Packet> packets;
  double now_s = 0.0;
  double prev = 0.0;
  for (int b = 0; b < 10; ++b) {
    packets.clear();
    EXPECT_EQ(src.NextBatch(32, packets, now_s), 32u);
    EXPECT_EQ(packets.size(), 32u);
    EXPECT_GT(now_s, prev);
    prev = now_s;
  }
  EXPECT_EQ(src.emitted(), 320u);
}

TEST(TrafficSourceTest, RecordThenReplayIsByteIdentical) {
  traffic::Trace trace;
  traffic::TrafficSource live = traffic::TrafficSource::Live(SmallWorkload());
  live.RecordTo(&trace);

  std::vector<net::Packet> live_packets;
  std::vector<double> live_clocks;
  double now_s = 0.0;
  for (int b = 0; b < 8; ++b) {
    ASSERT_EQ(live.NextBatch(16, live_packets, now_s), 16u);
    live_clocks.push_back(now_s);
  }
  ASSERT_EQ(trace.records.size(), live_packets.size());

  traffic::TrafficSource replay = traffic::TrafficSource::Replay(trace);
  std::vector<net::Packet> replayed;
  for (int b = 0; b < 8; ++b) {
    ASSERT_EQ(replay.NextBatch(16, replayed, now_s), 16u);
    EXPECT_EQ(now_s, live_clocks[static_cast<std::size_t>(b)]);
  }
  // Past the end: exhausted.
  EXPECT_EQ(replay.NextBatch(16, replayed, now_s), 0u);

  ASSERT_EQ(replayed.size(), live_packets.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], live_packets[i]) << "packet " << i;
  }
}

TEST(TrafficSourceTest, PcapRoundTripReplaysVerbatim) {
  // Synthesize a small stream, write it as pcap, read it back, replay.
  traffic::FlowPopulation pop(traffic::PopulationConfig{});
  std::stringstream file;
  net::PcapWriter writer(file);
  std::vector<net::Packet> originals;
  for (std::uint64_t f = 0; f < 16; ++f) {
    originals.push_back(traffic::SynthesizePacket(pop.Tuple(f), 128));
    writer.Write(0.001 * static_cast<double>(f + 1), originals.back());
  }
  std::vector<net::PcapRecord> records = net::ReadPcap(file);
  ASSERT_EQ(records.size(), 16u);

  traffic::TrafficSource src =
      traffic::TrafficSource::FromPcap(std::move(records));
  traffic::Trace trace;
  EXPECT_THROW(src.RecordTo(&trace), std::logic_error);

  std::vector<net::Packet> packets;
  double now_s = 0.0;
  EXPECT_EQ(src.NextBatch(64, packets, now_s), 16u);
  EXPECT_DOUBLE_EQ(now_s, 0.016);
  ASSERT_EQ(packets.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(packets[i], originals[i]);
  }
  EXPECT_EQ(src.NextBatch(64, packets, now_s), 0u);
}

// ----------------------------------------------- PortRuntime ring mode

arch::SwitchConfig RingTestSwitchConfig() {
  arch::SwitchConfig c;
  c.port_count = 2;
  c.port_rate_bps = 100.0e9;
  c.service_classes = 2;
  return c;
}

std::vector<std::vector<net::Packet>> RingTestBatches(std::size_t batches,
                                                      std::size_t size) {
  traffic::PopulationConfig pc;
  pc.flows = 4096;
  traffic::FlowPopulation pop(pc);
  RandomStream rng(0xba7c);
  std::vector<std::vector<net::Packet>> out(batches);
  for (auto& batch : out) {
    batch.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      batch.push_back(traffic::SynthesizePacket(
          pop.Tuple(rng.NextIndex(pc.flows)),
          static_cast<std::uint32_t>(64 + rng.NextIndex(512))));
    }
  }
  return out;
}

void InstallRingTestTables(arch::SwitchGroup& group) {
  group.AddFirewallRule(arch::FirewallPattern{}, true, 0);
  for (std::uint32_t h = 0; h < 256; ++h) {
    group.AddRoute(0x0a000000u + h, 32, h % 2);
  }
  group.Commit();
}

bool SameStats(const arch::SwitchStats& a, const arch::SwitchStats& b) {
  return a == b;
}

// Ring-fed processing must be bit-identical to mailbox Submit() of the
// same batches: the ring changes the transport, not the data plane.
TEST(PortRuntimeRingTest, RingFedMatchesSubmit) {
  const auto batches = RingTestBatches(32, 16);

  arch::SwitchGroup via_submit(1, RingTestSwitchConfig());
  InstallRingTestTables(via_submit);
  double now_s = 0.0;
  for (const auto& batch : batches) {
    via_submit.Submit(0, batch, now_s);
    now_s += 1.0e-5;
  }
  via_submit.WaitIdle();

  arch::SwitchGroup via_ring(1, RingTestSwitchConfig());
  InstallRingTestTables(via_ring);
  arch::PortRuntime::IngressRing ring(8);
  std::atomic<std::uint64_t> hook_packets{0};
  via_ring.runtime(0).AttachRing(
      &ring, [&](const arch::PortRuntime::RingBatchInfo& info) {
        hook_packets.fetch_add(info.packets, std::memory_order_relaxed);
        EXPECT_GE(info.done_ns, info.start_ns);
      });
  now_s = 0.0;
  for (const auto& batch : batches) {
    arch::PortRuntime::Batch item;
    item.packets = batch;
    item.now_s = now_s;
    while (!ring.TryPush(item)) std::this_thread::yield();
    now_s += 1.0e-5;
  }
  while (!ring.Empty()) std::this_thread::yield();
  via_ring.runtime(0).DetachRing();

  EXPECT_EQ(hook_packets.load(), 32u * 16u);
  EXPECT_TRUE(SameStats(via_ring.device(0).stats(),
                        via_submit.device(0).stats()));
  EXPECT_EQ(via_ring.device(0).ledger().TotalJ(),
            via_submit.device(0).ledger().TotalJ());
}

// Commands submitted while a ring is attached still execute (mailbox
// has priority over ring polling), and detach/reattach cycles work.
TEST(PortRuntimeRingTest, CommandsAndReattachDuringRingMode) {
  arch::SwitchGroup group(1, RingTestSwitchConfig());
  InstallRingTestTables(group);
  const auto batches = RingTestBatches(8, 8);

  arch::PortRuntime::IngressRing ring(4);
  group.runtime(0).AttachRing(&ring);
  std::atomic<int> commands_ran{0};
  double now_s = 0.0;
  for (const auto& batch : batches) {
    arch::PortRuntime::Batch item;
    item.packets = batch;
    item.now_s = now_s;
    while (!ring.TryPush(item)) std::this_thread::yield();
    group.runtime(0).Apply([&commands_ran](arch::CognitiveSwitch&) {
      commands_ran.fetch_add(1, std::memory_order_relaxed);
    });
    now_s += 1.0e-5;
  }
  while (!ring.Empty()) std::this_thread::yield();
  group.runtime(0).DetachRing();
  EXPECT_EQ(commands_ran.load(), 8);

  // Mailbox path still works after detach...
  group.Submit(0, batches.front(), now_s);
  group.WaitIdle();
  // ...and the ring can be re-attached.
  group.runtime(0).AttachRing(&ring);
  arch::PortRuntime::Batch item;
  item.packets = batches.back();
  item.now_s = now_s + 1.0e-5;
  while (!ring.TryPush(item)) std::this_thread::yield();
  while (!ring.Empty()) std::this_thread::yield();
  group.runtime(0).DetachRing();
  EXPECT_EQ(group.device(0).stats().injected, 8u * 8u + 8u + 8u);
}

// ---- parked-worker wakeups
// Each wake test runs kWakeRounds rounds of: leave the port idle far
// longer than the worker's spin-before-park phase, fire one wake source,
// and wait for its effect. A lost wakeup leaves the worker asleep; the
// 5 s deadline turns that into a failure, and the test then nudges the
// worker through the other wake paths so ctest does not hang.
constexpr int kWakeRounds = 200;
constexpr auto kParkIdle = std::chrono::milliseconds(1);

struct ParkedPort {
  // The ring and what the hook touches are declared before the group,
  // so they outlive the worker even when a failed assertion skips
  // DetachRing().
  arch::PortRuntime::IngressRing ring{4};
  std::atomic<int> retired{0};  // ring batches the hook has seen
  std::vector<net::Packet> packets = RingTestBatches(1, 4).front();
  std::unique_ptr<arch::SwitchGroup> group =
      std::make_unique<arch::SwitchGroup>(1, RingTestSwitchConfig());

  ParkedPort() { InstallRingTestTables(*group); }

  arch::PortRuntime& runtime() { return group->runtime(0); }
  void Attach() {
    runtime().AttachRing(&ring,
                         [this](const arch::PortRuntime::RingBatchInfo&) {
                           retired.fetch_add(1, std::memory_order_relaxed);
                         });
  }
  arch::PortRuntime::Batch Batch(int round) const {
    arch::PortRuntime::Batch item;
    item.packets = packets;
    item.now_s = round * 1.0e-5;
    return item;
  }
  // Waits up to 5 s for `done`. On timeout it nudges the worker through
  // the other wake paths — one mailbox no-op (unless the group is being
  // torn down) and an empty ring batch every millisecond — and returns
  // false once `done` holds.
  bool Await(const std::function<bool()>& done, bool nudge_mailbox = true) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!done()) {
      if (std::chrono::steady_clock::now() > deadline) {
        if (nudge_mailbox) runtime().Apply([](arch::CognitiveSwitch&) {});
        while (!done()) {
          ring.TryPush(arch::PortRuntime::Batch{});
          std::this_thread::sleep_for(kParkIdle);
        }
        return false;
      }
      std::this_thread::yield();
    }
    return true;
  }
  bool AwaitRetired(int count) {
    return Await([this, count] {
      return retired.load(std::memory_order_relaxed) >= count;
    });
  }
  // Runs `blocking` on its own thread and awaits its return.
  bool AwaitReturn(const std::function<void()>& blocking,
                   bool nudge_mailbox = true) {
    auto returned = std::async(std::launch::async, blocking);
    return Await(
        [&returned] {
          return returned.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready;
        },
        nudge_mailbox);
  }
};

// Both producer entry points must wake a parked worker.
void ExpectEveryPushWakes(
    const std::function<bool(arch::PortRuntime::IngressRing&,
                             arch::PortRuntime::Batch&)>& push) {
  ParkedPort port;
  port.Attach();
  for (int round = 0; round < kWakeRounds; ++round) {
    std::this_thread::sleep_for(kParkIdle);
    arch::PortRuntime::Batch item = port.Batch(round);
    ASSERT_TRUE(push(port.ring, item));
    ASSERT_TRUE(port.AwaitRetired(round + 1)) << "round " << round;
  }
  port.runtime().DetachRing();
  EXPECT_EQ(port.group->device(0).stats().injected, kWakeRounds * 4u);
}

TEST(PortRuntimeRingTest, ParkedWorkerWakesOnTryPush) {
  ExpectEveryPushWakes([](auto& ring, auto& item) {
    return ring.TryPush(item);
  });
}

TEST(PortRuntimeRingTest, ParkedWorkerWakesOnPushBatch) {
  ExpectEveryPushWakes([](auto& ring, auto& item) {
    return ring.PushBatch(&item, 1) == 1;
  });
}

// A mailbox command must wake a worker parked on its ring's doorbell.
TEST(PortRuntimeRingTest, ParkedWorkerWakesOnApply) {
  ParkedPort port;
  port.Attach();
  std::atomic<int> commands{0};
  for (int round = 0; round < kWakeRounds; ++round) {
    std::this_thread::sleep_for(kParkIdle);
    port.runtime().Apply([&commands](arch::CognitiveSwitch&) {
      commands.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_TRUE(port.Await([&commands, round] {
      return commands.load(std::memory_order_relaxed) == round + 1;
    })) << "round " << round;
  }
  port.runtime().DetachRing();
}

// DetachRing() blocks until the worker processed the detach, so the
// detach itself must wake the parked worker.
TEST(PortRuntimeRingTest, ParkedWorkerWakesOnDetach) {
  ParkedPort port;
  for (int round = 0; round < kWakeRounds; ++round) {
    port.Attach();
    std::this_thread::sleep_for(kParkIdle);
    ASSERT_TRUE(port.AwaitReturn([&port] { port.runtime().DetachRing(); }))
        << "round " << round;
  }
}

// Teardown without DetachRing(): the destructor must wake a worker
// parked on the still-attached ring (which outlives the runtime).
TEST(PortRuntimeRingTest, DestroyWithRingAttachedReturns) {
  ParkedPort port;
  port.Attach();
  arch::PortRuntime::Batch item = port.Batch(0);
  ASSERT_TRUE(port.ring.TryPush(item));
  ASSERT_TRUE(port.AwaitRetired(1));
  std::this_thread::sleep_for(kParkIdle);
  EXPECT_TRUE(port.AwaitReturn([&port] { port.group.reset(); },
                               /*nudge_mailbox=*/false));
}

// Control-plane commits racing ring-fed ingress across every port: the
// TSan stress for snapshot publication + SPSC handoff together. Each
// port's ring hook drains egress on the worker (as a forwarding loop
// does), so the run also conserves packets end to end: every pushed
// packet is injected, and every forwarded one is delivered.
TEST(SwitchGroupRingTest, CommitChurnUnderRingLoad) {
  constexpr std::size_t kPorts = 2;
  constexpr std::size_t kBatches = 24;
  constexpr std::size_t kBatchSize = 8;
  // Worker-owned while the ring is attached; this thread reuses them
  // for the final drain after DetachRing(). Declared before the group,
  // so they outlive the workers whose hooks write them.
  std::vector<std::vector<arch::Delivery>> deliveries(kPorts);
  arch::SwitchGroup group(kPorts, RingTestSwitchConfig());
  InstallRingTestTables(group);

  std::vector<std::unique_ptr<arch::PortRuntime::IngressRing>> rings;
  for (std::size_t p = 0; p < kPorts; ++p) {
    rings.push_back(std::make_unique<arch::PortRuntime::IngressRing>(8));
    arch::CognitiveSwitch* sw = &group.device(p);
    std::vector<arch::Delivery>* out = &deliveries[p];
    group.runtime(p).AttachRing(
        rings[p].get(),
        [sw, out](const arch::PortRuntime::RingBatchInfo& info) {
          out->clear();
          sw->DrainInto(info.now_s, *out);
        });
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kPorts; ++p) {
    producers.emplace_back([&, p] {
      const auto batches = RingTestBatches(kBatches, kBatchSize);
      double now_s = 0.0;
      for (const auto& batch : batches) {
        arch::PortRuntime::Batch item;
        item.packets = batch;
        item.now_s = now_s;
        while (!rings[p]->TryPush(item)) std::this_thread::yield();
        now_s += 1.0e-5;
      }
    });
  }
  // Controller thread: route churn with commits while ports consume.
  std::thread controller([&] {
    for (int i = 0; i < 50; ++i) {
      const std::size_t idx =
          group.AddRoute(0x0b000000u + static_cast<std::uint32_t>(i), 32, 0);
      group.Commit();
      group.WithdrawRoute(idx);
      group.Commit();
    }
  });
  for (auto& t : producers) t.join();
  controller.join();
  for (std::size_t p = 0; p < kPorts; ++p) {
    while (!rings[p]->Empty()) std::this_thread::yield();
    group.runtime(p).DetachRing();
  }
  group.WaitIdle();
  for (std::size_t p = 0; p < kPorts; ++p) {
    deliveries[p].clear();
    group.device(p).DrainInto(std::numeric_limits<double>::infinity(),
                              deliveries[p]);
    const arch::SwitchStats& s = group.device(p).stats();
    EXPECT_EQ(s.injected, kBatches * kBatchSize) << "port " << p;
    EXPECT_GT(s.forwarded, 0u) << "port " << p;
    EXPECT_EQ(s.delivered, s.forwarded) << "port " << p;
  }
  arch::SwitchStats total = group.AggregateStats();
  EXPECT_EQ(total.injected, kPorts * kBatches * kBatchSize);
}

}  // namespace
