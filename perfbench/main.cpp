// analognf benchmark binary.
//
//   analognf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      [--trace-out <csv>]
//
// Workloads: full-chain-churn and bare-64b-2port (forwarding.cpp). With
// --trace 0 it measures the end-to-end metrics; with --trace 1 the
// per-layer metrics of a traced run, which for full-chain-churn also
// runs the AQM shoot-out grid for the sim layer (grid.cpp). The last
// line of standard output is a JSON object with every metric measured;
// run.py narrows it to the metrics BENCHMARK.json names. Exits non-zero
// when any output check fails. See README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analognf/common/simd.hpp"
#include "common.hpp"

// ------------------------------------------------------ allocation count

namespace perfbench {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace perfbench

namespace {

void* CountedAlloc(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

// ------------------------------------------------------------- helpers

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// VmHWM, not getrusage's ru_maxrss: the latter survives execve, so it
// would report the launching interpreter's peak when that is larger.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Fail(const std::string& what) { failures_.push_back(what); }

void Report::Count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Print() const {
  for (const auto& [key, value] : notes_) {
    std::cout << "# " << key << ": " << value << "\n";
  }
  for (const auto& [name, m] : metrics_) {
    std::cout << "metric " << name << " = " << JsonNumber(m.value) << " "
              << m.unit << " (n=" << m.samples << ")\n";
  }
  const double fail_frac =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::cout << "metric fail_frac = " << JsonNumber(fail_frac) << " ratio (n="
            << attempted_ << ")\n";
  for (const std::string& f : failures_) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    json << (first ? "" : ", ") << "\"" << name
         << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
         << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Report;

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::cerr << "analognf_perfbench: " << why
            << "\nusage: analognf_perfbench --workload "
               "<full-chain-churn|bare-64b-2port> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <csv>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--trace-out") {
        options.trace_out = value;
      } else {
        return Usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return Usage("malformed argument value");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  Report report;
  report.Note("workload", options.workload);
  report.Note("seed", std::to_string(options.seed));
  report.Note("mode", options.trace ? "traced (per-layer)" : "end-to-end");
  report.Note("cpu", CpuModel());
  report.Note("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.Note("isa", analognf::simd::IsaName());
  report.Note("compiler", PERFBENCH_COMPILER);
  report.Note("build_type", PERFBENCH_BUILD_TYPE);

  try {
    if (options.workload == "full-chain-churn" ||
        options.workload == "bare-64b-2port") {
      perfbench::RunForwarding(options, report);
      if (options.trace && options.workload == "full-chain-churn") {
        perfbench::MeasureGridLayers(options, report);
      }
    } else {
      return Usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "analognf_perfbench: " << e.what() << "\n";
    return 1;
  }

  report.Print();
  return report.correct() ? 0 : 1;
}
