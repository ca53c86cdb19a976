// Shared pieces of the analognf benchmark: options, the metric report
// (human-readable lines plus the one-line JSON result), timing and
// statistics helpers, and the process-wide allocation counter.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where a traced run writes its spans (CSV); empty = not written.
  std::string trace_out;
};

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Peak resident set size of this process, in MB.
double PeakRssMb();

// Counting `operator new` (main.cpp): while `g_count_allocs` is set,
// every allocation in the process bumps `g_allocs`. Off by default so
// untimed and untraced paths pay one relaxed load per allocation.
extern std::atomic<bool> g_count_allocs;
extern std::atomic<std::uint64_t> g_allocs;

// Every metric a run reports. `Set` records a value with its unit and
// the number of samples behind it; the end of the run prints each one
// as a human-readable line and all of them as one JSON line.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  // Records one failed output check; the run then exits non-zero.
  void Fail(const std::string& what);
  // Counts operations attempted and failed toward the result line.
  void Count(std::uint64_t attempted, std::uint64_t failed);
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return failures_.empty(); }

  // Prints notes, every metric, every failed check, and finally the
  // JSON result line with every metric.
  void Print() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Runs a forwarding workload (forwarding.cpp).
void RunForwarding(const Options& options, Report& report);
// Runs the AQM shoot-out grid twice and records the sim and AQM
// per-layer metrics (grid.cpp).
void MeasureGridLayers(const Options& options, Report& report);

}  // namespace perfbench
