// Shared helpers for the benchmark harness.
//
// Every bench binary first prints the paper table/figure it regenerates
// as `[REPRO]`-prefixed lines (consumed by EXPERIMENTS.md), then runs
// its google-benchmark timings. BENCH_MAIN wires that order up.
// `[REPRO]` lines are seeded-deterministic: two runs of one build print
// them byte-identically. Wall-clock figures differ run to run, so they
// go on `[TIMING]` lines instead.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analognf/common/table.hpp"

namespace analognf::bench {

inline constexpr const char* kPrefix = "[REPRO] ";

inline void Banner(const std::string& title) {
  std::cout << kPrefix << "==== " << title << " ====\n";
}

inline void Line(const std::string& text) {
  std::cout << kPrefix << text << "\n";
}

inline void PrintTable(const Table& table) {
  table.Print(std::cout, kPrefix);
}

inline constexpr const char* kTimingPrefix = "[TIMING] ";

inline void TimingLine(const std::string& text) {
  std::cout << kTimingPrefix << text << "\n";
}

inline void PrintTimingTable(const Table& table) {
  table.Print(std::cout, kTimingPrefix);
}

// ------------------------------------------------------- BENCH_*.json
// Shared emitter for the machine-readable measurement files CI collects.
// Every file is one object: scalar metadata fields first, then named
// arrays of flat measurement objects.

// One key plus its pre-rendered JSON value.
struct JsonField {
  std::string key;
  std::string rendered;
};

inline JsonField JsonStr(std::string key, const std::string& value) {
  return {std::move(key), "\"" + value + "\""};
}

inline JsonField JsonNum(std::string key, double value) {
  std::ostringstream os;
  os << value;
  return {std::move(key), os.str()};
}

inline JsonField JsonInt(std::string key, std::uint64_t value) {
  return {std::move(key), std::to_string(value)};
}

using JsonObject = std::vector<JsonField>;

struct JsonArray {
  std::string name;
  std::vector<JsonObject> items;
};

// Writes `{ <meta...>, "<array>": [ {...}, ... ], ... }` to `path` and
// prints a `[REPRO] wrote <path> (<summary>)` line (or a failure line).
inline void WriteBenchJson(const std::string& path, const JsonObject& meta,
                           const std::vector<JsonArray>& arrays,
                           const std::string& summary) {
  std::ofstream out(path);
  if (!out) {
    Line("could not open " + path + " for writing");
    return;
  }
  out << "{\n";
  for (const JsonField& f : meta) {
    out << "  \"" << f.key << "\": " << f.rendered << ",\n";
  }
  for (std::size_t a = 0; a < arrays.size(); ++a) {
    out << "  \"" << arrays[a].name << "\": [\n";
    const std::vector<JsonObject>& items = arrays[a].items;
    for (std::size_t i = 0; i < items.size(); ++i) {
      out << "    {";
      for (std::size_t f = 0; f < items[i].size(); ++f) {
        out << "\"" << items[i][f].key << "\": " << items[i][f].rendered
            << (f + 1 < items[i].size() ? ", " : "");
      }
      out << "}" << (i + 1 < items.size() ? "," : "") << "\n";
    }
    out << "  ]" << (a + 1 < arrays.size() ? "," : "") << "\n";
  }
  out << "}\n";
  Line("wrote " + path + " (" + summary + ")");
}

}  // namespace analognf::bench

// Prints the repro report, then runs the registered benchmarks.
#define ANALOGNF_BENCH_MAIN(report_fn)                       \
  int main(int argc, char** argv) {                          \
    report_fn();                                             \
    ::benchmark::Initialize(&argc, argv);                    \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
      return 1;                                              \
    ::benchmark::RunSpecifiedBenchmarks();                   \
    ::benchmark::Shutdown();                                 \
    return 0;                                                \
  }
