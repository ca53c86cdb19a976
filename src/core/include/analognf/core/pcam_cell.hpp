// The pCAM cell: the paper's core abstraction (Fig. 4a).
//
// A probabilistic content-addressable memory cell maps an analog input
// voltage to an analog match output through a programmable five-region
// piecewise-linear transfer function:
//
//     output
//     pmax  -|          ________
//            |         /        '.
//            |        / .      .  '.
//     pmin  -|_______/  .      .    '.______
//            +------M1--M2-----M3----M4----->  input
//
//   input <= M1 or >= M4 : deterministic mismatch (pmin)
//   M2 <= input <= M3    : deterministic match (pmax)
//   M1 < input < M2      : probabilistic match, slope Sa
//   M3 < input < M4      : probabilistic match, slope Sb
//
// The eight programmable parameters (M1..M4, Sa, Sb, pmax, pmin) are
// exactly the paper's prog_pCAM() arguments, and Evaluate() implements
// the paper's pCAM() pseudocode verbatim (with the output clamped to
// [pmin, pmax], which is what the physical output rails do when a
// programmed slope over- or under-shoots).
#pragma once

#include <algorithm>
#include <string>

namespace analognf::core {

// Which of the five regions an input fell in.
enum class MatchRegion {
  kMismatchLow,   // input <= M1
  kProbableRising,  // M1 < input < M2
  kMatch,         // M2 <= input <= M3
  kProbableFalling,  // M3 < input < M4
  kMismatchHigh,  // input >= M4
};

std::string ToString(MatchRegion region);

// Severity rank used when combining per-cell regions into a word-level
// verdict: a deterministic mismatch (2) dominates a probabilistic skirt
// (1), which dominates a deterministic match (0). A multi-field word
// reports the worst region across its cells — one hard-mismatching field
// makes the whole row a mismatch regardless of what later fields say.
int RegionSeverity(MatchRegion region);

// The eight prog_pCAM() parameters.
struct PcamParams {
  double m1 = 0.0;
  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  double sa = 0.0;    // rising-edge slope [output units per volt]
  double sb = 0.0;    // falling-edge slope (negative for a trapezoid)
  double pmax = 1.0;  // deterministic-match output rail
  double pmin = 0.0;  // deterministic-mismatch output rail

  // Invariants: m1 < m2 <= m3 < m4 and 0 <= pmin < pmax.
  // Throws std::invalid_argument when violated.
  void Validate() const;

  // The continuity-preserving trapezoid: slopes chosen so the
  // probabilistic edges meet the rails exactly at M1/M2/M3/M4
  // (Sa = (pmax-pmin)/(M2-M1), Sb = (pmin-pmax)/(M4-M3), the values the
  // paper's intercept terms are derived for).
  static PcamParams MakeTrapezoid(double m1, double m2, double m3,
                                  double m4, double pmax = 1.0,
                                  double pmin = 0.0);

  // A symmetric match band of half-width `tolerance` around `center`
  // with probabilistic skirts of width `skirt` on both sides.
  static PcamParams MakeBand(double center, double tolerance, double skirt,
                             double pmax = 1.0, double pmin = 0.0);
};

// Ideal (noise-free, infinitely precise) pCAM cell. The hardware-backed
// variant in pcam_hardware.hpp adds device quantisation and read energy.
class PcamCell {
 public:
  explicit PcamCell(PcamParams params);

  // The paper's pCAM(input, output) function. Inline: this is the
  // innermost loop of every analog search, and the call overhead from a
  // separate TU measurably dominates the arithmetic.
  double Evaluate(double input_v) const {
    const PcamParams& p = params_;
    double output;
    // Verbatim structure of the paper's pCAM() pseudocode (Sec. 5); the
    // rail test is written as "not inside (m1, m4)" so NaN rails to pmin.
    if (!(input_v > p.m1 && input_v < p.m4)) {
      output = p.pmin;
    } else if (input_v > p.m3) {
      output =
          p.sb * input_v + (p.m4 * p.pmax - p.m3 * p.pmin) / (p.m4 - p.m3);
    } else if (input_v < p.m2) {
      output =
          p.sa * input_v + (p.m2 * p.pmin - p.m1 * p.pmax) / (p.m2 - p.m1);
    } else {
      output = p.pmax;
    }
    // Physical output rails clip programmed slopes that over/undershoot.
    return std::clamp(output, p.pmin, p.pmax);
  }

  // Region classification of an input (diagnostics and tests).
  MatchRegion RegionOf(double input_v) const {
    const PcamParams& p = params_;
    if (input_v <= p.m1) return MatchRegion::kMismatchLow;
    if (input_v < p.m2) return MatchRegion::kProbableRising;
    if (input_v <= p.m3) return MatchRegion::kMatch;
    if (input_v < p.m4) return MatchRegion::kProbableFalling;
    return MatchRegion::kMismatchHigh;
  }

  // Reprogramming (the paper's update_pCAM action). Validates.
  void Program(const PcamParams& params);

  const PcamParams& params() const { return params_; }

 private:
  PcamParams params_;
};

}  // namespace analognf::core
