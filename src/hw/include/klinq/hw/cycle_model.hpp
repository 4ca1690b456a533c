// Cycle-accurate latency model of the KLiNQ datapath (paper §IV / Table III).
//
// The PL pipeline is: { MF ∥ (AVG → NORM) } → CONCAT → FC×3 → decision.
// Primitive timings follow the paper's description:
//   * multiplications run in a 4-stage pipeline (4 cycles),
//   * an n-input adder tree (plus bias) takes ⌈log2 n⌉ + 1 cycles,
//   * ReLU is a 1-cycle sign check,
//   * normalization is 2 cycles (subtract, shift — division-free),
//   * one output register per module.
//
// Two composition modes:
//   analytic        — every layer pays its full multiply + tree + ReLU
//                     latency; an upper bound with no inter-layer overlap.
//   paper_calibrated— models the overlap the paper's design achieves:
//                     layers after the first are fully pipelined behind it,
//                     and the MF MAC is folded into 32-element chunks. This
//                     reproduces Table III exactly: MF=11, AVG&NORM=9/6,
//                     network=12/15, total 32 ns for both configurations.
//
// Cycle→time conversion: Table III's per-module latencies are written in ns
// and sum to 32 ns; they behave as 1 cycle = 1 ns (1 GHz equivalent
// pipeline rate). clock_ghz rescales if desired.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace klinq::hw {

enum class latency_mode { analytic, paper_calibrated };

/// Static description of one per-qubit datapath configuration.
struct datapath_config {
  std::string name;
  /// Complex samples per trace (N); the MF spans 2N inputs.
  std::size_t trace_samples = 500;
  /// Averaging groups per quadrature (G).
  std::size_t groups_per_quadrature = 15;
  /// Input width of each FC layer, e.g. {31, 16, 8} for FNN-A.
  std::vector<std::size_t> layer_inputs = {31, 16, 8};

  /// Samples averaged per group (⌈N/G⌉ — the deepest group's tree).
  std::size_t max_group_size() const;
};

/// Whether hardware synthesized for `config` can process a shorter runtime
/// trace without re-synthesis: the averaging trees must be deep enough for
/// the runtime group size. Latency is a property of the synthesized
/// pipeline, so any supported runtime duration runs at the same cycle count
/// (paper §V-D: "the latency remains constant across all readout traces").
bool supports_runtime_duration(const datapath_config& config,
                               std::size_t runtime_trace_samples);

/// FNN-A datapath at a given trace length (default: paper's 1 µs).
datapath_config fnn_a_datapath(std::size_t trace_samples = 500);
/// FNN-B datapath.
datapath_config fnn_b_datapath(std::size_t trace_samples = 500);

struct stage_latency {
  std::string name;
  std::size_t cycles = 0;
};

struct latency_breakdown {
  std::vector<stage_latency> stages;
  /// Paper-style total: sum of all module latencies (§V-D sums MF +
  /// AVG&NORM + network even though MF and AVG run concurrently).
  std::size_t total_serial_cycles = 0;
  /// Critical path with MF and AVG&NORM in parallel.
  std::size_t total_critical_path_cycles = 0;

  /// Nanoseconds at the given pipeline rate (default 1 GHz ⇒ cycles = ns).
  double serial_ns(double clock_ghz = 1.0) const {
    return static_cast<double>(total_serial_cycles) / clock_ghz;
  }

  std::size_t stage_cycles(const std::string& name) const;
};

/// Computes the per-stage and total latency of a datapath configuration.
latency_breakdown compute_latency(const datapath_config& config,
                                  latency_mode mode);

/// Readout throughput: the datapath is fully pipelined, so a new trace can
/// enter every trace-duration; the decision trails the last sample by the
/// pipeline latency. This is what bounds mid-circuit feedback timing.
struct throughput_estimate {
  /// Decision delay after the final ADC sample (ns).
  double decision_latency_ns = 0.0;
  /// Total measurement-to-decision time: trace duration + latency (ns).
  double total_readout_ns = 0.0;
  /// Sustained discrimination rate with back-to-back traces (shots/s).
  double shots_per_second = 0.0;
};

throughput_estimate estimate_throughput(const datapath_config& config,
                                        latency_mode mode,
                                        double clock_ghz = 1.0);

/// Primitive timing constants (exposed for tests/documentation).
struct pipeline_timing {
  static constexpr std::size_t multiplier_stages = 4;
  static constexpr std::size_t relu_cycles = 1;
  static constexpr std::size_t normalize_cycles = 2;  // subtract + shift
  static constexpr std::size_t output_register = 1;
  /// MF MAC folding width in paper_calibrated mode.
  static constexpr std::size_t mf_fold_width = 32;
};

}  // namespace klinq::hw
