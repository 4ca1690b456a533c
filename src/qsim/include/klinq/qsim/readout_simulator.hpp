// Dispersive-readout shot simulator.
//
// One "shot" prepares every qubit in a chosen basis state (one of the 2^N
// permutations), integrates the resonator responses over the trace duration,
// applies crosstalk mixing and noise, and returns the digitized per-qubit
// baseband channels — the same arrays an RFSoC ADC + analog down-conversion
// chain would hand the discriminator.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "klinq/common/rng.hpp"
#include "klinq/qsim/device_params.hpp"

namespace klinq::qsim {

/// Result of simulating one shot: per-qubit flattened [I|Q] channel traces.
struct shot_result {
  /// channels[q] has 2N floats: N I-samples then N Q-samples.
  std::vector<std::vector<float>> channels;
  /// Actual initial states after preparation errors (ground truth labels
  /// remain the *prepared* permutation, not these).
  std::uint32_t actual_initial_states = 0;
  /// Decay time (ns) per qubit, or a negative value when no decay occurred.
  std::vector<double> decay_time_ns;
};

class readout_simulator {
 public:
  explicit readout_simulator(device_params params);

  const device_params& params() const noexcept { return params_; }

  std::size_t samples_per_quadrature() const noexcept { return samples_; }

  /// Simulates one shot with every qubit prepared per `permutation`
  /// (bit q = prepared state of qubit q). Deterministic given `rng` state.
  shot_result simulate_shot(std::uint32_t permutation, xoshiro256& rng) const;

  /// The same shot as simulate_shot from the same `rng` state, but only the
  /// channels q with a non-null `channel_out[q]` (2N floats each) are
  /// computed; simulate_shot is this call with every channel selected.
  /// Every qubit still makes its preparation, T1 and jitter draws. The clean
  /// trajectory is built only for a selected qubit or one that leaks into
  /// one through crosstalk. An unselected channel's noise is skipped with
  /// xoshiro256::discard_normals, so each selected channel sees the same
  /// draws it would in the full shot; channels past the last selected one
  /// draw nothing, which leaves `rng` short of where a full shot would.
  /// `decay_time_ns` is empty or per qubit; returns the actual initial states.
  std::uint32_t simulate_channels(std::uint32_t permutation, xoshiro256& rng,
                                  std::span<float* const> channel_out,
                                  std::span<double> decay_time_ns = {}) const;

  /// Clean (noise-free, jitter-free, crosstalk-free) expected trajectory of
  /// one qubit for a given initial state and optional decay time — exposes
  /// the physics for tests and envelope analysis.
  void clean_trajectory(std::size_t qubit, bool excited, double decay_time_ns,
                        std::vector<float>& i_out,
                        std::vector<float>& q_out) const;

  /// Sums all qubit channels modulated at their IF frequencies into a single
  /// frequency-multiplexed feedline trace (2N floats) — the input the
  /// synchronous five-qubit baseline digitizes.
  std::vector<float> multiplex_feedline(const shot_result& shot) const;

 private:
  void clean_trajectory(std::size_t qubit, bool excited, double decay_time_ns,
                        float* i_out, float* q_out) const;

  device_params params_;
  std::size_t samples_ = 0;
  /// e^{jωk} per qubit and sample for multiplex_feedline:
  /// carrier_[(q·N + k)·2] = cos ωk, [+1] = sin ωk.
  std::vector<double> carrier_;
};

}  // namespace klinq::qsim
