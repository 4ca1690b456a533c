#include "klinq/qsim/readout_simulator.hpp"

#include <cmath>

#include "klinq/common/error.hpp"
#include "klinq/data/trace_dataset.hpp"

namespace klinq::qsim {

void device_params::validate() const {
  KLINQ_REQUIRE(!qubits.empty(), "device_params: no qubits");
  KLINQ_REQUIRE(trace_duration_ns > 0, "device_params: bad duration");
  for (const auto& q : qubits) {
    KLINQ_REQUIRE(q.tau_ring_ns > 0, "device_params: tau_ring must be > 0");
    KLINQ_REQUIRE(q.noise_sigma >= 0, "device_params: negative noise");
    KLINQ_REQUIRE(q.t1_ns > 0, "device_params: T1 must be > 0");
    KLINQ_REQUIRE(q.prep_error >= 0 && q.prep_error < 0.5,
                  "device_params: prep_error must be in [0, 0.5)");
  }
  if (!crosstalk.empty()) {
    KLINQ_REQUIRE(crosstalk.rows() == qubits.size() &&
                      crosstalk.cols() == qubits.size(),
                  "device_params: crosstalk matrix shape mismatch");
  }
}

readout_simulator::readout_simulator(device_params params)
    : params_(std::move(params)) {
  params_.validate();
  samples_ = data::samples_for_duration_ns(params_.trace_duration_ns);
  KLINQ_REQUIRE(samples_ > 0, "readout_simulator: zero-sample trace");

  const double dt_us = data::kSamplePeriodNs * 1e-3;
  carrier_.resize(params_.qubit_count() * samples_ * 2);
  for (std::size_t q = 0; q < params_.qubit_count(); ++q) {
    const double omega =
        2.0 * 3.14159265358979323846 * params_.qubits[q].if_freq_mhz * dt_us;
    double* carrier = carrier_.data() + q * samples_ * 2;
    for (std::size_t k = 0; k < samples_; ++k) {
      const double angle = omega * static_cast<double>(k);
      carrier[2 * k] = std::cos(angle);
      carrier[2 * k + 1] = std::sin(angle);
    }
  }
}

namespace {

/// First-order resonator update over one sample period.
/// alpha = 1 − exp(−dt/tau) is precomputed by the caller.
inline void relax_toward(iq_point& state, const iq_point& target,
                         double alpha) noexcept {
  state.i += (target.i - state.i) * alpha;
  state.q += (target.q - state.q) * alpha;
}

}  // namespace

void readout_simulator::clean_trajectory(std::size_t qubit, bool excited,
                                         double decay_time_ns,
                                         std::vector<float>& i_out,
                                         std::vector<float>& q_out) const {
  KLINQ_REQUIRE(qubit < params_.qubit_count(),
                "clean_trajectory: qubit index out of range");
  i_out.resize(samples_);
  q_out.resize(samples_);
  clean_trajectory(qubit, excited, decay_time_ns, i_out.data(), q_out.data());
}

void readout_simulator::clean_trajectory(std::size_t qubit, bool excited,
                                         double decay_time_ns, float* i_out,
                                         float* q_out) const {
  const qubit_params& qp = params_.qubits[qubit];
  const double dt = data::kSamplePeriodNs;
  const double alpha = 1.0 - std::exp(-dt / qp.tau_ring_ns);

  iq_point state{};  // resonator starts empty
  bool is_excited = excited;
  for (std::size_t s = 0; s < samples_; ++s) {
    const double t = static_cast<double>(s) * dt;
    if (is_excited && decay_time_ns >= 0.0 && t >= decay_time_ns) {
      is_excited = false;
    }
    const iq_point& target = is_excited ? qp.excited : qp.ground;
    relax_toward(state, target, alpha);
    i_out[s] = static_cast<float>(state.i);
    q_out[s] = static_cast<float>(state.q);
  }
}

shot_result readout_simulator::simulate_shot(std::uint32_t permutation,
                                             xoshiro256& rng) const {
  const std::size_t n_qubits = params_.qubit_count();
  shot_result shot;
  shot.channels.assign(n_qubits, std::vector<float>(2 * samples_, 0.0f));
  shot.decay_time_ns.assign(n_qubits, -1.0);
  std::vector<float*> channel_out(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    channel_out[q] = shot.channels[q].data();
  }
  shot.actual_initial_states =
      simulate_channels(permutation, rng, channel_out, shot.decay_time_ns);
  return shot;
}

std::uint32_t readout_simulator::simulate_channels(
    std::uint32_t permutation, xoshiro256& rng,
    std::span<float* const> channel_out,
    std::span<double> decay_time_ns) const {
  const std::size_t n_qubits = params_.qubit_count();
  const std::size_t n = samples_;
  KLINQ_REQUIRE(channel_out.size() == n_qubits,
                "simulate_channels: one output slot per qubit expected");
  KLINQ_REQUIRE(decay_time_ns.empty() || decay_time_ns.size() == n_qubits,
                "simulate_channels: decay times must be empty or per qubit");
  const bool has_crosstalk = !params_.crosstalk.empty();

  // A qubit's clean signal is built when its channel is selected or when it
  // leaks into a selected channel; slot[q] is its place in `clean`.
  constexpr std::size_t kUnused = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(n_qubits, kUnused);
  std::size_t used = 0;
  std::size_t channel_end = 0;  // one past the last selected channel
  const auto use = [&](std::size_t q) {
    if (slot[q] == kUnused) slot[q] = used++;
  };
  for (std::size_t q = 0; q < n_qubits; ++q) {
    if (channel_out[q] == nullptr) continue;
    channel_end = q + 1;
    use(q);
    for (std::size_t p = 0; has_crosstalk && p < n_qubits; ++p) {
      if (p != q && params_.crosstalk(q, p) != 0.0) use(p);
    }
  }
  // clean[slot·2N …] holds one qubit's I then Q trajectory.
  std::vector<float> clean(used * 2 * n);

  // Pass 1: clean per-qubit signals (before crosstalk/noise), including
  // preparation errors, T1 decay and per-shot gain/phase jitter. Every qubit
  // makes its draws; only the used ones build a trajectory.
  std::uint32_t actual_states = 0;
  for (std::size_t q = 0; q < n_qubits; ++q) {
    const qubit_params& qp = params_.qubits[q];
    const bool prepared = ((permutation >> q) & 1u) != 0;
    const bool actual = rng.bernoulli(qp.prep_error) ? !prepared : prepared;
    if (actual) actual_states |= (1u << q);

    double decay_ns = -1.0;
    if (actual) {
      const double td = rng.exponential(qp.t1_ns);
      if (td < params_.trace_duration_ns) decay_ns = td;
    }
    if (!decay_time_ns.empty()) decay_time_ns[q] = decay_ns;

    // Per-shot gain/phase jitter rotates and scales the whole trajectory.
    const double gain = 1.0 + rng.normal(0.0, qp.gain_jitter);
    const double phase = rng.normal(0.0, qp.phase_jitter);
    if (slot[q] == kUnused) continue;
    float* clean_i = clean.data() + slot[q] * 2 * n;
    float* clean_q = clean_i + n;
    clean_trajectory(q, actual, decay_ns, clean_i, clean_q);
    const double c = std::cos(phase) * gain;
    const double s = std::sin(phase) * gain;
    for (std::size_t k = 0; k < n; ++k) {
      const double i_val = clean_i[k];
      const double q_val = clean_q[k];
      clean_i[k] = static_cast<float>(c * i_val - s * q_val);
      clean_q[k] = static_cast<float>(s * i_val + c * q_val);
    }
  }

  // Pass 2: crosstalk mixing + additive white noise per channel. Channel q
  // draws 2N normals (I then Q per sample); an unselected one skips them.
  for (std::size_t q = 0; q < channel_end; ++q) {
    float* channel = channel_out[q];
    if (channel == nullptr) {
      rng.discard_normals(2 * n);
      continue;
    }
    const qubit_params& qp = params_.qubits[q];
    const float* clean_i = clean.data() + slot[q] * 2 * n;
    const float* clean_q = clean_i + n;
    for (std::size_t k = 0; k < n; ++k) {
      double i_val = clean_i[k];
      double q_val = clean_q[k];
      if (has_crosstalk) {
        for (std::size_t p = 0; p < n_qubits; ++p) {
          if (p == q) continue;
          const double coupling = params_.crosstalk(q, p);
          if (coupling == 0.0) continue;
          const float* leak = clean.data() + slot[p] * 2 * n;
          i_val += coupling * leak[k];
          q_val += coupling * leak[n + k];
        }
      }
      channel[k] = static_cast<float>(i_val + rng.normal(0.0, qp.noise_sigma));
      channel[n + k] =
          static_cast<float>(q_val + rng.normal(0.0, qp.noise_sigma));
    }
  }
  return actual_states;
}

std::vector<float> readout_simulator::multiplex_feedline(
    const shot_result& shot) const {
  KLINQ_REQUIRE(shot.channels.size() == params_.qubit_count(),
                "multiplex_feedline: shot does not match device");
  const std::size_t n = samples_;
  std::vector<float> feedline(2 * n, 0.0f);
  for (std::size_t q = 0; q < params_.qubit_count(); ++q) {
    const double* carrier = carrier_.data() + q * n * 2;
    const auto& channel = shot.channels[q];
    for (std::size_t k = 0; k < n; ++k) {
      const double c = carrier[2 * k];
      const double s = carrier[2 * k + 1];
      // Complex up-conversion: (I + jQ) · e^{jωk}.
      feedline[k] += static_cast<float>(c * channel[k] - s * channel[n + k]);
      feedline[n + k] +=
          static_cast<float>(s * channel[k] + c * channel[n + k]);
    }
  }
  return feedline;
}

}  // namespace klinq::qsim
