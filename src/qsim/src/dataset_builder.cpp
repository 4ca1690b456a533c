#include "klinq/qsim/dataset_builder.hpp"

#include <algorithm>

#include "klinq/common/error.hpp"
#include "klinq/common/thread_pool.hpp"

namespace klinq::qsim {

std::uint64_t shot_seed(std::uint64_t seed, std::uint32_t permutation,
                        std::uint64_t shot, bool is_test) {
  // splitmix64-style avalanche over the combined identifiers.
  std::uint64_t x = seed;
  x ^= 0x9E3779B97F4A7C15ull + (static_cast<std::uint64_t>(permutation) << 32) +
       shot * 2 + (is_test ? 1 : 0);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

namespace {

enum class channel_mode { per_qubit, multiplexed };

data::trace_dataset build_split(const readout_simulator& sim,
                                const dataset_spec& spec, std::size_t qubit,
                                std::size_t shots_per_perm, bool is_test,
                                channel_mode mode) {
  const std::size_t n_qubits = sim.params().qubit_count();
  KLINQ_REQUIRE(qubit < n_qubits, "dataset builder: qubit out of range");
  KLINQ_REQUIRE(n_qubits <= 8, "dataset builder: permutation space too large");
  const std::uint32_t n_perms = 1u << n_qubits;
  const std::size_t total = static_cast<std::size_t>(n_perms) * shots_per_perm;

  data::trace_dataset ds(total, sim.samples_per_quadrature());
  ds.resize_traces(total);

  parallel_for_chunked(0, total, [&](std::size_t begin, std::size_t end) {
    // Per-worker row: a per-qubit build simulates only its one channel,
    // straight into it. The feedline needs every channel, so a full shot.
    std::vector<float> row(2 * sim.samples_per_quadrature());
    std::vector<float*> channel_out(n_qubits, nullptr);
    channel_out[qubit] = row.data();
    for (std::size_t index = begin; index < end; ++index) {
      const auto perm = static_cast<std::uint32_t>(index / shots_per_perm);
      const std::uint64_t shot_index = index % shots_per_perm;
      xoshiro256 rng(shot_seed(spec.seed, perm, shot_index, is_test));
      const bool label = ((perm >> qubit) & 1u) != 0;
      if (mode == channel_mode::per_qubit) {
        sim.simulate_channels(perm, rng, channel_out);
        ds.set_trace(index, row, label, static_cast<std::uint8_t>(perm));
      } else {
        const std::vector<float> feedline =
            sim.multiplex_feedline(sim.simulate_shot(perm, rng));
        ds.set_trace(index, feedline, label, static_cast<std::uint8_t>(perm));
      }
    }
  });
  return ds;
}

}  // namespace

qubit_dataset build_qubit_dataset(const dataset_spec& spec,
                                  std::size_t qubit) {
  const readout_simulator sim(spec.device);
  qubit_dataset out;
  out.train = build_split(sim, spec, qubit, spec.shots_per_permutation_train,
                          /*is_test=*/false, channel_mode::per_qubit);
  out.test = build_split(sim, spec, qubit, spec.shots_per_permutation_test,
                         /*is_test=*/true, channel_mode::per_qubit);
  return out;
}

namespace {

data::trace_dataset build_multichannel_split(
    const readout_simulator& sim, const dataset_spec& spec,
    std::size_t label_qubit, const std::vector<std::size_t>& channels,
    std::size_t shots_per_perm, bool is_test) {
  const std::size_t n_qubits = sim.params().qubit_count();
  KLINQ_REQUIRE(label_qubit < n_qubits,
                "multichannel builder: label qubit out of range");
  KLINQ_REQUIRE(!channels.empty(), "multichannel builder: no channels");
  for (const std::size_t c : channels) {
    KLINQ_REQUIRE(c < n_qubits, "multichannel builder: channel out of range");
  }
  const std::uint32_t n_perms = 1u << n_qubits;
  const std::size_t total = static_cast<std::size_t>(n_perms) * shots_per_perm;
  const std::size_t n = sim.samples_per_quadrature();

  // The container models the concatenation as one long [I|Q]-style row of
  // channels.size() × N complex samples.
  data::trace_dataset ds(total, channels.size() * n);
  ds.resize_traces(total);

  parallel_for_chunked(0, total, [&](std::size_t begin, std::size_t end) {
    // Per-worker row; each requested channel is simulated straight into its
    // block, and a channel listed twice is copied from its first block.
    std::vector<float> row(channels.size() * 2 * n);
    std::vector<float*> channel_out(n_qubits, nullptr);
    for (std::size_t c = 0; c < channels.size(); ++c) {
      if (channel_out[channels[c]] == nullptr) {
        channel_out[channels[c]] = row.data() + c * 2 * n;
      }
    }
    for (std::size_t index = begin; index < end; ++index) {
      const auto perm = static_cast<std::uint32_t>(index / shots_per_perm);
      const std::uint64_t shot_index = index % shots_per_perm;
      xoshiro256 rng(shot_seed(spec.seed, perm, shot_index, is_test));
      sim.simulate_channels(perm, rng, channel_out);
      for (std::size_t c = 0; c < channels.size(); ++c) {
        const float* first = channel_out[channels[c]];
        float* block = row.data() + c * 2 * n;
        if (first != block) std::copy(first, first + 2 * n, block);
      }
      const bool label = ((perm >> label_qubit) & 1u) != 0;
      ds.set_trace(index, row, label, static_cast<std::uint8_t>(perm));
    }
  });
  return ds;
}

}  // namespace

qubit_dataset build_multichannel_dataset(
    const dataset_spec& spec, std::size_t label_qubit,
    const std::vector<std::size_t>& channels) {
  const readout_simulator sim(spec.device);
  qubit_dataset out;
  out.train = build_multichannel_split(sim, spec, label_qubit, channels,
                                       spec.shots_per_permutation_train,
                                       /*is_test=*/false);
  out.test = build_multichannel_split(sim, spec, label_qubit, channels,
                                      spec.shots_per_permutation_test,
                                      /*is_test=*/true);
  return out;
}

qubit_dataset build_multiplexed_dataset(const dataset_spec& spec,
                                        std::size_t label_qubit) {
  const readout_simulator sim(spec.device);
  qubit_dataset out;
  out.train =
      build_split(sim, spec, label_qubit, spec.shots_per_permutation_train,
                  /*is_test=*/false, channel_mode::multiplexed);
  out.test =
      build_split(sim, spec, label_qubit, spec.shots_per_permutation_test,
                  /*is_test=*/true, channel_mode::multiplexed);
  return out;
}

}  // namespace klinq::qsim
