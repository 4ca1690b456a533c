// Deterministic dataset generation over all state permutations.
//
// Mirrors the paper's data protocol: for an N-qubit device, every one of the
// 2^N basis-state permutations is measured `shots_per_permutation` times;
// per-qubit datasets label each shot with that qubit's *prepared* bit.
//
// Shots are seeded by hash(seed, permutation, shot, split), so
//   * train and test sets never share a shot,
//   * the same physical shots are replayed when extracting different qubits'
//     channels (exactly like reusing one recorded dataset), and
//   * generation is reproducible and parallelizable.
//
// A per-qubit build simulates only the requested channel
// (readout_simulator::simulate_channels): the other channels' noise is
// skipped with xoshiro256::discard_normals instead of computed. The shot is
// still the same one, bit for bit: its seed does not depend on the qubit,
// and a channel's noise depends only on how many draws came before it,
// which skipping leaves unchanged. Each worker writes into its own row
// buffer instead of building a full shot_result per shot.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "klinq/data/trace_dataset.hpp"
#include "klinq/qsim/readout_simulator.hpp"

namespace klinq::qsim {

struct dataset_spec {
  device_params device;
  /// Shots per permutation in the train split (paper: 15 000).
  std::size_t shots_per_permutation_train = 200;
  /// Shots per permutation in the test split (paper: 35 000).
  std::size_t shots_per_permutation_test = 500;
  std::uint64_t seed = 42;
};

struct qubit_dataset {
  data::trace_dataset train;
  data::trace_dataset test;
};

/// Builds train/test datasets for one qubit's channel. Thread-parallel.
qubit_dataset build_qubit_dataset(const dataset_spec& spec, std::size_t qubit);

/// Builds the frequency-multiplexed feedline dataset (synchronous mode).
/// Labels carry the full permutation in `permutations()`; the per-trace
/// binary label is the given qubit's bit (so the same container type works).
qubit_dataset build_multiplexed_dataset(const dataset_spec& spec,
                                        std::size_t label_qubit);

/// Builds a dataset whose rows concatenate several qubits' channel traces
/// [ch₀ I|Q  ch₁ I|Q  …] for the same physical shots, labelled with
/// `label_qubit`'s prepared bit. Substrate for the paper's §VI future-work
/// direction: a crosstalk-aware teacher that sees neighbouring channels
/// (the student still reads only its own channel). The row order matches
/// build_qubit_dataset for the same spec, so teacher logits align 1:1 with
/// single-channel training rows.
qubit_dataset build_multichannel_dataset(const dataset_spec& spec,
                                         std::size_t label_qubit,
                                         const std::vector<std::size_t>& channels);

/// Stable 64-bit shot seed (exposed for tests of determinism).
std::uint64_t shot_seed(std::uint64_t seed, std::uint32_t permutation,
                        std::uint64_t shot, bool is_test);

}  // namespace klinq::qsim
