// KLiNQ system facade: one compact discriminator per qubit, independently
// trained and independently measurable — the property that enables
// mid-circuit measurement (paper §I contribution 2).
#pragma once

#include <span>
#include <string>
#include <vector>

#include <memory>

#include "klinq/core/fidelity.hpp"
#include "klinq/core/qubit_discriminator.hpp"
#include "klinq/kd/teacher.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/serve/readout_server.hpp"

namespace klinq::core {

struct system_config {
  /// Device, shot counts and generation seed.
  qsim::dataset_spec dataset;
  kd::teacher_config teacher{};
  std::uint64_t student_seed = 7;
  /// false ⇒ hard-label-only students (ablation).
  bool use_distillation = true;
  /// Teacher cache directory ("" disables; default honours KLINQ_CACHE_DIR).
  std::string cache_dir = "env";
};

class klinq_system {
 public:
  /// Trains one student per qubit: generate data → (cached) teacher →
  /// distill → quantize to Q16.16.
  static klinq_system train(const system_config& config);

  std::size_t qubit_count() const noexcept { return discriminators_.size(); }

  const qubit_discriminator& discriminator(std::size_t qubit) const;

  /// Independent (mid-circuit capable) hardware-path measurement of one
  /// qubit from its channel trace.
  bool measure(std::size_t qubit, std::span<const float> trace,
               std::size_t samples_per_quadrature) const;

  /// Allocation-free variant for repeated-measurement loops; `scratch` is
  /// reusable across qubits and shots.
  bool measure(std::size_t qubit, std::span<const float> trace,
               std::size_t samples_per_quadrature,
               qubit_discriminator::measurement_scratch& scratch) const;

  /// Non-owning serving handles for every qubit's deployed models, in qubit
  /// order — the constructor argument of serve::readout_server. The system
  /// must outlive any server built on them.
  std::vector<serve::qubit_engine> serve_engines() const;

  /// Builds a versioned model registry seeded with a copy of every qubit's
  /// current student as version 1 ("initial"). The registry owns its
  /// snapshots, so it may outlive this system; build a hot-swappable server
  /// with serve::readout_server(*registry) and publish retrained versions
  /// while it runs.
  std::unique_ptr<registry::model_registry> make_registry(
      registry::registry_config config = {}) const;

  /// Sharded multi-qubit measurement: one trace block per qubit (null to
  /// skip a qubit), evaluated concurrently through a serve::readout_server
  /// on the global pool. decisions[q][r] is qubit q's hard decision for
  /// trace r (1 = state |1⟩); bit-identical to the serial per-qubit
  /// measure_batch. Long-lived streaming callers should hold their own
  /// readout_server (built on serve_engines()) instead of paying this
  /// convenience wrapper's per-call server setup.
  std::vector<std::vector<std::uint8_t>> measure_batch(
      std::span<const data::trace_dataset* const> per_qubit_traces,
      serve::engine_kind engine = serve::engine_kind::fixed_q16) const;

  /// Regenerates each qubit's test split and scores the fixed-point path.
  fidelity_report evaluate(const qsim::dataset_spec& spec,
                           const std::string& label = "KLiNQ") const;

  /// Persists one student file per qubit under `directory`.
  void save_directory(const std::string& directory) const;
  static klinq_system load_directory(const std::string& directory,
                                     std::size_t qubit_count);

 private:
  std::vector<qubit_discriminator> discriminators_;
};

}  // namespace klinq::core
