#include "klinq/core/system.hpp"

#include <filesystem>
#include <fstream>
#include <optional>

#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"
#include "klinq/core/workflow.hpp"

namespace klinq::core {

klinq_system klinq_system::train(const system_config& config) {
  artifact_cache cache = config.cache_dir == "env"
                             ? artifact_cache::from_environment()
                             : artifact_cache(config.cache_dir);
  klinq_system system;
  const std::size_t n_qubits = config.dataset.device.qubit_count();
  system.discriminators_.reserve(n_qubits);
  for (std::size_t q = 0; q < n_qubits; ++q) {
    log_info("=== qubit ", q + 1, "/", n_qubits, " ===");
    const qsim::qubit_dataset data =
        qsim::build_qubit_dataset(config.dataset, q);
    const kd::teacher_model teacher =
        obtain_teacher(config.dataset, q, data.train, config.teacher, cache);
    const std::vector<float> logits = teacher.logits_for(data.train);
    kd::student_model student = distill_for_duration(
        data.train, logits, q, data.train.duration_ns(), config.student_seed,
        config.use_distillation);
    system.discriminators_.emplace_back(std::move(student));
  }
  return system;
}

const qubit_discriminator& klinq_system::discriminator(
    std::size_t qubit) const {
  KLINQ_REQUIRE(qubit < discriminators_.size(),
                "klinq_system: qubit index out of range");
  return discriminators_[qubit];
}

bool klinq_system::measure(std::size_t qubit, std::span<const float> trace,
                           std::size_t samples_per_quadrature) const {
  return discriminator(qubit).measure(trace, samples_per_quadrature);
}

bool klinq_system::measure(
    std::size_t qubit, std::span<const float> trace,
    std::size_t samples_per_quadrature,
    qubit_discriminator::measurement_scratch& scratch) const {
  return discriminator(qubit).measure(trace, samples_per_quadrature, scratch);
}

std::vector<serve::qubit_engine> klinq_system::serve_engines() const {
  std::vector<serve::qubit_engine> engines;
  engines.reserve(discriminators_.size());
  for (const qubit_discriminator& disc : discriminators_) {
    engines.push_back({&disc.student(), &disc.hardware()});
  }
  return engines;
}

std::vector<std::vector<std::uint8_t>> klinq_system::measure_batch(
    std::span<const data::trace_dataset* const> per_qubit_traces,
    serve::engine_kind engine) const {
  KLINQ_REQUIRE(per_qubit_traces.size() == qubit_count(),
                "klinq_system::measure_batch: one trace block per qubit "
                "required (null to skip a qubit)");
  if (qubit_count() == 0) return {};
  // All submits happen before the first wait, so the backpressure window
  // must admit one open ticket per qubit or the submit loop self-deadlocks.
  serve::readout_server server(serve_engines(),
                               {.max_inflight = qubit_count()});
  std::vector<std::optional<serve::ticket>> tickets(qubit_count());
  for (std::size_t q = 0; q < qubit_count(); ++q) {
    if (per_qubit_traces[q] == nullptr) continue;
    tickets[q] = server.submit({q, per_qubit_traces[q], engine});
  }
  std::vector<std::vector<std::uint8_t>> decisions(qubit_count());
  for (std::size_t q = 0; q < qubit_count(); ++q) {
    if (!tickets[q].has_value()) continue;
    decisions[q] = std::move(server.wait(*tickets[q]).states);
  }
  return decisions;
}

fidelity_report klinq_system::evaluate(const qsim::dataset_spec& spec,
                                       const std::string& label) const {
  KLINQ_REQUIRE(spec.device.qubit_count() == qubit_count(),
                "klinq_system::evaluate: device/system qubit count mismatch");
  fidelity_report report;
  report.label = label;
  for (std::size_t q = 0; q < qubit_count(); ++q) {
    const qsim::qubit_dataset data = qsim::build_qubit_dataset(spec, q);
    report.per_qubit.push_back(discriminators_[q].fixed_accuracy(data.test));
  }
  return report;
}

void klinq_system::save_directory(const std::string& directory) const {
  std::filesystem::create_directories(directory);
  for (std::size_t q = 0; q < discriminators_.size(); ++q) {
    const std::string path =
        directory + "/qubit" + std::to_string(q) + ".klinq";
    std::ofstream out(path, std::ios::binary);
    if (!out) throw io_error("cannot write " + path);
    discriminators_[q].save(out);
  }
}

klinq_system klinq_system::load_directory(const std::string& directory,
                                          std::size_t qubit_count) {
  klinq_system system;
  system.discriminators_.reserve(qubit_count);
  for (std::size_t q = 0; q < qubit_count; ++q) {
    const std::string path =
        directory + "/qubit" + std::to_string(q) + ".klinq";
    std::ifstream in(path, std::ios::binary);
    if (!in) throw io_error("cannot read " + path);
    system.discriminators_.push_back(qubit_discriminator::load(in));
  }
  return system;
}

}  // namespace klinq::core
