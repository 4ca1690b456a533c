#include "klinq/core/workflow.hpp"

#include <sstream>

#include "klinq/common/log.hpp"

namespace klinq::core {

std::string teacher_cache_key(const qsim::dataset_spec& spec,
                              std::size_t qubit,
                              const kd::teacher_config& config) {
  std::ostringstream canonical;
  // Round-trip precision: any change to a float or double field shows.
  canonical.precision(17);
  canonical << "v2|seed=" << spec.seed
            << "|train=" << spec.shots_per_permutation_train
            << "|dur=" << spec.device.trace_duration_ns << "|qubit=" << qubit
            << "|epochs=" << config.epochs << "|batch=" << config.batch_size
            << "|lr=" << config.learning_rate << "|wd=" << config.weight_decay
            << "|aug=" << config.augment_noise_sigma
            << "|lrdecay=" << config.lr_decay << "|tseed=" << config.seed
            << "|hidden=";
  for (const auto h : config.hidden) canonical << h << ",";
  canonical << "|device=";
  for (const auto& q : spec.device.qubits) {
    canonical << q.ground.i << "," << q.ground.q << "," << q.excited.i << ","
              << q.excited.q << "," << q.tau_ring_ns << "," << q.noise_sigma
              << "," << q.t1_ns << "," << q.prep_error << "," << q.gain_jitter
              << "," << q.phase_jitter << ";";
  }
  canonical << "|xtalk=";
  for (const auto v : spec.device.crosstalk.flat()) canonical << v << ",";
  return artifact_cache::hash_key(canonical.str());
}

kd::teacher_model obtain_teacher(const qsim::dataset_spec& spec,
                                 std::size_t qubit,
                                 const data::trace_dataset& train,
                                 const kd::teacher_config& config,
                                 artifact_cache& cache) {
  const std::string key = teacher_cache_key(spec, qubit, config);
  if (auto cached = cache.load_teacher(key)) {
    return std::move(*cached);
  }
  log_info("training teacher for qubit ", qubit + 1, " (cache key ", key,
           ")");
  kd::teacher_model model = kd::train_teacher(train, config);
  cache.store_teacher(key, model);
  return model;
}

kd::student_model distill_for_duration(const data::trace_dataset& full_train,
                                       std::span<const float> teacher_logits,
                                       std::size_t qubit, double duration_ns,
                                       std::uint64_t seed,
                                       bool use_distillation) {
  const student_arch arch = arch_for_qubit(qubit);
  kd::student_config config = student_config_for(arch, seed);

  const bool full_length =
      duration_ns >= full_train.duration_ns() - 1e-9;
  const data::trace_dataset sliced =
      full_length ? data::trace_dataset{} // unused
                  : full_train.sliced_to_duration_ns(duration_ns);
  const data::trace_dataset& train = full_length ? full_train : sliced;

  const std::span<const float> logits =
      use_distillation ? teacher_logits : std::span<const float>{};
  return kd::distill_student(train, logits, config);
}

}  // namespace klinq::core
