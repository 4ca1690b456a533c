// One versioned, immutable per-qubit model snapshot: the deployable unit
// the registry stores, hot-swaps and persists.
//
// A snapshot bundles the distilled float student with its quantized Q16.16
// hardware twin (rebuilt deterministically from the student, exactly like
// core::qubit_discriminator) plus calibration metadata describing where the
// model came from. Snapshots are immutable once published — the serving hot
// path reads their engine pointers concurrently with zero synchronization,
// and the registry's RCU reclamation relies on nobody mutating a live one.
//
// On-disk format (little-endian):
//   magic "KLNQSNP1" | u64 format version |
//   metadata: u64 model version | string source | f64 created_unix_seconds |
//             u64 calibration_shots | f64 train_accuracy |
//   u64 quantized parameter hash | student payload (kd::student_model::save:
//   feature pipeline + nn::serialize network)
// The parameter hash is recomputed after requantizing the loaded student and
// must match — a file whose quantization no longer reproduces the recorded
// registers is rejected (io_error) instead of silently serving different
// decisions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "klinq/fixed/fixed.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/serve/request.hpp"

namespace klinq::registry {

/// Where a snapshot's model came from and how good it looked at build time.
struct calibration_info {
  /// Registry-assigned at publish (0 = not yet published).
  std::uint64_t version = 0;
  /// Free-form provenance tag; the library uses "initial" (built from a
  /// trained system). A snapshot read back from disk keeps the tag it was
  /// saved with.
  std::string source = "initial";
  /// Wall-clock build time (seconds since the Unix epoch; 0 = unknown).
  double created_unix_seconds = 0.0;
  /// Labeled shots the model was calibrated/retrained on.
  std::uint64_t calibration_shots = 0;
  /// Student assignment accuracy on the calibration set at build time.
  double train_accuracy = 0.0;
};

/// Seconds since the Unix epoch, for stamping calibration_info.
double unix_now();

class model_snapshot {
 public:
  model_snapshot() = default;

  /// Wraps a distilled student and quantizes its Q16.16 hardware twin.
  explicit model_snapshot(kd::student_model student,
                          calibration_info info = {});

  const kd::student_model& student() const noexcept { return student_; }
  const hw::fixed_discriminator<fx::q16_16>& hardware() const noexcept {
    return hardware_;
  }
  const calibration_info& info() const noexcept { return info_; }

  /// Serving handles into this snapshot — valid only while the snapshot
  /// object stays alive and at this address (the registry hands snapshots
  /// out as shared_ptr for exactly that reason).
  serve::qubit_engine engines() const noexcept {
    return {&student_, &hardware_};
  }

  /// Integrity fingerprint of the quantized network (see quantized_network
  /// ::parameter_hash).
  std::uint64_t quantized_hash() const noexcept {
    return hardware_.net().parameter_hash();
  }

  void save(std::ostream& out) const;
  static model_snapshot load(std::istream& in);

 private:
  friend class model_registry;  // stamps info_.version at publish

  kd::student_model student_;
  hw::fixed_discriminator<fx::q16_16> hardware_;
  calibration_info info_;
};

}  // namespace klinq::registry
