// Versioned per-qubit model registry with atomic RCU-style hot-swap.
//
// The registry converts the readout server from a static inference
// appliance into an operable fleet component: every qubit holds a bounded
// history of published model snapshots, one of which is *active*. Serving
// traffic acquires the active snapshot through the serve::engine_provider
// interface — one atomic shared_ptr load per request, no reader locks —
// and pins it for the request's lifetime, so:
//
//   * publish/activate/rollback happen while traffic flows: in-flight
//     requests finish on the snapshot they started with, new submits pick
//     up the new version (RCU — the lease's shared_ptr is the grace
//     period);
//   * a retired version's memory is reclaimed when the last lease drops it;
//   * the shot hot path never touches the registry at all (acquisition is
//     per request, and the leased engine pointers are plain const reads).
//
// Lifecycle operations:
//   publish   — append a new version; becomes active unless the qubit is
//               pinned (a pinned qubit keeps serving its pinned version,
//               new publishes wait in the history for an explicit swap).
//   activate  — swap the active version to any retained one.
//   rollback  — activate the newest retained version older than the active
//               one (the one-step undo after a bad publish).
//   pin/unpin — freeze the served version against auto-activation.
//
// Retention: at most `keep_versions` snapshots per qubit; the oldest
// non-active versions are retired first. Retired versions disappear from
// list()/at() but stay alive for any in-flight lease.
//
// Persistence: save_directory writes one "qubit<q>_v<version>.snap" file
// per retained snapshot (data::versioned_snapshot_filename) plus a
// "registry.manifest" recording active/pinned state. Saves are crash-safe:
// every file is written to a temporary sibling, fsynced and atomically
// renamed into place, with the manifest rename as the commit point — a
// crash at any instant leaves either the previous save or the new one on
// disk, never a torn mix. load_directory is correspondingly tolerant: a
// corrupt, truncated or hash-mismatched snapshot is quarantined (renamed to
// "*.bad") instead of failing the open, and a qubit whose recorded active
// version cannot be verified falls back to its newest verifiable version
// (foreign files in the directory are ignored as before).
//
// Self-healing: the serving layer reports repeated shard failures through
// engine_provider::demote(); the registry responds by rolling the qubit
// back to the newest older retained version and marking it degraded() until
// an explicit lifecycle action (publish/activate/rollback/pin) restores
// confidence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "klinq/obs/metrics.hpp"
#include "klinq/registry/snapshot.hpp"
#include "klinq/serve/engine_provider.hpp"

namespace klinq::registry {

using snapshot_ptr = std::shared_ptr<const model_snapshot>;

struct registry_config {
  /// Retained versions per qubit (≥ 1). The active version is never
  /// retired, even when it is the oldest.
  std::size_t keep_versions = 4;
  /// Metrics backend (borrowed; must outlive the registry). The registry
  /// keeps its lifecycle counts as labeled families
  /// (klinq_registry_publishes_total{qubit}, ..._activations_total,
  /// ..._rollbacks_total, ..._demotions_total, ..._acquires_total,
  /// ..._quarantined_total) and publishes per-qubit
  /// klinq_registry_active_version / klinq_registry_degraded gauges,
  /// refreshed at snapshot time through a collector. Null — the default —
  /// gives the registry a private backend; stats() reads the same cells
  /// either way.
  obs::metric_registry* metrics = nullptr;
};

/// One row of list(): a retained version's metadata plus its role.
struct version_record {
  std::uint64_t version = 0;
  bool active = false;
  bool pinned = false;
  calibration_info info;
};

struct registry_stats {
  std::uint64_t published = 0;
  /// Active-version changes from any source (publish auto-activation,
  /// explicit activate, rollback, pin, demote).
  std::uint64_t activations = 0;
  /// Rollbacks from any source (explicit rollback() plus demote()).
  std::uint64_t rollbacks = 0;
  /// Leases handed to the serving layer.
  std::uint64_t acquires = 0;
  /// Serve-reported health demotions that actually switched a version.
  std::uint64_t demotions = 0;
  /// Snapshot files load_directory renamed to "*.bad" because they were
  /// corrupt, truncated or failed hash verification.
  std::uint64_t quarantined = 0;
};

class model_registry final : public serve::engine_provider {
 public:
  explicit model_registry(std::size_t qubit_count,
                          registry_config config = {});

  /// Unbinds the gauge collector from the metrics backend.
  ~model_registry() override;

  model_registry(const model_registry&) = delete;
  model_registry& operator=(const model_registry&) = delete;

  // --- serve::engine_provider ---------------------------------------------
  std::size_t qubit_count() const noexcept override { return slots_.size(); }
  /// Lease on the active snapshot: one atomic load, no locks. Throws
  /// invalid_argument_error when the qubit has no published version yet.
  serve::engine_lease acquire(std::size_t qubit) const override;
  /// Health feedback from the serving layer: rolls the qubit back to the
  /// newest retained version older than `version` and marks it degraded.
  /// No-op (returns false) when `version` is no longer the active one —
  /// another thread or an admin already moved the qubit on. When nothing
  /// older is retained the qubit keeps serving but is still flagged
  /// degraded.
  bool demote(std::size_t qubit, std::uint64_t version) const noexcept override;

  // --- lifecycle ----------------------------------------------------------
  /// Appends `snapshot` as the qubit's next version (stamping
  /// info().version) and returns that version. Activates it immediately
  /// unless the qubit is pinned.
  std::uint64_t publish(std::size_t qubit, model_snapshot snapshot);

  /// The active snapshot (null when none is published yet) / its version.
  snapshot_ptr active(std::size_t qubit) const;
  std::uint64_t active_version(std::size_t qubit) const;

  /// A retained version's snapshot; throws when unknown or retired.
  snapshot_ptr at(std::size_t qubit, std::uint64_t version) const;

  /// Swaps the active version (throws when unknown or retired). Does not
  /// change the pinned flag: activating a pinned qubit re-pins to the new
  /// version (an explicit admin swap outranks the freeze).
  void activate(std::size_t qubit, std::uint64_t version);

  /// Activates the newest retained version older than the active one and
  /// returns it; throws when there is none.
  std::uint64_t rollback(std::size_t qubit);

  /// Freezes serving on `version` (activates it first): publishes still
  /// append to the history but no longer auto-activate.
  void pin(std::size_t qubit, std::uint64_t version);
  void unpin(std::size_t qubit);
  bool pinned(std::size_t qubit) const;

  /// True after demote() flagged the qubit; cleared by any explicit
  /// lifecycle action (publish/activate/rollback/pin).
  bool degraded(std::size_t qubit) const;

  /// Retained versions, oldest first.
  std::vector<version_record> list(std::size_t qubit) const;

  registry_stats stats() const;

  // --- persistence --------------------------------------------------------
  void save_directory(const std::string& directory) const;
  /// `base` seeds the loaded registry's configuration (notably
  /// base.metrics); the manifest's recorded keep_versions wins over
  /// base.keep_versions.
  static std::unique_ptr<model_registry> load_directory(
      const std::string& directory, registry_config base = {});

 private:
  struct qubit_slot {
    /// Guards everything below except `active`, which writers store and
    /// acquire() loads atomically.
    mutable std::mutex mutex;
    std::vector<std::pair<std::uint64_t, snapshot_ptr>> versions;  // ascending
    snapshot_ptr active;
    std::uint64_t next_version = 1;
    bool pinned = false;
    /// Set by demote(); cleared by explicit lifecycle actions.
    bool degraded = false;
  };

  /// Pre-resolved per-qubit cells in metrics_: the only copy of each count.
  struct metric_cells {
    obs::counter* publishes = nullptr;
    obs::counter* activations = nullptr;
    obs::counter* rollbacks = nullptr;
    obs::counter* demotions = nullptr;
    obs::gauge* active_version = nullptr;
    obs::gauge* degraded = nullptr;
  };

  qubit_slot& slot_checked(std::size_t qubit);
  const qubit_slot& slot_checked(std::size_t qubit) const;
  /// Requires slot.mutex held. `qubit` indexes the metric cells (slots do
  /// not know their own position).
  void activate_locked(qubit_slot& slot, std::size_t qubit,
                       std::uint64_t version);
  void retire_locked(qubit_slot& slot);

  void init_metrics();

  registry_config config_;
  /// unique_ptr keeps slot addresses stable (mutexes are not movable).
  std::vector<std::unique_ptr<qubit_slot>> slots_;

  std::unique_ptr<obs::metric_registry> owned_metrics_;
  obs::metric_registry* metrics_ = nullptr;  // owned_metrics_ or config's
  std::vector<metric_cells> cells_;
  obs::counter* acquires_cell_ = nullptr;
  obs::counter* quarantined_cell_ = nullptr;
  /// Collector refreshing the active-version / degraded gauges at snapshot
  /// time.
  std::uint64_t collector_id_ = 0;
};

}  // namespace klinq::registry
