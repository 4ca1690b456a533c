#include "klinq/registry/model_registry.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"
#include "klinq/data/dataset_io.hpp"
#include "klinq/fault/fault.hpp"

namespace klinq::registry {

namespace {

// The active pointer is published with the shared_ptr atomic free functions:
// writers (publish/activate/rollback, rare) store under the slot mutex,
// acquire() loads with no lock at all — the RCU pattern the serving layer's
// per-request leases rely on.
snapshot_ptr atomic_active_load(const snapshot_ptr& active) {
  return std::atomic_load_explicit(&active, std::memory_order_acquire);
}

void atomic_active_store(snapshot_ptr& active, snapshot_ptr value) {
  std::atomic_store_explicit(&active, std::move(value),
                             std::memory_order_release);
}

constexpr char kManifestName[] = "registry.manifest";
constexpr std::uint64_t kManifestFormat = 1;

}  // namespace

model_registry::model_registry(std::size_t qubit_count,
                               registry_config config)
    : config_(config) {
  KLINQ_REQUIRE(qubit_count > 0, "model_registry: no qubits");
  KLINQ_REQUIRE(config_.keep_versions > 0,
                "model_registry: keep_versions must be positive");
  slots_.reserve(qubit_count);
  for (std::size_t q = 0; q < qubit_count; ++q) {
    slots_.push_back(std::make_unique<qubit_slot>());
  }
  init_metrics();
}

model_registry::~model_registry() {
  metrics_->remove_collector(collector_id_);
}

void model_registry::init_metrics() {
  if (config_.metrics != nullptr) {
    metrics_ = config_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::metric_registry>();
    metrics_ = owned_metrics_.get();
  }
  obs::metric_registry& metrics = *metrics_;
  acquires_cell_ =
      &metrics.get_counter("klinq_registry_acquires_total", {},
                           "Engine leases handed to the serving layer.");
  quarantined_cell_ = &metrics.get_counter(
      "klinq_registry_quarantined_total", {},
      "Snapshot files load_directory quarantined (renamed to *.bad) because "
      "they were corrupt, truncated or failed hash verification.");
  cells_.resize(slots_.size());
  for (std::size_t q = 0; q < slots_.size(); ++q) {
    const obs::label_list labels{{"qubit", std::to_string(q)}};
    metric_cells& cells = cells_[q];
    cells.publishes =
        &metrics.get_counter("klinq_registry_publishes_total", labels,
                             "Model versions published.");
    cells.activations = &metrics.get_counter(
        "klinq_registry_activations_total", labels,
        "Active-version changes from any source (publish auto-activation, "
        "explicit activate, rollback, pin, demote).");
    cells.rollbacks = &metrics.get_counter(
        "klinq_registry_rollbacks_total", labels,
        "Rollbacks from any source (explicit rollback() plus demote()).");
    cells.demotions = &metrics.get_counter(
        "klinq_registry_demotions_total", labels,
        "Serve-reported health demotions that switched the active version.");
    cells.active_version = &metrics.get_gauge(
        "klinq_registry_active_version", labels,
        "Currently active model version (0 = nothing published).");
    cells.degraded = &metrics.get_gauge(
        "klinq_registry_degraded", labels,
        "1 while the qubit serves under a health-demotion flag.");
  }
  collector_id_ = metrics.add_collector([this] {
    for (std::size_t q = 0; q < slots_.size(); ++q) {
      cells_[q].active_version->set(static_cast<double>(active_version(q)));
      cells_[q].degraded->set(degraded(q) ? 1.0 : 0.0);
    }
  });
}

model_registry::qubit_slot& model_registry::slot_checked(std::size_t qubit) {
  KLINQ_REQUIRE(qubit < slots_.size(),
                "model_registry: qubit index out of range");
  return *slots_[qubit];
}

const model_registry::qubit_slot& model_registry::slot_checked(
    std::size_t qubit) const {
  KLINQ_REQUIRE(qubit < slots_.size(),
                "model_registry: qubit index out of range");
  return *slots_[qubit];
}

serve::engine_lease model_registry::acquire(std::size_t qubit) const {
  const qubit_slot& slot = slot_checked(qubit);
  fault::trigger("registry.acquire");
  snapshot_ptr snapshot = atomic_active_load(slot.active);
  KLINQ_REQUIRE(snapshot != nullptr,
                "model_registry: qubit has no published model");
  acquires_cell_->inc();
  return {snapshot->engines(), snapshot->info().version, std::move(snapshot)};
}

std::uint64_t model_registry::publish(std::size_t qubit,
                                      model_snapshot snapshot) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  const std::uint64_t version = slot.next_version++;
  snapshot.info_.version = version;
  auto ptr = std::make_shared<const model_snapshot>(std::move(snapshot));
  slot.versions.emplace_back(version, std::move(ptr));
  cells_[qubit].publishes->inc();
  if (!slot.pinned) activate_locked(slot, qubit, version);
  retire_locked(slot);
  slot.degraded = false;  // fresh model: confidence restored
  return version;
}

void model_registry::activate_locked(qubit_slot& slot, std::size_t qubit,
                                     std::uint64_t version) {
  const auto it = std::find_if(
      slot.versions.begin(), slot.versions.end(),
      [version](const auto& entry) { return entry.first == version; });
  KLINQ_REQUIRE(it != slot.versions.end(),
                "model_registry: version unknown or retired");
  atomic_active_store(slot.active, it->second);
  cells_[qubit].activations->inc();
}

void model_registry::retire_locked(qubit_slot& slot) {
  const snapshot_ptr active = atomic_active_load(slot.active);
  const std::uint64_t active_version =
      active != nullptr ? active->info().version : 0;
  while (slot.versions.size() > config_.keep_versions) {
    // Oldest non-active first; the active version survives retention even
    // when it is the oldest (rollback targets shrink before service does).
    const auto it = std::find_if(
        slot.versions.begin(), slot.versions.end(),
        [active_version](const auto& entry) {
          return entry.first != active_version;
        });
    if (it == slot.versions.end()) break;
    slot.versions.erase(it);
  }
}

snapshot_ptr model_registry::active(std::size_t qubit) const {
  return atomic_active_load(slot_checked(qubit).active);
}

std::uint64_t model_registry::active_version(std::size_t qubit) const {
  const snapshot_ptr snapshot = active(qubit);
  return snapshot != nullptr ? snapshot->info().version : 0;
}

snapshot_ptr model_registry::at(std::size_t qubit,
                                std::uint64_t version) const {
  const qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  const auto it = std::find_if(
      slot.versions.begin(), slot.versions.end(),
      [version](const auto& entry) { return entry.first == version; });
  KLINQ_REQUIRE(it != slot.versions.end(),
                "model_registry: version unknown or retired");
  return it->second;
}

void model_registry::activate(std::size_t qubit, std::uint64_t version) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  activate_locked(slot, qubit, version);
  retire_locked(slot);
  slot.degraded = false;
}

std::uint64_t model_registry::rollback(std::size_t qubit) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  const snapshot_ptr current = atomic_active_load(slot.active);
  KLINQ_REQUIRE(current != nullptr,
                "model_registry: qubit has no published model");
  const std::uint64_t active_version = current->info().version;
  std::uint64_t target = 0;
  for (const auto& [version, snapshot] : slot.versions) {
    if (version < active_version && version > target) target = version;
  }
  KLINQ_REQUIRE(target != 0,
                "model_registry: no retained version older than the active "
                "one to roll back to");
  activate_locked(slot, qubit, target);
  cells_[qubit].rollbacks->inc();
  slot.degraded = false;
  return target;
}

bool model_registry::demote(std::size_t qubit,
                            std::uint64_t version) const noexcept {
  if (qubit >= slots_.size() || version == 0) return false;
  try {
    // unique_ptr does not propagate constness to the pointee, so the slot is
    // mutable here, and the counter cells are reached through pointers for
    // the same reason. demote() is const only because engine_provider hands
    // the serving layer a const view — the state change itself is
    // sanctioned.
    qubit_slot& slot = *slots_[qubit];
    const std::lock_guard lock(slot.mutex);
    const snapshot_ptr current = atomic_active_load(slot.active);
    if (current == nullptr || current->info().version != version) {
      return false;  // already moved on (another thread or an admin swap)
    }
    std::uint64_t target = 0;
    for (const auto& [retained, snapshot] : slot.versions) {
      if (retained < version && retained > target) target = retained;
    }
    if (target == 0) {
      // Nothing older retained: keep serving the only model we have, but
      // leave the health flag up so operators see the qubit is unwell.
      slot.degraded = true;
      log_warn("model_registry: qubit ", qubit, " v", version,
               " reported failing but no older version is retained");
      return false;
    }
    const auto it = std::find_if(
        slot.versions.begin(), slot.versions.end(),
        [target](const auto& entry) { return entry.first == target; });
    atomic_active_store(slot.active, it->second);
    slot.degraded = true;
    const metric_cells& cells = cells_[qubit];
    cells.activations->inc();
    cells.rollbacks->inc();
    cells.demotions->inc();
    log_warn("model_registry: demoted qubit ", qubit, " v", version, " -> v",
             target, " after serve-reported failures; qubit marked degraded");
    return true;
  } catch (...) {
    return false;  // health feedback must never take down the failure path
  }
}

void model_registry::pin(std::size_t qubit, std::uint64_t version) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  activate_locked(slot, qubit, version);
  slot.pinned = true;
  slot.degraded = false;
}

void model_registry::unpin(std::size_t qubit) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  slot.pinned = false;
}

bool model_registry::pinned(std::size_t qubit) const {
  const qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  return slot.pinned;
}

bool model_registry::degraded(std::size_t qubit) const {
  const qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  return slot.degraded;
}

std::vector<version_record> model_registry::list(std::size_t qubit) const {
  const qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  const snapshot_ptr active = atomic_active_load(slot.active);
  const std::uint64_t active_version =
      active != nullptr ? active->info().version : 0;
  std::vector<version_record> records;
  records.reserve(slot.versions.size());
  for (const auto& [version, snapshot] : slot.versions) {
    version_record record;
    record.version = version;
    record.active = version == active_version && active != nullptr;
    record.pinned = record.active && slot.pinned;
    record.info = snapshot->info();
    records.push_back(std::move(record));
  }
  return records;
}

registry_stats model_registry::stats() const {
  // A view over the metric cells: the lifetime totals are the sums of their
  // per-qubit series.
  registry_stats snapshot;
  for (const metric_cells& cells : cells_) {
    snapshot.published += cells.publishes->value();
    snapshot.activations += cells.activations->value();
    snapshot.rollbacks += cells.rollbacks->value();
    snapshot.demotions += cells.demotions->value();
  }
  snapshot.acquires = acquires_cell_->value();
  snapshot.quarantined = quarantined_cell_->value();
  return snapshot;
}

namespace {

/// Temporary names our own crash-safe save produces ("<snap>.tmp" /
/// "registry.manifest.tmp") — swept after commit, skipped by the loader.
bool is_registry_temp_file(std::string name) {
  constexpr std::string_view kSuffix = ".tmp";
  if (name.size() <= kSuffix.size() || !name.ends_with(kSuffix)) return false;
  name.resize(name.size() - kSuffix.size());
  std::size_t qubit = 0;
  std::uint64_t version = 0;
  return name == kManifestName ||
         data::parse_versioned_snapshot_filename(name, qubit, version);
}

}  // namespace

void model_registry::save_directory(const std::string& directory) const {
  namespace fs = std::filesystem;
  fs::create_directories(directory);

  // Crash-safe save: every file is serialized to memory, written to a
  // ".tmp" sibling, fsynced and atomically renamed into place. Snapshots go
  // first; the manifest rename is the commit point. Files the previous save
  // wrote stay untouched until the new manifest is durable, so a crash (or
  // an injected fault) at any instant leaves the directory loadable —
  // either the previous save's state or the new one, never a torn mix.
  // Stray ".tmp" files from an interrupted save are ignored by the loader
  // and swept on the next successful save.
  std::ostringstream manifest_text;
  manifest_text << "klinq-registry " << kManifestFormat << "\n"
                << "qubits " << slots_.size() << "\n"
                << "keep " << config_.keep_versions << "\n";
  std::set<std::string> retained;
  for (std::size_t q = 0; q < slots_.size(); ++q) {
    const qubit_slot& slot = *slots_[q];
    const std::lock_guard lock(slot.mutex);
    const snapshot_ptr active = atomic_active_load(slot.active);
    manifest_text << "qubit " << q << " next " << slot.next_version
                  << " active "
                  << (active != nullptr ? active->info().version : 0)
                  << " pinned " << (slot.pinned ? 1 : 0) << "\n";
    for (const auto& [version, snapshot] : slot.versions) {
      const std::string name = data::versioned_snapshot_filename(q, version);
      const std::string path = directory + "/" + name;
      std::ostringstream serialized;
      snapshot->save(serialized);
      std::string bytes = serialized.str();
      fault::trigger("registry.save.snapshot");
      fault::corrupt("registry.save.snapshot", bytes.data(), bytes.size());
      data::write_file_durable(path + ".tmp", bytes);
      fault::trigger("registry.save.rename");  // "crash" before the rename
      data::replace_file(path + ".tmp", path);
      retained.insert(name);
    }
  }
  std::string manifest_bytes = manifest_text.str();
  fault::trigger("registry.save.manifest");
  fault::corrupt("registry.save.manifest", manifest_bytes.data(),
                 manifest_bytes.size());
  const std::string manifest_path = directory + "/" + kManifestName;
  data::write_file_durable(manifest_path + ".tmp", manifest_bytes);
  fault::trigger("registry.save.rename");  // "crash" before the commit point
  data::replace_file(manifest_path + ".tmp", manifest_path);

  // Committed. Now retire snapshot files the new manifest no longer
  // references (versions retired since the previous save must not
  // resurrect on the next load) plus temporaries left by an interrupted
  // save. Best effort: a leftover only wastes disk, the loader skips it.
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::size_t qubit = 0;
    std::uint64_t version = 0;
    const bool retired_snapshot =
        data::parse_versioned_snapshot_filename(name, qubit, version) &&
        retained.count(name) == 0;
    if (retired_snapshot || is_registry_temp_file(name)) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
    }
  }
}

std::unique_ptr<model_registry> model_registry::load_directory(
    const std::string& directory, registry_config base) {
  namespace fs = std::filesystem;
  std::ifstream manifest(directory + "/" + kManifestName);
  if (!manifest) {
    throw io_error("model_registry: no manifest in " + directory);
  }
  std::string tag;
  std::uint64_t format = 0;
  std::size_t qubit_count = 0;
  registry_config config = base;  // manifest keep_versions overrides below
  manifest >> tag >> format;
  if (!manifest || tag != "klinq-registry" || format != kManifestFormat) {
    throw io_error("model_registry: bad manifest header in " + directory);
  }
  manifest >> tag >> qubit_count;
  if (!manifest || tag != "qubits" || qubit_count == 0) {
    throw io_error("model_registry: bad manifest qubit count in " + directory);
  }
  manifest >> tag >> config.keep_versions;
  if (!manifest || tag != "keep" || config.keep_versions == 0) {
    throw io_error("model_registry: bad manifest retention in " + directory);
  }

  auto registry = std::make_unique<model_registry>(qubit_count, config);

  // Snapshot files first (the manifest's active version must resolve).
  // A snapshot that cannot be read, deserialized or hash-verified — a
  // crash-truncated write, bit rot, an injected corruption — is quarantined
  // (renamed to "*.bad") instead of failing the open: losing one version
  // must not take down every model in the store.
  std::uint64_t quarantined = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(directory)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    std::size_t qubit = 0;
    std::uint64_t version = 0;
    if (!data::parse_versioned_snapshot_filename(name, qubit, version)) {
      continue;  // foreign file (or a stray .tmp); not ours to judge
    }
    try {
      if (qubit >= qubit_count) {
        throw io_error("snapshot file for unknown qubit");
      }
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) throw io_error("cannot read snapshot file");
      std::string bytes((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
      fault::trigger("registry.load.snapshot");
      fault::corrupt("registry.load.snapshot", bytes.data(), bytes.size());
      std::istringstream stream(std::move(bytes));
      model_snapshot snapshot = model_snapshot::load(stream);
      if (snapshot.info().version != version) {
        throw io_error("snapshot version does not match its filename");
      }
      qubit_slot& slot = *registry->slots_[qubit];
      const std::lock_guard lock(slot.mutex);
      slot.versions.emplace_back(
          version,
          std::make_shared<const model_snapshot>(std::move(snapshot)));
    } catch (const std::exception& failure) {
      std::error_code ec;
      fs::rename(entry.path(), fs::path(entry.path().string() + ".bad"), ec);
      log_warn("model_registry: quarantined ", entry.path().string(),
               ec ? " (rename failed, file left in place)" : " -> *.bad",
               ": ", failure.what());
      ++quarantined;
    }
  }
  registry->quarantined_cell_->inc(quarantined);

  // Manifest per-qubit rows: restore counters, active and pin. Rows are
  // parsed line by line and tolerantly — a corrupt or missing row (torn
  // write, truncation) costs that row's metadata, not the whole store: the
  // affected qubits fall back to their newest verifiable snapshot below.
  std::vector<bool> seen(qubit_count, false);
  std::vector<std::uint64_t> row_next(qubit_count, 0);
  std::vector<std::uint64_t> row_active(qubit_count, 0);
  std::vector<bool> row_pinned(qubit_count, false);
  manifest.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  std::string line;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::size_t qubit = 0;
    std::uint64_t next = 0;
    std::uint64_t active = 0;
    int pinned = 0;
    std::string next_tag;
    std::string active_tag;
    std::string pinned_tag;
    std::string trailing;
    if (!(row >> tag >> qubit >> next_tag >> next >> active_tag >> active >>
          pinned_tag >> pinned) ||
        row >> trailing || tag != "qubit" || next_tag != "next" ||
        active_tag != "active" || pinned_tag != "pinned" ||
        qubit >= qubit_count || seen[qubit]) {
      log_warn("model_registry: ignoring bad manifest row in ", directory,
               ": '", line, "'");
      continue;
    }
    seen[qubit] = true;
    row_next[qubit] = next;
    row_active[qubit] = active;
    row_pinned[qubit] = pinned != 0;
  }

  for (std::size_t q = 0; q < qubit_count; ++q) {
    qubit_slot& slot = *registry->slots_[q];
    const std::lock_guard lock(slot.mutex);
    std::sort(slot.versions.begin(), slot.versions.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const std::uint64_t max_version =
        slot.versions.empty() ? 0 : slot.versions.back().first;
    slot.next_version = std::max(row_next[q], max_version + 1);
    slot.pinned = seen[q] && row_pinned[q];
    std::uint64_t desired = seen[q] ? row_active[q] : max_version;
    if (!seen[q] && !slot.versions.empty()) {
      log_warn("model_registry: qubit ", q,
               " has no usable manifest row; activating newest verifiable "
               "version v",
               max_version);
    }
    if (desired == 0) continue;  // deliberately inactive (or nothing loaded)
    auto it = std::find_if(
        slot.versions.begin(), slot.versions.end(),
        [desired](const auto& entry) { return entry.first == desired; });
    if (it == slot.versions.end()) {
      // The recorded active version did not survive verification. Fall back
      // to the newest version that did; a qubit with nothing verifiable is
      // left unpublished (acquire() throws until something is published),
      // but the registry still opens.
      if (slot.versions.empty()) {
        log_warn("model_registry: qubit ", q, " active v", desired,
                 " unverifiable and no fallback version survives; qubit "
                 "left unpublished");
        continue;
      }
      it = std::prev(slot.versions.end());
      log_warn("model_registry: qubit ", q, " active v", desired,
               " unverifiable; falling back to newest verifiable v",
               it->first);
    }
    atomic_active_store(slot.active, it->second);
  }
  return registry;
}

}  // namespace klinq::registry
