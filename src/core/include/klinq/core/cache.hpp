// File-based artifact cache for trained models.
//
// Teachers cost minutes to train; benches for different tables need the same
// teachers. The cache stores serialized models keyed by a content hash of
// the training configuration, so independent bench binaries (run in any
// order) train each artifact exactly once. Set KLINQ_CACHE_DIR to relocate,
// or construct with an empty directory name to disable caching.
#pragma once

#include <optional>
#include <string>

#include "klinq/kd/teacher.hpp"

namespace klinq::core {

class artifact_cache {
 public:
  /// `directory` empty ⇒ caching disabled (all loads miss, stores ignored).
  explicit artifact_cache(std::string directory);

  /// Cache rooted at $KLINQ_CACHE_DIR (default "./klinq_cache").
  static artifact_cache from_environment();

  bool enabled() const noexcept { return !directory_.empty(); }
  const std::string& directory() const noexcept { return directory_; }

  /// FNV-1a hash of a canonical config string → hex key.
  static std::string hash_key(const std::string& canonical);

  std::optional<kd::teacher_model> load_teacher(const std::string& key) const;
  void store_teacher(const std::string& key, const kd::teacher_model& model);

 private:
  std::string path_for(const std::string& key, const char* kind) const;

  std::string directory_;
};

}  // namespace klinq::core
