#include "klinq/core/cache.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "klinq/common/env.hpp"
#include "klinq/common/error.hpp"
#include "klinq/common/log.hpp"

namespace klinq::core {

artifact_cache::artifact_cache(std::string directory)
    : directory_(std::move(directory)) {
  if (!directory_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
      log_warn("artifact cache disabled: cannot create ", directory_, ": ",
               ec.message());
      directory_.clear();
    }
  }
}

artifact_cache artifact_cache::from_environment() {
  return artifact_cache(env_string("KLINQ_CACHE_DIR", "./klinq_cache"));
}

std::string artifact_cache::hash_key(const std::string& canonical) {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const unsigned char c : canonical) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  std::ostringstream out;
  out << std::hex << hash;
  return out.str();
}

std::string artifact_cache::path_for(const std::string& key,
                                     const char* kind) const {
  return directory_ + "/" + kind + "_" + key + ".bin";
}

std::optional<kd::teacher_model> artifact_cache::load_teacher(
    const std::string& key) const {
  if (!enabled()) return std::nullopt;
  const std::string path = path_for(key, "teacher");
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    auto model = kd::teacher_model::load(in);
    log_info("cache hit: teacher ", key);
    return model;
  } catch (const error& e) {
    log_warn("cache entry corrupt, retraining: ", path, " (", e.what(), ")");
    return std::nullopt;
  }
}

void artifact_cache::store_teacher(const std::string& key,
                                   const kd::teacher_model& model) {
  if (!enabled()) return;
  const std::string path = path_for(key, "teacher");
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    log_warn("cannot write cache entry ", path);
    return;
  }
  model.save(out);
}

}  // namespace klinq::core
