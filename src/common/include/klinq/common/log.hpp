// Leveled stderr logging with a runtime-adjustable threshold.
//
// Default level is `info`; set KLINQ_LOG=debug|info|warn|error|off in the
// environment or call set_log_level(). Logging is intentionally simple: one
// line per message, flushed immediately, safe to call from pool workers.
#pragma once

#include <sstream>
#include <string>

namespace klinq {

enum class log_level { debug = 0, info = 1, warn = 2, error = 3, off = 4 };

log_level get_log_level() noexcept;
void set_log_level(log_level level) noexcept;

/// Emit one log line if `level` passes the current threshold.
void log_message(log_level level, const std::string& message);

namespace detail {
template <class... Args>
std::string concat_log(Args&&... args) {
  std::ostringstream out;
  (out << ... << std::forward<Args>(args));
  return out.str();
}
}  // namespace detail

template <class... Args>
void log_debug(Args&&... args) {
  if (get_log_level() <= log_level::debug)
    log_message(log_level::debug, detail::concat_log(std::forward<Args>(args)...));
}

template <class... Args>
void log_info(Args&&... args) {
  if (get_log_level() <= log_level::info)
    log_message(log_level::info, detail::concat_log(std::forward<Args>(args)...));
}

template <class... Args>
void log_warn(Args&&... args) {
  if (get_log_level() <= log_level::warn)
    log_message(log_level::warn, detail::concat_log(std::forward<Args>(args)...));
}

}  // namespace klinq
