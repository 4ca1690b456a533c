#include "klinq/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "klinq/common/env.hpp"
#include "klinq/common/error.hpp"

namespace klinq::obs {

namespace {

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// Escapes the handful of characters that can appear in span names; names
// are internal constants, so this stays minimal.
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  out += '"';
}

}  // namespace

std::uint64_t trace_clock_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

trace_ring::trace_ring(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 256));
}

std::uint64_t trace_ring::next_span_id() noexcept {
  return next_span_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t trace_ring::next_trace_id() noexcept {
  // splitmix64 of a counter: unique per process and well-spread, so traces
  // from concurrent clients sharing the ring never collide on low bits.
  std::uint64_t x = next_trace_.fetch_add(1, std::memory_order_relaxed);
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

void trace_ring::record(trace_span span) {
  if (!armed()) return;
  const std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
  } else {
    ring_[next_] = std::move(span);
    next_ = (next_ + 1) % capacity_;
    wrapped_ = true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<trace_span> trace_ring::spans() const {
  const std::lock_guard lock(mutex_);
  std::vector<trace_span> out;
  out.reserve(ring_.size());
  if (wrapped_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  } else {
    out = ring_;
  }
  return out;
}

std::vector<trace_ring::trace_view> trace_ring::traces(
    std::size_t max_traces) const {
  std::map<std::uint64_t, trace_view> grouped;
  for (auto& span : spans()) {
    trace_view& view = grouped[span.trace_id];
    view.trace_id = span.trace_id;
    view.spans.push_back(std::move(span));
  }
  std::vector<trace_view> out;
  out.reserve(grouped.size());
  for (auto& [id, view] : grouped) {
    std::stable_sort(view.spans.begin(), view.spans.end(),
                     [](const trace_span& a, const trace_span& b) {
                       return a.start_us < b.start_us;
                     });
    view.start_us = view.spans.front().start_us;
    std::uint64_t end = 0;
    for (const trace_span& s : view.spans) {
      end = std::max(end, s.start_us + s.duration_us);
    }
    view.duration_us = end - view.start_us;
    out.push_back(std::move(view));
  }
  // Most recently finished first.
  std::stable_sort(out.begin(), out.end(),
                   [](const trace_view& a, const trace_view& b) {
                     return a.start_us + a.duration_us >
                            b.start_us + b.duration_us;
                   });
  if (out.size() > max_traces) out.resize(max_traces);
  return out;
}

void trace_ring::keep(kept_trace entry) {
  const std::lock_guard lock(mutex_);
  if (entry.anomalous) {
    if (anomalies_.size() < kKeptAnomalies) {
      anomalies_.push_back(std::move(entry));
    } else {
      anomalies_[next_anomaly_] = std::move(entry);
      next_anomaly_ = (next_anomaly_ + 1) % kKeptAnomalies;
    }
    return;
  }
  // Re-check under the lock: the lock-free gate may race the bar.
  if (slowest_.size() == kKeptSlowest &&
      entry.duration_us <= slowest_.front().duration_us) {
    return;
  }
  const auto pos = std::upper_bound(
      slowest_.begin(), slowest_.end(), entry.duration_us,
      [](std::uint64_t d, const kept_trace& k) { return d < k.duration_us; });
  slowest_.insert(pos, std::move(entry));
  if (slowest_.size() > kKeptSlowest) slowest_.erase(slowest_.begin());
  if (slowest_.size() == kKeptSlowest) {
    slowest_bar_.store(slowest_.front().duration_us + 1,
                       std::memory_order_relaxed);
  }
}

std::vector<kept_trace> trace_ring::kept() const {
  const std::lock_guard lock(mutex_);
  std::vector<kept_trace> out;
  out.reserve(anomalies_.size() + slowest_.size());
  // Unroll the anomaly ring oldest first.
  const std::size_t n = anomalies_.size();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(anomalies_[(next_anomaly_ + i) % n]);
  }
  out.insert(out.end(), slowest_.begin(), slowest_.end());
  return out;
}

void trace_ring::clear() {
  const std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
  anomalies_.clear();
  next_anomaly_ = 0;
  slowest_.clear();
  slowest_bar_.store(0, std::memory_order_relaxed);
  recorded_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

trace_ring& default_trace_ring() {
  static trace_ring* ring = new trace_ring();  // leaked: outlive everything
  return *ring;
}

trace_sampler::trace_sampler(double rate) noexcept
    : rate_(std::isfinite(rate) ? std::clamp(rate, 0.0, 1.0) : 0.0) {}

bool trace_sampler::sample() noexcept {
  if (rate_ <= 0.0) return false;
  if (rate_ >= 1.0) return true;
  const auto n = static_cast<double>(
      count_.fetch_add(1, std::memory_order_relaxed));
  return std::ceil((n + 1.0) * rate_) > std::ceil(n * rate_);
}

std::string chrome_trace_json(const std::vector<trace_span>& spans) {
  // Track layout: one "pid" (the process), one "tid" per category so
  // client/net/serve spans land on separate rows in the viewer.
  auto tid_of = [](const std::string& category) {
    if (category == "client") return 1;
    if (category == "net") return 2;
    if (category == "serve") return 3;
    return 4;
  };
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const trace_span& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"cat\":";
    append_json_string(out, s.category.empty() ? std::string("span")
                                               : s.category);
    std::snprintf(buf, sizeof(buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%llu,"
                  "\"dur\":%llu,\"args\":{\"trace_id\":\"%016llx\","
                  "\"span_id\":%llu,\"parent_span\":%llu}}",
                  tid_of(s.category),
                  static_cast<unsigned long long>(s.start_us),
                  static_cast<unsigned long long>(s.duration_us),
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_span));
    out += buf;
  }
  out += "]}";
  return out;
}

trace_file_sink::trace_file_sink(trace_ring& ring, std::string path)
    : ring_(ring), path_(std::move(path)) {
  KLINQ_REQUIRE(!path_.empty(), "trace_file_sink: path must be non-empty");
  std::FILE* probe = std::fopen(path_.c_str(), "w");
  if (probe == nullptr) {
    throw io_error("trace_file_sink: cannot open '" + path_ + "'");
  }
  std::fclose(probe);
}

trace_file_sink::~trace_file_sink() {
  try {
    stop();
  } catch (...) {
    // Destructor must not throw; a failed final write loses the file.
  }
}

void trace_file_sink::stop() {
  if (stopped_) return;
  stopped_ = true;
  const std::string json = chrome_trace_json(ring_.spans());
  std::FILE* file = std::fopen(path_.c_str(), "w");
  if (file == nullptr) {
    throw io_error("trace_file_sink: cannot open '" + path_ + "'");
  }
  std::fwrite(json.data(), 1, json.size(), file);
  std::fputc('\n', file);
  std::fclose(file);
}

std::unique_ptr<trace_file_sink> start_trace_sink_from_env(trace_ring& ring) {
  const std::string path = env_string("KLINQ_TRACE_FILE", "");
  if (path.empty()) return nullptr;
  auto sink = std::make_unique<trace_file_sink>(ring, path);
  ring.set_armed(true);
  return sink;
}

double trace_sample_rate_from_env() {
  const double rate = env_double("KLINQ_TRACE_SAMPLE", 1.0);
  if (!std::isfinite(rate)) return 1.0;
  return std::clamp(rate, 0.0, 1.0);
}

}  // namespace klinq::obs
