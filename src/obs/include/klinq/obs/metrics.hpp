// Process-wide labeled metrics registry.
//
// Families are addressed as `family{label=value,...}` with three kinds —
// monotonic counters, gauges, and log-binned histograms. The design splits
// the cost asymmetrically:
//
//  * Resolution (get_counter/get_gauge/get_histogram) is slow-path: it
//    takes the registry lock to find the family, then that family's own
//    lock (the stripe) to find-or-create the series. Callers resolve once
//    at construction time and keep the returned reference — cell addresses
//    are stable for the registry's lifetime.
//  * Recording through a resolved handle is lock-free: one relaxed RMW for
//    counters/gauges, a handful for histograms. Safe on the submit/shard
//    hot paths.
//
// snapshot() renders a point-in-time copy (running registered collectors
// first, so pull-style sources — drift status, fault::report() — can
// refresh their gauges); prometheus_text() in exposition.hpp serializes
// it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "klinq/obs/histogram.hpp"

namespace klinq::obs {

enum class metric_kind : std::uint8_t { counter, gauge, histogram };

const char* metric_kind_name(metric_kind kind) noexcept;

/// Label set as (key, value) pairs. Registries canonicalize to key-sorted
/// order, so `{{"a","1"},{"b","2"}}` and `{{"b","2"},{"a","1"}}` resolve to
/// the same series.
using label_list = std::vector<std::pair<std::string, std::string>>;

/// Prometheus-compatible identifier rules (shared with the exposition
/// linter): name = [a-zA-Z_:][a-zA-Z0-9_:]*, key = [a-zA-Z_][a-zA-Z0-9_]*.
bool valid_metric_name(std::string_view name) noexcept;
bool valid_label_key(std::string_view key) noexcept;

/// Monotonic counter. inc() only — there is deliberately no decrement.
class counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time scalar that can move both ways.
class gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// One series in a snapshot. `value` carries counter/gauge readings;
/// `histogram` is populated (count may still be 0) only for histograms.
struct series_snapshot {
  label_list labels;  // key-sorted
  double value = 0.0;
  histogram_data histogram;
};

struct family_snapshot {
  std::string name;
  std::string help;
  metric_kind kind = metric_kind::counter;
  std::vector<series_snapshot> series;  // deterministic label order
};

/// Point-in-time copy of every family/series, name-sorted.
struct metrics_snapshot {
  std::vector<family_snapshot> families;

  const family_snapshot* find(std::string_view name) const noexcept;
  /// Exact label-set match (order-insensitive). Null when absent.
  const series_snapshot* find(std::string_view name,
                              const label_list& labels) const;
  /// Scalar value of a series; 0 when the family/series is absent.
  double value(std::string_view name, const label_list& labels = {}) const;
  /// Quantile over the merged bins of every series of `family` whose
  /// labels contain all of `match` (subset match). 0 when nothing matches.
  double histogram_quantile(std::string_view family, const label_list& match,
                            double q) const;
};

class metric_registry {
 public:
  metric_registry() = default;
  metric_registry(const metric_registry&) = delete;
  metric_registry& operator=(const metric_registry&) = delete;

  /// Find-or-create. Throws invalid_argument_error on malformed names/label
  /// keys, duplicate label keys, a reserved key ("le"), or when the family
  /// already exists with a different kind. The returned reference stays
  /// valid for the registry's lifetime.
  counter& get_counter(std::string_view name, const label_list& labels = {},
                       std::string_view help = {});
  gauge& get_gauge(std::string_view name, const label_list& labels = {},
                   std::string_view help = {});
  log_histogram& get_histogram(std::string_view name,
                               const label_list& labels = {},
                               std::string_view help = {});

  /// Register a pull-style source run at the start of every snapshot()
  /// (typically: read some subsystem's status, set gauges through resolved
  /// handles). Collectors must not call snapshot() themselves. Returns an
  /// id for remove_collector — unbind before the source dies.
  std::uint64_t add_collector(std::function<void()> collect);
  void remove_collector(std::uint64_t id);

  metrics_snapshot snapshot() const;
  /// Convenience: exposition of snapshot() (see exposition.hpp).
  std::string prometheus_text() const;

  std::size_t family_count() const;

 private:
  struct series {
    label_list labels;  // key-sorted
    std::string key;    // canonical "k=v\x1f..." lookup key
    std::unique_ptr<counter> as_counter;
    std::unique_ptr<gauge> as_gauge;
    std::unique_ptr<log_histogram> as_histogram;
  };
  struct family {
    std::string name;
    std::string help;
    metric_kind kind = metric_kind::counter;
    // The lock stripe: series resolution within a family contends only
    // with resolutions in the same family, never with other families or
    // with records (which touch resolved cells lock-free).
    mutable std::mutex mutex;
    std::vector<std::unique_ptr<series>> entries;
  };

  family& get_family(std::string_view name, metric_kind kind,
                     std::string_view help);
  series& get_series(family& fam, const label_list& labels);

  mutable std::mutex families_mutex_;
  std::map<std::string, std::unique_ptr<family>, std::less<>> families_;

  mutable std::mutex collectors_mutex_;
  std::vector<std::pair<std::uint64_t, std::function<void()>>> collectors_;
  std::uint64_t next_collector_id_ = 1;
};

/// The process-wide registry (leaked singleton — metric cells may be
/// touched during static destruction). Servers default to a private
/// registry; tools share this one so every subsystem lands in one dump.
metric_registry& default_registry();

}  // namespace klinq::obs
