// Streaming per-qubit readout-drift detection.
//
// On a real device the readout distributions wander (resonator frequency
// shifts, amplifier gain drift), and a per-qubit model trained on stale
// calibration data degrades silently — the decisions keep coming, they are
// just wrong more often. Ground truth is unavailable in production, so the
// monitor watches label-free proxies of the logit distribution, folded in
// from serving traffic (plug callback() into server_config::on_shard, or
// feed results explicitly):
//
//   * class balance — fraction of |1⟩ decisions. A readout boundary moving
//     through the IQ clouds shows up as a balance shift long before anyone
//     re-measures fidelity.
//   * logit-margin statistics — mean |logit| plus a log-binned |logit|
//     histogram (median via quantile). Drifting clouds approach the
//     boundary, so margins collapse.
//   * confidence collapse — the fraction of shots whose |logit| falls below
//     a floor derived from the baseline's mean margin.
//
// Each qubit compares a rolling observation window against a baseline
// captured at calibration time (set_baseline / rebaseline). status() flags
// a qubit when any proxy crosses its configured threshold; the background
// recalibrator polls drifted_qubits() and closes the loop.
//
// Thread-safety: all entry points are safe to call concurrently; state is
// per-qubit mutex-guarded (observation happens on serving worker threads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "klinq/obs/histogram.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/serve/request.hpp"

namespace klinq::registry {

struct drift_thresholds {
  /// Minimum window shots before a qubit may be flagged (variance guard).
  std::size_t min_window_shots = 256;
  /// Flag when |window class balance − baseline class balance| exceeds this.
  double class_balance_delta = 0.15;
  /// Flag when the window's mean |margin| falls below
  /// (1 − margin_collapse_fraction) × the baseline's mean |margin|.
  double margin_collapse_fraction = 0.5;
  /// "Low confidence" = |margin| below low_margin_ratio × baseline mean.
  double low_margin_ratio = 0.25;
  /// Flag when the low-confidence share of the window exceeds this.
  double low_confidence_fraction = 0.5;
};

/// Point-in-time drift assessment of one qubit.
struct drift_status {
  std::uint64_t window_shots = 0;
  double class_balance = 0.0;
  double mean_abs_margin = 0.0;
  double median_abs_margin = 0.0;
  double low_confidence_share = 0.0;
  std::uint64_t baseline_shots = 0;
  double baseline_class_balance = 0.0;
  double baseline_mean_abs_margin = 0.0;
  bool balance_drifted = false;
  bool margin_collapsed = false;
  bool confidence_collapsed = false;
  /// Any of the above, with both window and baseline past min_window_shots.
  bool drifted = false;
  /// Scalar drift severity: the worst proxy's distance toward (and past) its
  /// configured threshold, normalized so 1.0 is exactly at the threshold.
  /// Computed whenever a baseline exists — even before min_window_shots —
  /// so dashboards can watch drift build up before the boolean flips.
  double score = 0.0;
};

class drift_monitor {
 public:
  explicit drift_monitor(std::size_t qubit_count,
                         drift_thresholds thresholds = {});

  /// Unbinds the metrics collector (if bound).
  ~drift_monitor();

  drift_monitor(const drift_monitor&) = delete;
  drift_monitor& operator=(const drift_monitor&) = delete;

  std::size_t qubit_count() const noexcept { return slots_.size(); }
  const drift_thresholds& thresholds() const noexcept { return thresholds_; }

  /// Folds one batch of decisions + logit margins into the qubit's window.
  /// `margins` are the engine's native logits (sign included; the monitor
  /// uses |margin|), one per state.
  void observe(std::size_t qubit, std::span<const std::uint8_t> states,
               std::span<const float> margins);

  /// Adapters from the serving layer: fixed registers are converted to
  /// float margins, float logits pass through.
  void observe(const serve::shard_event& event);
  void observe(const serve::readout_result& result);

  /// A shard callback that feeds this monitor — assign to
  /// server_config::on_shard (the monitor must outlive the server).
  serve::shard_callback callback();

  /// Promotes the current window to the baseline and clears the window —
  /// call once representative post-calibration traffic has flowed.
  void set_baseline(std::size_t qubit);

  /// Replaces the baseline directly from labeled calibration output (the
  /// recalibrator evaluates the freshly published model on its calibration
  /// set) and clears the window.
  void rebaseline(std::size_t qubit, std::span<const std::uint8_t> states,
                  std::span<const float> margins);

  void reset_window(std::size_t qubit);

  drift_status status(std::size_t qubit) const;

  /// Qubits whose status().drifted is set, ascending.
  std::vector<std::size_t> drifted_qubits() const;

  /// Publishes per-qubit gauges into `metrics`, refreshed at snapshot time
  /// through a collector: klinq_drift_window_shots, klinq_drift_class_balance,
  /// klinq_drift_mean_abs_margin, klinq_drift_low_confidence_share,
  /// klinq_drift_score and klinq_drift_drifted, each labeled {qubit}. The
  /// monitor must outlive the binding (the destructor unbinds, or call
  /// unbind_metrics() earlier). Rebinding replaces the previous binding.
  void bind_metrics(obs::metric_registry& metrics);
  void unbind_metrics();

 private:
  struct accumulator {
    std::uint64_t shots = 0;
    std::uint64_t ones = 0;
    std::uint64_t low_margin = 0;
    double sum_abs_margin = 0.0;
    /// |margin| distribution, log-binned (the histogram's 1e-7..100 span
    /// covers every sane logit scale).
    obs::log_histogram histogram;

    void clear();
    double mean_abs_margin() const;
    double class_balance() const;
  };

  struct qubit_slot {
    mutable std::mutex mutex;
    accumulator window;
    accumulator baseline;
  };

  qubit_slot& slot_checked(std::size_t qubit) const;
  drift_status status_locked(const qubit_slot& slot) const;
  /// One accumulation loop for every ingest path; `margin_at(r)` hands back
  /// shot r's logit margin (float span or fixed register, engine-specific).
  template <class MarginAt>
  static void fold(accumulator& into, std::span<const std::uint8_t> states,
                   MarginAt margin_at, double low_margin_floor);

  /// Pre-resolved gauge cells for one qubit's bind_metrics() families.
  struct gauge_cells {
    obs::gauge* window_shots = nullptr;
    obs::gauge* class_balance = nullptr;
    obs::gauge* mean_abs_margin = nullptr;
    obs::gauge* low_confidence_share = nullptr;
    obs::gauge* score = nullptr;
    obs::gauge* drifted = nullptr;
  };

  drift_thresholds thresholds_;
  std::vector<std::unique_ptr<qubit_slot>> slots_;

  obs::metric_registry* metrics_ = nullptr;
  std::vector<gauge_cells> gauges_;
  std::uint64_t collector_id_ = 0;
};

}  // namespace klinq::registry
