#include "klinq/registry/drift_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "klinq/common/error.hpp"

namespace klinq::registry {

void drift_monitor::accumulator::clear() {
  shots = 0;
  ones = 0;
  low_margin = 0;
  sum_abs_margin = 0.0;
  histogram.reset();
}

double drift_monitor::accumulator::mean_abs_margin() const {
  return shots > 0 ? sum_abs_margin / static_cast<double>(shots) : 0.0;
}

double drift_monitor::accumulator::class_balance() const {
  return shots > 0 ? static_cast<double>(ones) / static_cast<double>(shots)
                   : 0.0;
}

drift_monitor::drift_monitor(std::size_t qubit_count,
                             drift_thresholds thresholds)
    : thresholds_(thresholds) {
  KLINQ_REQUIRE(qubit_count > 0, "drift_monitor: no qubits");
  slots_.reserve(qubit_count);
  for (std::size_t q = 0; q < qubit_count; ++q) {
    slots_.push_back(std::make_unique<qubit_slot>());
  }
}

drift_monitor::qubit_slot& drift_monitor::slot_checked(
    std::size_t qubit) const {
  KLINQ_REQUIRE(qubit < slots_.size(),
                "drift_monitor: qubit index out of range");
  return *slots_[qubit];
}

template <class MarginAt>
void drift_monitor::fold(accumulator& into,
                         std::span<const std::uint8_t> states,
                         MarginAt margin_at, double low_margin_floor) {
  for (std::size_t r = 0; r < states.size(); ++r) {
    const double margin = std::abs(margin_at(r));
    ++into.shots;
    into.ones += states[r] != 0 ? 1 : 0;
    into.sum_abs_margin += margin;
    if (low_margin_floor > 0.0 && margin < low_margin_floor) {
      ++into.low_margin;
    }
    into.histogram.record(margin);
  }
}

void drift_monitor::observe(std::size_t qubit,
                            std::span<const std::uint8_t> states,
                            std::span<const float> margins) {
  KLINQ_REQUIRE(states.size() == margins.size(),
                "drift_monitor: one margin per state required");
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  const double floor =
      slot.baseline.shots > 0
          ? thresholds_.low_margin_ratio * slot.baseline.mean_abs_margin()
          : 0.0;
  fold(slot.window, states,
       [margins](std::size_t r) { return static_cast<double>(margins[r]); },
       floor);
}

void drift_monitor::observe(const serve::shard_event& event) {
  if (event.engine == serve::engine_kind::fixed_q16) {
    qubit_slot& slot = slot_checked(event.qubit);
    const std::lock_guard lock(slot.mutex);
    const double floor =
        slot.baseline.shots > 0
            ? thresholds_.low_margin_ratio * slot.baseline.mean_abs_margin()
            : 0.0;
    const auto registers = event.registers;
    fold(slot.window, event.states,
         [registers](std::size_t r) { return registers[r].to_double(); },
         floor);
    return;
  }
  observe(event.qubit, event.states, event.logits);
}

void drift_monitor::observe(const serve::readout_result& result) {
  if (result.engine == serve::engine_kind::fixed_q16) {
    serve::shard_event event;
    event.qubit = result.qubit;
    event.engine = result.engine;
    event.states = result.states;
    event.registers = result.registers;
    observe(event);
    return;
  }
  observe(result.qubit, result.states, result.logits);
}

serve::shard_callback drift_monitor::callback() {
  return [this](const serve::shard_event& event) { observe(event); };
}

void drift_monitor::set_baseline(std::size_t qubit) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  KLINQ_REQUIRE(slot.window.shots > 0,
                "drift_monitor: cannot baseline an empty window");
  slot.baseline = slot.window;
  slot.window.clear();
}

void drift_monitor::reset_window(std::size_t qubit) {
  qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  slot.window.clear();
}

drift_status drift_monitor::status_locked(const qubit_slot& slot) const {
  drift_status status;
  status.window_shots = slot.window.shots;
  status.class_balance = slot.window.class_balance();
  status.mean_abs_margin = slot.window.mean_abs_margin();
  status.median_abs_margin = slot.window.histogram.quantile(0.5);
  status.low_confidence_share =
      slot.window.shots > 0
          ? static_cast<double>(slot.window.low_margin) /
                static_cast<double>(slot.window.shots)
          : 0.0;
  status.baseline_shots = slot.baseline.shots;
  status.baseline_class_balance = slot.baseline.class_balance();
  status.baseline_mean_abs_margin = slot.baseline.mean_abs_margin();
  const bool judgeable =
      slot.baseline.shots > 0 &&
      slot.window.shots >= thresholds_.min_window_shots;
  if (judgeable) {
    status.balance_drifted =
        std::abs(status.class_balance - status.baseline_class_balance) >
        thresholds_.class_balance_delta;
    status.margin_collapsed =
        status.mean_abs_margin <
        (1.0 - thresholds_.margin_collapse_fraction) *
            status.baseline_mean_abs_margin;
    status.confidence_collapsed =
        status.low_confidence_share > thresholds_.low_confidence_fraction;
    status.drifted = status.balance_drifted || status.margin_collapsed ||
                     status.confidence_collapsed;
  }
  // Severity score: each proxy normalized so 1.0 sits exactly at its
  // threshold, the worst one wins. Unlike the booleans it does not wait for
  // min_window_shots — a small window just produces a noisy early score.
  if (slot.baseline.shots > 0 && slot.window.shots > 0) {
    double score = 0.0;
    if (thresholds_.class_balance_delta > 0.0) {
      score = std::max(
          score,
          std::abs(status.class_balance - status.baseline_class_balance) /
              thresholds_.class_balance_delta);
    }
    if (thresholds_.margin_collapse_fraction > 0.0 &&
        status.baseline_mean_abs_margin > 0.0) {
      const double collapse =
          1.0 - status.mean_abs_margin / status.baseline_mean_abs_margin;
      score = std::max(score,
                       collapse / thresholds_.margin_collapse_fraction);
    }
    if (thresholds_.low_confidence_fraction > 0.0) {
      score = std::max(score, status.low_confidence_share /
                                  thresholds_.low_confidence_fraction);
    }
    status.score = std::max(score, 0.0);
  }
  return status;
}

drift_status drift_monitor::status(std::size_t qubit) const {
  const qubit_slot& slot = slot_checked(qubit);
  const std::lock_guard lock(slot.mutex);
  return status_locked(slot);
}

drift_monitor::~drift_monitor() { unbind_metrics(); }

void drift_monitor::bind_metrics(obs::metric_registry& metrics) {
  unbind_metrics();
  gauges_.assign(slots_.size(), gauge_cells{});
  for (std::size_t q = 0; q < slots_.size(); ++q) {
    const obs::label_list labels{{"qubit", std::to_string(q)}};
    gauge_cells& cells = gauges_[q];
    cells.window_shots = &metrics.get_gauge(
        "klinq_drift_window_shots", labels,
        "Shots folded into the rolling observation window.");
    cells.class_balance = &metrics.get_gauge(
        "klinq_drift_class_balance", labels,
        "Fraction of |1> decisions in the observation window.");
    cells.mean_abs_margin = &metrics.get_gauge(
        "klinq_drift_mean_abs_margin", labels,
        "Mean |logit margin| of the observation window.");
    cells.low_confidence_share = &metrics.get_gauge(
        "klinq_drift_low_confidence_share", labels,
        "Window share of shots whose |margin| fell below the baseline-derived "
        "confidence floor.");
    cells.score = &metrics.get_gauge(
        "klinq_drift_score", labels,
        "Drift severity: worst label-free proxy normalized so 1.0 is exactly "
        "at its configured threshold.");
    cells.drifted = &metrics.get_gauge(
        "klinq_drift_drifted", labels,
        "1 while the qubit is flagged drifted (a proxy past threshold with "
        "enough window and baseline shots).");
  }
  collector_id_ = metrics.add_collector([this] {
    for (std::size_t q = 0; q < slots_.size(); ++q) {
      const drift_status s = status(q);
      const gauge_cells& cells = gauges_[q];
      cells.window_shots->set(static_cast<double>(s.window_shots));
      cells.class_balance->set(s.class_balance);
      cells.mean_abs_margin->set(s.mean_abs_margin);
      cells.low_confidence_share->set(s.low_confidence_share);
      cells.score->set(s.score);
      cells.drifted->set(s.drifted ? 1.0 : 0.0);
    }
  });
  metrics_ = &metrics;
}

void drift_monitor::unbind_metrics() {
  if (metrics_ != nullptr && collector_id_ != 0) {
    metrics_->remove_collector(collector_id_);
  }
  metrics_ = nullptr;
  collector_id_ = 0;
  gauges_.clear();
}

}  // namespace klinq::registry
