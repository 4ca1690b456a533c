// Snapshot serializers + a Prometheus exposition-format linter.
//
// prometheus_text() renders the classic text format (# HELP / # TYPE,
// `family{k="v"} value`, histogram `_bucket{le=...}`/`_sum`/`_count` with
// cumulative buckets ending at +Inf). Internal histograms hold 16 log bins
// per decade; exposition condenses them 4:1 (4 buckets per decade) so a
// dump stays readable while the in-process quantiles keep full resolution.
//
// lint_prometheus_text() is the deliberately-strict checker behind the
// golden tests and the CI `klinq_metrics_lint` step: it fails on invalid
// names, bad label quoting, unparsable values, duplicate series, duplicate
// or late TYPE lines.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "klinq/obs/metrics.hpp"

namespace klinq::obs {

std::string prometheus_text(const metrics_snapshot& snap);

/// Returns one message per violation ("line N: ..."); empty = clean.
std::vector<std::string> lint_prometheus_text(std::string_view text);

}  // namespace klinq::obs
