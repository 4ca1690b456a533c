// Live introspection plane: the standard /metrics, /healthz, /statusz and
// /tracez handlers wired onto an obs::http_server.
//
// The HTTP server itself lives in obs (it cannot see net); this module is
// the glue that knows about the TCP front end's connection table and drain
// state and the trace ring, and renders them for a human (or a Prometheus
// scraper) mid-incident:
//
//   /metrics  Prometheus text exposition of the registry snapshot
//             (lint-clean under obs::lint_prometheus_text).
//   /healthz  200 "ok" when serving; 503 naming every failing probe when
//             draining, degraded, or any caller-supplied probe fires.
//   /statusz  Front-end counters, the live per-connection table (inflight,
//             bytes, lane mix, age, idle), the trace ring's kept anomalies
//             and slowest requests, plus caller-supplied sections.
//   /tracez   Recently completed traces from the ring, spans indented under
//             their trace with offsets on the shared microsecond timeline.
//
// All handlers are read-only and allocate only while rendering; they run on
// the HTTP server's poll thread, so every data source they touch must be
// internally synchronized (all of the defaults are).
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "klinq/obs/http.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/net/tcp_front_end.hpp"

namespace klinq::net {

struct introspection_config {
  /// Registry behind /metrics and the /statusz counter dump. Required; all
  /// pointers are borrowed and must outlive the http_server.
  obs::metric_registry* metrics = nullptr;
  /// Front end: /healthz drain probe + /statusz connection table. Optional.
  tcp_front_end* front_end = nullptr;
  /// Trace ring behind /tracez and the /statusz kept-trace section.
  /// Optional (/tracez reports "tracing off", /statusz omits the section).
  obs::trace_ring* traces = nullptr;
  /// Named health probes; a probe returning true marks the process
  /// UNHEALTHY and its name is listed in the 503 body (e.g. {"degraded",
  /// [&] { return registry_degraded(reg); }}).
  std::vector<std::pair<std::string, std::function<bool()>>> unhealthy_when;
  /// Extra named /statusz sections appended after the built-ins (e.g. the
  /// model-registry version table).
  std::vector<std::pair<std::string, std::function<std::string()>>> sections;
};

/// Installs the four standard handlers on `http`. Throws
/// invalid_argument_error when config.metrics is null.
void install_introspection_handlers(obs::http_server& http,
                                    introspection_config config);

}  // namespace klinq::net
