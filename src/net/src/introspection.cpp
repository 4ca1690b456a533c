#include "klinq/net/introspection.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>

#include "klinq/common/error.hpp"
#include "klinq/obs/exposition.hpp"

namespace klinq::net {

namespace {

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<std::size_t>(n),
                                      sizeof(buf) - 1));
}

std::string render_front_end(const tcp_front_end& fe) {
  std::string out;
  const front_end_stats s = fe.stats();
  out += "front_end:\n";
  appendf(out, "  open_connections=%zu inflight=%zu draining=%s\n",
          s.open_connections, s.inflight, fe.draining() ? "yes" : "no");
  appendf(out,
          "  accepted=%" PRIu64 " rejected=%" PRIu64 " closed=%" PRIu64
          " evicted=%" PRIu64 "\n",
          s.connections_accepted, s.connections_rejected,
          s.connections_closed, s.connections_evicted);
  appendf(out,
          "  frames rx=%" PRIu64 " tx=%" PRIu64 " bytes rx=%" PRIu64
          " tx=%" PRIu64 "\n",
          s.frames_received, s.frames_sent, s.bytes_received, s.bytes_sent);
  appendf(out,
          "  admitted=%" PRIu64 " responded=%" PRIu64 " busy=%" PRIu64
          " malformed=%" PRIu64 " dropped=%" PRIu64 "\n",
          s.requests_admitted, s.responses_sent, s.busy_rejections,
          s.malformed_frames, s.results_dropped);
  appendf(out, "  pings=%" PRIu64 " pongs=%" PRIu64 " cancels=%" PRIu64 "\n",
          s.pings_received, s.pongs_sent, s.cancels_received);

  out += "connections:\n";
  out +=
      "  id        inflight  inflight_bytes  write_queue  bulk      "
      "feedback  age_s     idle_s    closing\n";
  for (const connection_info& c : fe.connections()) {
    appendf(out,
            "  %-8" PRIu64 "  %-8zu  %-14zu  %-11zu  %-8" PRIu64
            "  %-8" PRIu64 "  %-8.1f  %-8.1f  %s\n",
            c.id, c.inflight, c.inflight_bytes, c.write_queue_bytes,
            c.admitted_bulk, c.admitted_feedback, c.age_seconds,
            c.idle_seconds, c.closing ? "yes" : "no");
  }
  return out;
}

std::string render_kept(const obs::trace_ring& ring) {
  std::string out = "kept_traces:\n";
  for (const obs::kept_trace& k : ring.kept()) {
    appendf(out, "  [%s] trace=%016" PRIx64 " total=%.6fs", k.status.c_str(),
            k.trace_id, k.duration_us / 1e6);
    for (const obs::trace_span& span : k.spans) {
      appendf(out, " %s=%.6fs", span.name.c_str(), span.duration_us / 1e6);
    }
    for (const auto& [key, value] : k.attributes) {
      appendf(out, " %s=%s", key.c_str(), value.c_str());
    }
    out += "\n";
  }
  return out;
}

std::string render_traces(const obs::trace_ring& ring) {
  std::string out;
  appendf(out,
          "tracez: armed=%s recorded=%" PRIu64 " dropped=%" PRIu64 "\n",
          ring.armed() ? "yes" : "no", ring.recorded(), ring.dropped());
  for (const obs::trace_ring::trace_view& view : ring.traces()) {
    appendf(out, "trace %016" PRIx64 "  spans=%zu  duration=%.3fms\n",
            view.trace_id, view.spans.size(), view.duration_us / 1e3);
    for (const obs::trace_span& span : view.spans) {
      appendf(out, "  +%8.3fms  %-12s  %7.3fms  [%s]\n",
              (span.start_us - view.start_us) / 1e3, span.name.c_str(),
              span.duration_us / 1e3, span.category.c_str());
    }
  }
  return out;
}

}  // namespace

void install_introspection_handlers(obs::http_server& http,
                                    introspection_config config) {
  KLINQ_REQUIRE(config.metrics != nullptr,
                "net::install_introspection_handlers: metrics is required");
  // The handler table owns one shared copy of the config; handlers run on
  // the HTTP poll thread, so everything captured must stay valid for the
  // server's lifetime (borrowed pointers — documented in the header).
  auto shared = std::make_shared<introspection_config>(std::move(config));

  http.add_handler("/metrics", [shared](const obs::http_request&) {
    obs::http_response res;
    res.content_type = "text/plain; version=0.0.4; charset=utf-8";
    res.body = obs::prometheus_text(shared->metrics->snapshot());
    return res;
  });

  http.add_handler("/healthz", [shared](const obs::http_request&) {
    std::string reasons;
    if (shared->front_end != nullptr && shared->front_end->draining()) {
      reasons += "draining\n";
    }
    for (const auto& [name, probe] : shared->unhealthy_when) {
      if (probe()) reasons += name + "\n";
    }
    obs::http_response res;
    if (reasons.empty()) {
      res.body = "ok\n";
    } else {
      res.status = 503;
      res.body = "unhealthy\n" + reasons;
    }
    return res;
  });

  http.add_handler("/statusz", [shared](const obs::http_request&) {
    obs::http_response res;
    std::string& out = res.body;
    out += "klinq statusz\n";
    appendf(out, "trace_clock_us=%" PRIu64 "\n\n", obs::trace_clock_us());
    if (shared->front_end != nullptr) {
      out += render_front_end(*shared->front_end);
      out += "\n";
    }
    if (shared->traces != nullptr) {
      out += render_kept(*shared->traces);
      out += "\n";
    }
    for (const auto& [name, section] : shared->sections) {
      out += name + ":\n" + section() + "\n";
    }
    return res;
  });

  http.add_handler("/tracez", [shared](const obs::http_request&) {
    obs::http_response res;
    if (shared->traces == nullptr) {
      res.body = "tracez: tracing off (no ring configured)\n";
    } else {
      res.body = render_traces(*shared->traces);
    }
    return res;
  });
}

}  // namespace klinq::net
