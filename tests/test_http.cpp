// obs::http_server + the net introspection plane behind it.
//
// Contracts under test:
//   * the server answers registered GET handlers and nothing else: unknown
//     paths 404, non-GET methods 405, malformed request lines 400, oversize
//     headers 431, over-capacity accepts 503, and a slow client is evicted
//     on the read deadline — each rejection visible in http_stats;
//   * handler exceptions surface as 500 without killing the server;
//   * environment wiring via KLINQ_HTTP;
//   * the standard introspection handlers: /metrics is a lint-clean
//     Prometheus scrape, /healthz flips 200 → 503 under degradation probes
//     and front-end drain (naming each reason), /statusz renders the live
//     connection table and the trace ring's kept requests, /tracez renders
//     completed traces.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/net/client.hpp"
#include "klinq/net/introspection.hpp"
#include "klinq/net/tcp_front_end.hpp"
#include "klinq/obs/exposition.hpp"
#include "klinq/obs/http.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/serve/readout_server.hpp"

namespace {

using namespace klinq;

/// Raw socket round trip: send `request` verbatim, read to EOF. The
/// hostile-client primitive http_get is too well-behaved for.
std::string raw_round_trip(std::uint16_t port, const std::string& request,
                           double timeout_seconds = 2.0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  KLINQ_REQUIRE(fd >= 0, "test: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  KLINQ_REQUIRE(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "test: connect() failed");
  timeval tv{};
  tv.tv_sec = static_cast<long>(timeout_seconds);
  tv.tv_usec = static_cast<long>((timeout_seconds - tv.tv_sec) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (!request.empty()) {
    (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  }
  std::string out;
  char chunk[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    out.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

bool wait_until(const std::function<bool()>& probe,
                double timeout_seconds = 5.0) {
  stopwatch timer;
  while (timer.seconds() < timeout_seconds) {
    if (probe()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return probe();
}

obs::http_server make_server(obs::http_config config = {}) {
  config.bind_address = "127.0.0.1:0";
  return obs::http_server(std::move(config));
}

// --- the server itself ------------------------------------------------------

TEST(HttpServer, ServesHandlersAndPassesTheQuery) {
  obs::http_server server = make_server();
  server.add_handler("/hello", [](const obs::http_request& req) {
    obs::http_response res;
    res.body = "hello " + req.query;
    return res;
  });
  const obs::http_result got =
      obs::http_get(server.host(), server.port(), "/hello?name=world");
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(got.body, "hello name=world");

  // Handlers can be replaced live; the table is mutex-guarded.
  server.add_handler("/hello", [](const obs::http_request&) {
    return obs::http_response{202, "text/plain", "replaced"};
  });
  const obs::http_result swapped =
      obs::http_get(server.host(), server.port(), "/hello");
  EXPECT_EQ(swapped.status, 202);
  EXPECT_EQ(swapped.body, "replaced");
  EXPECT_GE(server.stats().served, 2u);
}

TEST(HttpServer, RejectsUnknownPathsMethodsAndMalformedRequests) {
  obs::http_server server = make_server();
  server.add_handler("/ok", [](const obs::http_request&) {
    return obs::http_response{};
  });

  EXPECT_EQ(obs::http_get(server.host(), server.port(), "/nope").status, 404);
  const std::string post =
      raw_round_trip(server.port(), "POST /ok HTTP/1.1\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);
  const std::string garbage =
      raw_round_trip(server.port(), "garbage\r\n\r\n");
  EXPECT_NE(garbage.find("400"), std::string::npos);
  // Each rejection is accounted; the server keeps serving afterwards.
  const obs::http_stats stats = server.stats();
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_GE(stats.malformed, 2u);
  EXPECT_EQ(obs::http_get(server.host(), server.port(), "/ok").status, 200);
}

TEST(HttpServer, HandlerExceptionsBecome500) {
  obs::http_server server = make_server();
  server.add_handler("/boom", [](const obs::http_request&) -> obs::http_response {
    throw io_error("handler exploded");
  });
  EXPECT_EQ(obs::http_get(server.host(), server.port(), "/boom").status, 500);
  // The poll thread survived the throw.
  server.add_handler("/ok", [](const obs::http_request&) {
    return obs::http_response{};
  });
  EXPECT_EQ(obs::http_get(server.host(), server.port(), "/ok").status, 200);
}

TEST(HttpServer, OversizeRequestHeadersAreRejected431) {
  obs::http_config config;
  config.max_request_bytes = 256;
  obs::http_server server = make_server(config);
  const std::string oversize =
      "GET /" + std::string(512, 'a') + " HTTP/1.1\r\n\r\n";
  const std::string reply = raw_round_trip(server.port(), oversize);
  EXPECT_NE(reply.find("431"), std::string::npos);
  EXPECT_GE(server.stats().malformed, 1u);
}

TEST(HttpServer, SlowClientIsEvictedOnTheReadDeadline) {
  obs::http_config config;
  config.read_timeout_seconds = 0.1;
  obs::http_server server = make_server(config);
  // Half a request line, then silence: the connection must be reaped.
  const std::string reply =
      raw_round_trip(server.port(), "GET /st", /*timeout_seconds=*/2.0);
  EXPECT_TRUE(reply.empty());  // evicted without a response
  EXPECT_TRUE(wait_until([&] { return server.stats().evicted >= 1; }));
}

TEST(HttpServer, OverCapacityConnectionsAreShedWith503) {
  obs::http_config config;
  config.max_connections = 1;
  config.read_timeout_seconds = 5.0;
  obs::http_server server = make_server(config);
  // Occupy the only slot with a half-open request...
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(holder, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  (void)::send(holder, "GET /", 5, MSG_NOSIGNAL);
  ASSERT_TRUE(wait_until([&] { return server.stats().accepted >= 1; }));
  // ...so the next connection is shed with a best-effort 503.
  const std::string reply = raw_round_trip(server.port(), "");
  EXPECT_NE(reply.find("503"), std::string::npos);
  EXPECT_TRUE(wait_until([&] { return server.stats().over_capacity >= 1; }));
  ::close(holder);
}

TEST(HttpServer, EnvironmentWiring) {
  ::unsetenv("KLINQ_HTTP");
  EXPECT_EQ(obs::start_http_from_env(), nullptr);
  ::setenv("KLINQ_HTTP", "127.0.0.1:0", 1);
  const std::unique_ptr<obs::http_server> server = obs::start_http_from_env();
  ASSERT_NE(server, nullptr);
  EXPECT_NE(server->port(), 0u);  // the ephemeral bind resolved
  ::unsetenv("KLINQ_HTTP");
}

// --- the introspection plane ------------------------------------------------

// One tiny trained qubit behind a real front end (the /statusz and /healthz
// data sources want live connections, not mocks).
struct plane_fixture {
  qsim::qubit_dataset data;
  kd::student_model student;
  std::vector<hw::fixed_discriminator<fx::q16_16>> hardware;

  plane_fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 50;
    spec.shots_per_permutation_test = 50;
    spec.seed = 23;
    data = qsim::build_qubit_dataset(spec, 0);
    kd::student_config config;
    config.groups_per_quadrature = 10;
    config.epochs = 2;
    config.seed = 3;
    student = kd::distill_student(data.train, {}, config);
    hardware.emplace_back(student);
  }

  std::vector<serve::qubit_engine> engines() const {
    return {{&student, &hardware[0]}};
  }
};

plane_fixture& plane() {
  static plane_fixture f;
  return f;
}

TEST(HttpIntrospection, MetricsScrapeIsLintClean) {
  auto& f = plane();
  obs::metric_registry metrics;
  serve::server_config scfg;
  scfg.metrics = &metrics;
  serve::readout_server server(f.engines(), scfg);
  net::front_end_config cfg;
  cfg.metrics = &metrics;
  net::tcp_front_end front(server, cfg);
  obs::http_server http = make_server();
  net::introspection_config ic;
  ic.metrics = &metrics;
  ic.front_end = &front;
  net::install_introspection_handlers(http, std::move(ic));

  // Traffic first, so the scrape carries live series.
  net::client cli("127.0.0.1", front.port());
  net::request_info info;
  info.qubit = 0;
  info.engine = serve::engine_kind::fixed_q16;
  const std::uint64_t id = cli.send_request(info, f.data.test);
  ASSERT_TRUE(cli.read_reply(id).has_value());

  const obs::http_result scrape =
      obs::http_get(http.host(), http.port(), "/metrics");
  ASSERT_EQ(scrape.status, 200);
  const std::vector<std::string> violations =
      obs::lint_prometheus_text(scrape.body);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
  EXPECT_NE(scrape.body.find("klinq_net_requests_admitted_total"),
            std::string::npos);
  EXPECT_NE(scrape.body.find("klinq_serve_requests_submitted_total"),
            std::string::npos);
}

TEST(HttpIntrospection, HealthzFlipsUnderProbesAndDrain) {
  auto& f = plane();
  obs::metric_registry metrics;
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.drain_timeout_seconds = 1.0;
  net::tcp_front_end front(server, cfg);
  obs::http_server http = make_server();
  std::atomic<bool> degraded{false};
  net::introspection_config ic;
  ic.metrics = &metrics;
  ic.front_end = &front;
  ic.unhealthy_when.push_back(
      {"model-degraded", [&] { return degraded.load(); }});
  net::install_introspection_handlers(http, std::move(ic));

  EXPECT_EQ(obs::http_get(http.host(), http.port(), "/healthz").status, 200);

  degraded.store(true);
  const obs::http_result sick =
      obs::http_get(http.host(), http.port(), "/healthz");
  EXPECT_EQ(sick.status, 503);
  EXPECT_NE(sick.body.find("model-degraded"), std::string::npos);
  degraded.store(false);
  EXPECT_EQ(obs::http_get(http.host(), http.port(), "/healthz").status, 200);

  front.shutdown();
  const obs::http_result draining =
      obs::http_get(http.host(), http.port(), "/healthz");
  EXPECT_EQ(draining.status, 503);
  EXPECT_NE(draining.body.find("draining"), std::string::npos);
}

TEST(HttpIntrospection, StatuszAndTracezRenderLiveState) {
  auto& f = plane();
  obs::metric_registry metrics;
  obs::trace_ring ring;
  ring.set_armed(true);
  serve::server_config scfg;
  scfg.traces = &ring;
  serve::readout_server server(f.engines(), scfg);
  net::front_end_config cfg;
  cfg.traces = &ring;
  net::tcp_front_end front(server, cfg);
  obs::http_server http = make_server();
  net::introspection_config ic;
  ic.metrics = &metrics;
  ic.front_end = &front;
  ic.traces = &ring;
  ic.sections.push_back(
      {"build", [] { return std::string("  version=test\n"); }});
  net::install_introspection_handlers(http, std::move(ic));

  net::client cli("127.0.0.1", front.port());
  cli.enable_tracing(&ring, 1.0);
  net::request_info info;
  info.qubit = 0;
  info.engine = serve::engine_kind::fixed_q16;
  const std::uint64_t id = cli.send_request(info, f.data.test);
  ASSERT_TRUE(cli.read_reply(id).has_value());
  ASSERT_TRUE(wait_until([&] { return ring.spans().size() >= 8; }));

  const obs::http_result status =
      obs::http_get(http.host(), http.port(), "/statusz");
  ASSERT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("connections:"), std::string::npos);
  EXPECT_NE(status.body.find("front_end:"), std::string::npos);
  EXPECT_NE(status.body.find("v2"), std::string::npos);  // negotiated version
  EXPECT_NE(status.body.find("build:"), std::string::npos);

  const obs::http_result traces =
      obs::http_get(http.host(), http.port(), "/tracez");
  ASSERT_EQ(traces.status, 200);
  EXPECT_NE(traces.body.find("client.rtt"), std::string::npos);
  EXPECT_NE(traces.body.find("serve.exec"), std::string::npos);
  EXPECT_NE(traces.body.find("net.write"), std::string::npos);
}

TEST(HttpIntrospection, StatuszListsKeptTraces) {
  auto& f = plane();
  obs::metric_registry metrics;
  obs::trace_ring ring;  // never armed: only the kept set fills
  serve::server_config scfg;
  scfg.metrics = &metrics;
  scfg.traces = &ring;
  serve::readout_server server(f.engines(), scfg);
  serve::readout_request late{0, &f.data.test, serve::engine_kind::fixed_q16};
  late.deadline_seconds = 1e-9;  // expires before any shard starts
  EXPECT_EQ(server.wait(server.submit(late)).status,
            serve::request_status::timed_out);

  obs::http_server http = make_server();
  net::introspection_config ic;
  ic.metrics = &metrics;
  ic.traces = &ring;
  net::install_introspection_handlers(http, std::move(ic));
  const obs::http_result status =
      obs::http_get(http.host(), http.port(), "/statusz");
  ASSERT_EQ(status.status, 200);
  EXPECT_NE(status.body.find("kept_traces:"), std::string::npos);
  EXPECT_NE(status.body.find("[timed-out]"), std::string::npos);
  EXPECT_NE(status.body.find("serve.exec="), std::string::npos);
  EXPECT_NE(status.body.find("qubit=0"), std::string::npos);
}

}  // namespace
