// Minimal read-only HTTP/1.1 introspection server.
//
// A single poll-loop thread serving GET requests from registered handlers —
// the live plane behind /metrics, /healthz, /statusz, and /tracez. It is
// deliberately not a web server: GET only, Connection: close, bounded
// request size, bounded connection count, and a per-connection deadline
// over the request and the response alike, mirroring the TCP front end's
// eviction/quota discipline (it cannot reuse that code — net layers above
// obs). Handlers run on the serving thread and must be fast and
// lock-light; everything they expose here is a snapshot read.
//
// Enabled from the environment: KLINQ_HTTP=host:port (bare port accepted;
// port 0 binds an ephemeral port, readable back via port()).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace klinq::obs {

struct http_config {
  std::string bind_address = "127.0.0.1:0";
  std::size_t max_connections = 16;     // accept() beyond this: 503 + close
  std::size_t max_request_bytes = 8192; // header bytes before 431 + close
  /// A connection still open this long after accept is evicted, whether it
  /// is still sending its request or not reading its response.
  double read_timeout_seconds = 5.0;
  /// Parses KLINQ_HTTP ("host:port" or bare "port"); empty bind_address
  /// (variable unset) means "do not serve".
  static http_config from_env();
};

struct http_request {
  std::string path;   // decoded target without the query string
  std::string query;  // bytes after '?', verbatim ("" when absent)
};

struct http_response {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Counters over the server's lifetime (all relaxed).
struct http_stats {
  std::uint64_t accepted = 0;
  std::uint64_t served = 0;          // responses with a handler-made body
  std::uint64_t not_found = 0;       // 404s
  std::uint64_t malformed = 0;       // 400/405/431 rejections
  std::uint64_t over_capacity = 0;   // connections shed with 503
  std::uint64_t evicted = 0;         // deadline evictions (read or write)
};

class http_server {
 public:
  /// Binds and starts the serving thread; throws io_error when the address
  /// cannot be bound. Register handlers before or after start — the table
  /// is mutex-guarded.
  explicit http_server(http_config config);
  ~http_server();

  http_server(const http_server&) = delete;
  http_server& operator=(const http_server&) = delete;

  /// Routes exact-match GET `path` to `handler`. Replaces any previous
  /// handler for the path.
  void add_handler(std::string path,
                   std::function<http_response(const http_request&)> handler);

  /// The bound port (after an ephemeral bind resolves).
  std::uint16_t port() const noexcept;
  const std::string& host() const noexcept;

  http_stats stats() const noexcept;

  /// Stops the thread and closes every socket. Idempotent.
  void stop();

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// Starts a server when KLINQ_HTTP is set; null when unset.
std::unique_ptr<http_server> start_http_from_env();

/// Blocking one-shot GET against a local server (test/tool helper). Throws
/// io_error on connect/transport failure; returns the parsed status line
/// code and the body.
struct http_result {
  int status = 0;
  std::string body;
};
http_result http_get(const std::string& host, std::uint16_t port,
                     const std::string& target,
                     double timeout_seconds = 5.0);

}  // namespace klinq::obs
