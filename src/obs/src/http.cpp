#include "klinq/obs/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <vector>

#include "klinq/common/env.hpp"
#include "klinq/common/error.hpp"

namespace klinq::obs {

namespace {

constexpr std::string_view kCrlfCrlf = "\r\n\r\n";

const char* reason_phrase(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string render_response(const http_response& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    reason_phrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

void set_nonblocking(int fd) noexcept {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void parse_bind(const std::string& bind, std::string& host,
                std::uint16_t& port) {
  std::string text = bind;
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    host = "127.0.0.1";
  } else {
    host = colon == 0 ? "127.0.0.1" : text.substr(0, colon);
    text = text.substr(colon + 1);
  }
  KLINQ_REQUIRE(!text.empty(), "http_server: bind address has no port");
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 10);
  KLINQ_REQUIRE(end != nullptr && *end == '\0' && value <= 65535,
                "http_server: unparsable port in '" + bind + "'");
  port = static_cast<std::uint16_t>(value);
}

double now_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

http_config http_config::from_env() {
  http_config config;
  config.bind_address = env_string("KLINQ_HTTP", "");
  return config;
}

struct http_server::impl {
  http_config config;
  std::string host;
  std::uint16_t port = 0;
  int listen_fd = -1;
  int wake_read = -1;   // self-pipe so stop() interrupts poll()
  int wake_write = -1;
  std::thread thread;
  std::atomic<bool> stopping{false};
  bool stopped = false;
  std::mutex stop_mutex;

  std::mutex handler_mutex;
  std::map<std::string,
           std::function<http_response(const http_request&)>> handlers;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> not_found{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> over_capacity{0};
  std::atomic<std::uint64_t> evicted{0};

  struct connection {
    int fd = -1;
    std::string read_buffer;
    std::string write_buffer;
    std::size_t write_offset = 0;
    /// accept time + read_timeout_seconds; bounds the request and the
    /// response alike, so a client that never reads cannot keep its slot.
    double deadline = 0.0;
    bool responding = false;  // request parsed; draining write_buffer
  };
  std::vector<connection> conns;

  void run();
  void handle_readable(connection& conn);
  void respond(connection& conn, const http_response& response);
  http_response dispatch(const std::string& request_text, bool& routed);
};

http_server::http_server(http_config config)
    : impl_(std::make_unique<impl>()) {
  impl_->config = config;
  KLINQ_REQUIRE(!config.bind_address.empty(),
                "http_server: bind address must be non-empty");
  KLINQ_REQUIRE(config.max_connections > 0 && config.max_request_bytes > 0,
                "http_server: limits must be positive");
  // A NaN deadline never expires (a silent client keeps its slot) and a
  // non-positive one evicts every connection on its first turn.
  KLINQ_REQUIRE(std::isfinite(config.read_timeout_seconds) &&
                    config.read_timeout_seconds > 0.0,
                "http_server: read_timeout_seconds must be finite and "
                "positive");
  parse_bind(config.bind_address, impl_->host, impl_->port);

  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) throw io_error("http_server: socket() failed");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl_->port);
  if (::inet_pton(AF_INET, impl_->host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl_->listen_fd);
    throw io_error("http_server: unparsable host '" + impl_->host + "'");
  }
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(impl_->listen_fd, 16) != 0) {
    ::close(impl_->listen_fd);
    throw io_error("http_server: cannot bind " + config.bind_address);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  impl_->port = ntohs(addr.sin_port);
  set_nonblocking(impl_->listen_fd);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(impl_->listen_fd);
    throw io_error("http_server: pipe() failed");
  }
  impl_->wake_read = pipe_fds[0];
  impl_->wake_write = pipe_fds[1];
  set_nonblocking(impl_->wake_read);

  impl_->thread = std::thread([this] { impl_->run(); });
}

http_server::~http_server() { stop(); }

void http_server::add_handler(
    std::string path,
    std::function<http_response(const http_request&)> handler) {
  const std::lock_guard lock(impl_->handler_mutex);
  impl_->handlers[std::move(path)] = std::move(handler);
}

std::uint16_t http_server::port() const noexcept { return impl_->port; }

const std::string& http_server::host() const noexcept { return impl_->host; }

http_stats http_server::stats() const noexcept {
  http_stats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.served = impl_->served.load(std::memory_order_relaxed);
  s.not_found = impl_->not_found.load(std::memory_order_relaxed);
  s.malformed = impl_->malformed.load(std::memory_order_relaxed);
  s.over_capacity = impl_->over_capacity.load(std::memory_order_relaxed);
  s.evicted = impl_->evicted.load(std::memory_order_relaxed);
  return s;
}

void http_server::stop() {
  {
    const std::lock_guard lock(impl_->stop_mutex);
    if (impl_->stopped) return;
    impl_->stopped = true;
  }
  impl_->stopping.store(true, std::memory_order_relaxed);
  if (impl_->wake_write >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(impl_->wake_write, &byte, 1);
  }
  if (impl_->thread.joinable()) impl_->thread.join();
  for (auto& conn : impl_->conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  impl_->conns.clear();
  if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
  if (impl_->wake_read >= 0) ::close(impl_->wake_read);
  if (impl_->wake_write >= 0) ::close(impl_->wake_write);
  impl_->listen_fd = impl_->wake_read = impl_->wake_write = -1;
}

http_response http_server::impl::dispatch(const std::string& request_text,
                                          bool& routed) {
  routed = false;
  const std::size_t line_end = request_text.find("\r\n");
  const std::string line = request_text.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    malformed.fetch_add(1, std::memory_order_relaxed);
    return {400, "text/plain; charset=utf-8", "bad request line\n"};
  }
  const std::string method = line.substr(0, sp1);
  if (method != "GET") {
    malformed.fetch_add(1, std::memory_order_relaxed);
    return {405, "text/plain; charset=utf-8", "GET only\n"};
  }
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target.empty() || target[0] != '/') {
    malformed.fetch_add(1, std::memory_order_relaxed);
    return {400, "text/plain; charset=utf-8", "bad target\n"};
  }
  http_request request;
  const std::size_t question = target.find('?');
  request.path = target.substr(0, question);
  if (question != std::string::npos) {
    request.query = target.substr(question + 1);
  }
  std::function<http_response(const http_request&)> handler;
  {
    const std::lock_guard lock(handler_mutex);
    const auto it = handlers.find(request.path);
    if (it != handlers.end()) handler = it->second;
  }
  if (!handler) {
    not_found.fetch_add(1, std::memory_order_relaxed);
    return {404, "text/plain; charset=utf-8", "not found\n"};
  }
  routed = true;
  try {
    return handler(request);
  } catch (const std::exception& e) {
    return {500, "text/plain; charset=utf-8",
            std::string("handler error: ") + e.what() + "\n"};
  }
}

void http_server::impl::respond(connection& conn,
                                const http_response& response) {
  conn.write_buffer = render_response(response);
  conn.write_offset = 0;
  conn.responding = true;
}

void http_server::impl::handle_readable(connection& conn) {
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.read_buffer.append(buf, static_cast<std::size_t>(n));
      if (conn.read_buffer.size() > config.max_request_bytes) {
        malformed.fetch_add(1, std::memory_order_relaxed);
        respond(conn, {431, "text/plain; charset=utf-8",
                       "request too large\n"});
        return;
      }
      const std::size_t end = conn.read_buffer.find(kCrlfCrlf);
      if (end != std::string::npos) {
        bool routed = false;
        const http_response response = dispatch(conn.read_buffer, routed);
        if (routed) served.fetch_add(1, std::memory_order_relaxed);
        respond(conn, response);
        return;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      // Peer closed (or errored) before a full request: just drop it.
      ::close(conn.fd);
      conn.fd = -1;
    }
    return;
  }
}

void http_server::impl::run() {
  while (!stopping.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    fds.push_back({wake_read, POLLIN, 0});
    fds.push_back({listen_fd, POLLIN, 0});
    for (const connection& conn : conns) {
      short events = conn.responding ? POLLOUT : POLLIN;
      fds.push_back({conn.fd, events, 0});
    }
    ::poll(fds.data(), fds.size(), 100);
    if (stopping.load(std::memory_order_relaxed)) return;

    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) break;
        accepted.fetch_add(1, std::memory_order_relaxed);
        set_nonblocking(fd);
        if (conns.size() >= config.max_connections) {
          // Over capacity: answer 503 best-effort and close — the shed
          // discipline of the front end, minus the queueing. The FIN goes
          // out behind the 503 and the request that has arrived (up to the
          // request bound) is drained first: a socket closed with unread
          // bytes answers with a reset, which would cost the client the
          // 503 it was already sent.
          over_capacity.fetch_add(1, std::memory_order_relaxed);
          const std::string shed = render_response(
              {503, "text/plain; charset=utf-8", "over capacity\n"});
          [[maybe_unused]] const ssize_t n =
              ::send(fd, shed.data(), shed.size(), MSG_NOSIGNAL);
          ::shutdown(fd, SHUT_WR);
          char sink[1024];
          std::size_t drained = 0;
          ssize_t got = 0;
          while (drained < config.max_request_bytes &&
                 (got = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT)) > 0) {
            drained += static_cast<std::size_t>(got);
          }
          ::close(fd);
          continue;
        }
        connection conn;
        conn.fd = fd;
        conn.deadline = now_seconds() + config.read_timeout_seconds;
        conns.push_back(std::move(conn));
      }
    }

    const double now = now_seconds();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      connection& conn = conns[i - 2];
      if (conn.fd < 0) continue;
      if (!conn.responding && (fds[i].revents & (POLLIN | POLLHUP))) {
        handle_readable(conn);
      }
      if (conn.fd >= 0 && conn.responding) {
        while (conn.write_offset < conn.write_buffer.size()) {
          const ssize_t n = ::send(
              conn.fd, conn.write_buffer.data() + conn.write_offset,
              conn.write_buffer.size() - conn.write_offset, MSG_NOSIGNAL);
          if (n > 0) {
            conn.write_offset += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          ::close(conn.fd);
          conn.fd = -1;
          break;
        }
        if (conn.fd >= 0 &&
            conn.write_offset == conn.write_buffer.size()) {
          ::close(conn.fd);  // Connection: close — one request per socket
          conn.fd = -1;
        }
      }
      if (conn.fd >= 0 && now > conn.deadline) {
        evicted.fetch_add(1, std::memory_order_relaxed);
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    std::erase_if(conns, [](const connection& c) { return c.fd < 0; });
  }
}

std::unique_ptr<http_server> start_http_from_env() {
  http_config config = http_config::from_env();
  if (config.bind_address.empty()) return nullptr;
  return std::make_unique<http_server>(config);
}

http_result http_get(const std::string& host, std::uint16_t port,
                     const std::string& target, double timeout_seconds) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw io_error("http_get: socket() failed");
  timeval tv{};
  tv.tv_sec = static_cast<long>(timeout_seconds);
  tv.tv_usec = static_cast<long>(
      (timeout_seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw io_error("http_get: cannot connect to " + host + ":" +
                   std::to_string(port));
  }
  const std::string request = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      throw io_error("http_get: send failed");
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) break;
    ::close(fd);
    throw io_error("http_get: recv failed or timed out");
  }
  ::close(fd);
  http_result result;
  const std::size_t sp = raw.find(' ');
  KLINQ_REQUIRE(sp != std::string::npos && raw.compare(0, 5, "HTTP/") == 0,
                "http_get: malformed status line");
  result.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t body = raw.find(kCrlfCrlf);
  if (body != std::string::npos) {
    result.body = raw.substr(body + kCrlfCrlf.size());
  }
  return result;
}

}  // namespace klinq::obs
