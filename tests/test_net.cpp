// TCP serving front end: wire protocol codec, admission control, overload
// shedding, hostile-client handling, and ticket-accounting reconciliation.
//
// The contract under test: results served over a real loopback socket are
// bit-identical to the serial per-qubit path; every protocol violation kills
// exactly the offending connection; every admitted request is answered,
// dropped (counted) for a departed client, or still in flight — never
// leaked; and overload is shed with explicit retriable busy frames instead
// of unbounded queues.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/common/stopwatch.hpp"
#include "klinq/common/thread_pool.hpp"
#include "klinq/fault/fault.hpp"
#include "klinq/hw/fixed_discriminator.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/net/client.hpp"
#include "klinq/net/frame.hpp"
#include "klinq/net/tcp_front_end.hpp"
#include "klinq/obs/metrics.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/serve/readout_server.hpp"
#include "parked_workers.hpp"

namespace {

using namespace klinq;
using fx::q16_16;
using test_support::parked_workers;

// One trained qubit is enough: the serve layer's multi-qubit behavior is
// test_serve's concern — here the subject is the network path in front of
// it.
struct net_fixture {
  qsim::qubit_dataset data;
  kd::student_model student;
  std::vector<hw::fixed_discriminator<q16_16>> hardware;
  std::vector<q16_16> expected_registers;
  std::vector<float> expected_logits;

  net_fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 100;
    spec.shots_per_permutation_test = 100;
    spec.seed = 17;
    data = qsim::build_qubit_dataset(spec, 0);
    kd::student_config config;
    config.groups_per_quadrature = 10;
    config.epochs = 3;
    config.seed = 5;
    student = kd::distill_student(data.train, {}, config);
    hardware.emplace_back(student);
    expected_registers.resize(data.test.size());
    hardware[0].logits(data.test, expected_registers);
    expected_logits = student.predict_batch(data.test);
  }

  std::vector<serve::qubit_engine> engines() const {
    return {{&student, &hardware[0]}};
  }

  /// First `rows` shots of the test set (a small request).
  data::trace_dataset small_block(std::size_t rows) const {
    std::vector<std::size_t> indices;
    for (std::size_t r = 0; r < rows; ++r) indices.push_back(r);
    return data.test.subset(indices);
  }
};

net_fixture& fixture() {
  static net_fixture f;
  return f;
}

/// Serial-path registers for an arbitrary block (the bit-exactness oracle).
std::vector<q16_16> serial_registers(const data::trace_dataset& block) {
  std::vector<q16_16> out(block.size());
  fixture().hardware[0].logits(block, out);
  return out;
}

void expect_fixed_response(const net::response_view& view,
                           const data::trace_dataset& block) {
  const std::vector<q16_16> expected = serial_registers(block);
  ASSERT_EQ(view.status, serve::request_status::ok);
  ASSERT_EQ(view.engine, serve::engine_kind::fixed_q16);
  ASSERT_EQ(view.shots, block.size());
  ASSERT_EQ(view.registers.size(), expected.size());
  ASSERT_TRUE(view.logits.empty());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(view.registers[r], expected[r].raw()) << "row " << r;
    ASSERT_EQ(view.states[r] != 0, !expected[r].sign_bit()) << "row " << r;
  }
}

/// Spins on `probe` until true or `timeout_seconds`; returns the last value.
bool wait_until(const std::function<bool()>& probe,
                double timeout_seconds = 5.0) {
  stopwatch timer;
  while (timer.seconds() < timeout_seconds) {
    if (probe()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return probe();
}

/// Entries of a /proc/self directory: open fds ("fd") or live threads
/// ("task").
std::size_t proc_self_entries(const char* dir) {
  const std::filesystem::directory_iterator it(
      std::filesystem::path("/proc/self") / dir);
  return static_cast<std::size_t>(
      std::distance(std::filesystem::begin(it), std::filesystem::end(it)));
}

net::request_info fixed_request(double deadline_seconds = 0.0) {
  net::request_info info;
  info.qubit = 0;
  info.engine = serve::engine_kind::fixed_q16;
  info.deadline_seconds = deadline_seconds;
  return info;
}

/// `rows` consecutive test-set shots starting at `first`.
data::trace_dataset test_rows(std::size_t first, std::size_t rows) {
  std::vector<std::size_t> indices;
  for (std::size_t r = first; r < first + rows; ++r) indices.push_back(r);
  return fixture().data.test.subset(indices);
}

/// The header and fixed prefix of a bulk request announcing `shots` rows of
/// `samples` samples per quadrature, none of which follow.
std::vector<std::uint8_t> request_prefix(std::uint64_t request_id,
                                         std::uint32_t samples,
                                         std::uint32_t shots) {
  std::vector<std::uint8_t> bytes =
      net::encode_request(request_id, fixed_request(), serve::lane_class::bulk,
                          data::trace_dataset(0, samples));
  std::memcpy(bytes.data() + net::kHeaderSize + 20, &shots, sizeof(shots));
  net::frame_header header;
  EXPECT_EQ(net::decode_header(bytes.data(), header), net::header_verdict::ok);
  header.payload_size =
      static_cast<std::uint32_t>(net::request_payload_size(shots, samples));
  net::encode_header(header, bytes.data());
  return bytes;
}

/// The process's resident set size, in bytes.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/// A loopback connection to `port` whose receive buffer is shrunk before
/// connect, so a reply stream backs up into the server's write buffer. Reads
/// time out after 5 s.
int small_window_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  const int rcvbuf = 2048;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Shrinks the send buffer of the front end's end of `client_fd`'s
/// connection (found among this process's fds by its peer address), so a
/// flush of more than a few KiB stops part-way through a frame. False until
/// the loop has accepted the connection.
bool shrink_server_send_buffer(int client_fd) {
  sockaddr_in local{};
  socklen_t local_len = sizeof(local);
  ::getsockname(client_fd, reinterpret_cast<sockaddr*>(&local), &local_len);
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    if (fd == client_fd ||
        ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) !=
            0 ||
        peer_len != sizeof(peer) || peer.sin_family != AF_INET ||
        peer.sin_port != local.sin_port) {
      continue;
    }
    const int sndbuf = 4096;
    return ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf,
                        sizeof(sndbuf)) == 0;
  }
  return false;
}

/// Sends all of `bytes`; false when the peer closed or reset.
bool send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// --- frame codec (no sockets) ----------------------------------------------

TEST(NetFrame, HeaderRoundTripAllTypesAndLanes) {
  for (std::uint8_t t = 1; t <= 8; ++t) {
    for (std::uint8_t lane = 0; lane <= 1; ++lane) {
      net::frame_header header;
      header.type = static_cast<net::frame_type>(t);
      header.lane = static_cast<serve::lane_class>(lane);
      header.request_id = 0x0123456789ABCDEFull + t;
      header.payload_size = 40 * t;
      std::uint8_t bytes[net::kHeaderSize];
      net::encode_header(header, bytes);
      net::frame_header decoded;
      ASSERT_EQ(net::decode_header(bytes, decoded), net::header_verdict::ok);
      EXPECT_EQ(decoded.version, net::kProtocolVersion);
      EXPECT_EQ(decoded.type, header.type);
      EXPECT_EQ(decoded.lane, header.lane);
      EXPECT_EQ(decoded.request_id, header.request_id);
      EXPECT_EQ(decoded.payload_size, header.payload_size);
    }
  }
}

TEST(NetFrame, HeaderRejectsEverySingleBitFlip) {
  // The CRC covers bytes [0, 20); flipping any bit of the header — including
  // the CRC field itself — must yield a non-ok verdict. This is the framing
  // guarantee that makes a desynced stream detectable at the next boundary.
  net::frame_header header;
  header.type = net::frame_type::request;
  header.request_id = 42;
  header.payload_size = 1000;
  std::uint8_t golden[net::kHeaderSize];
  net::encode_header(header, golden);
  for (std::size_t byte = 0; byte < net::kHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t mutated[net::kHeaderSize];
      std::memcpy(mutated, golden, net::kHeaderSize);
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      net::frame_header out;
      EXPECT_NE(net::decode_header(mutated, out), net::header_verdict::ok)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(NetFrame, HeaderVerdictsAreTyped) {
  net::frame_header header;
  header.type = net::frame_type::ping;
  header.request_id = 7;
  std::uint8_t bytes[net::kHeaderSize];

  net::encode_header(header, bytes);
  bytes[0] ^= 0xFF;  // magic
  net::frame_header out;
  EXPECT_EQ(net::decode_header(bytes, out), net::header_verdict::bad_magic);

  // Re-encode with a wrong version and a *valid* CRC: the verdict must be
  // bad_version (with the request id recoverable for the error frame), not
  // a generic CRC failure.
  net::encode_header(header, bytes);
  bytes[4] = 9;
  const std::uint32_t crc = net::crc32(bytes, 20);
  std::memcpy(bytes + 20, &crc, 4);
  EXPECT_EQ(net::decode_header(bytes, out), net::header_verdict::bad_version);
  EXPECT_EQ(out.request_id, 7u);

  net::encode_header(header, bytes);
  bytes[5] = 0;  // frame type 0 is invalid
  const std::uint32_t crc2 = net::crc32(bytes, 20);
  std::memcpy(bytes + 20, &crc2, 4);
  EXPECT_EQ(net::decode_header(bytes, out), net::header_verdict::bad_type);
}

/// Decodes a request payload as the server does: the fixed prefix first,
/// then the rows copied into the storage request_rows shapes for them.
net::request_info decode_payload(std::span<const std::uint8_t> payload,
                                 data::trace_dataset& traces) {
  const net::request_info info =
      net::decode_request_prefix(payload.data(), payload.size());
  const std::span<std::uint8_t> rows =
      net::request_rows(info, info.shots, traces);
  if (!rows.empty()) {
    std::memcpy(rows.data(), payload.data() + net::kRequestPayloadHeaderSize,
                rows.size());
  }
  return info;
}

TEST(NetFrame, RequestRoundTripIsLossless) {
  auto& f = fixture();
  const data::trace_dataset block = f.small_block(6);
  net::request_info info = fixed_request(0.25);
  const std::vector<std::uint8_t> frame = net::encode_request(
      99, info, serve::lane_class::feedback, block);
  net::frame_header header;
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  EXPECT_EQ(header.type, net::frame_type::request);
  EXPECT_EQ(header.lane, serve::lane_class::feedback);
  EXPECT_EQ(header.request_id, 99u);
  data::trace_dataset decoded;
  const net::request_info out = decode_payload(
      std::span<const std::uint8_t>(frame.data() + net::kHeaderSize,
                                    header.payload_size),
      decoded);
  EXPECT_EQ(out.qubit, 0u);
  EXPECT_EQ(out.engine, serve::engine_kind::fixed_q16);
  EXPECT_EQ(out.deadline_seconds, 0.25);
  ASSERT_EQ(decoded.size(), block.size());
  ASSERT_EQ(decoded.samples_per_quadrature(), block.samples_per_quadrature());
  for (std::size_t r = 0; r < block.size(); ++r) {
    const auto a = block.trace(r);
    const auto b = decoded.trace(r);
    for (std::size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c], b[c]) << "row " << r << " col " << c;
    }
  }
}

TEST(NetFrame, RequestDecodeRejectsInconsistentPayloads) {
  auto& f = fixture();
  const data::trace_dataset block = f.small_block(2);
  const std::vector<std::uint8_t> frame =
      net::encode_request(1, fixed_request(), serve::lane_class::bulk, block);
  const std::uint8_t* payload = frame.data() + net::kHeaderSize;
  const std::size_t payload_size = frame.size() - net::kHeaderSize;
  ASSERT_NO_THROW(net::decode_request_prefix(payload, payload_size));

  // Truncated payload: size disagrees with shots × samples.
  EXPECT_THROW(net::decode_request_prefix(payload, payload_size - 4),
               invalid_argument_error);
  // Shorter than even the fixed prefix.
  EXPECT_THROW(net::decode_request_prefix(payload, 8), invalid_argument_error);

  std::vector<std::uint8_t> bad(payload, payload + payload_size);
  bad[4] = 7;  // unknown engine
  EXPECT_THROW(net::decode_request_prefix(bad.data(), bad.size()),
               invalid_argument_error);
  bad[4] = 0;
  bad[5] = 1;  // reserved byte must be zero
  EXPECT_THROW(net::decode_request_prefix(bad.data(), bad.size()),
               invalid_argument_error);

  // shots × samples × 8 = 2^64: the product wraps to an empty row section,
  // which must not pass for the 24-byte prefix-only payload it mimics.
  std::vector<std::uint8_t> wrapped(payload,
                                    payload + net::kRequestPayloadHeaderSize);
  const std::uint32_t samples = 1u << 30;
  const std::uint32_t shots = 1u << 31;
  std::memcpy(wrapped.data() + 16, &samples, sizeof(samples));
  std::memcpy(wrapped.data() + 20, &shots, sizeof(shots));
  EXPECT_THROW(net::decode_request_prefix(wrapped.data(), wrapped.size()),
               invalid_argument_error);
}

TEST(NetFrame, ResponseRoundTripFixedAndFloat) {
  serve::readout_result result;
  result.qubit = 0;
  result.engine = serve::engine_kind::fixed_q16;
  result.states = {1, 0, 1};
  result.registers = {q16_16::from_double(1.5), q16_16::from_double(-0.25),
                      q16_16::from_double(3.0)};
  result.latency_seconds = 0.125;
  result.model_version = 12;
  std::vector<std::uint8_t> frame = net::encode_response(55, result);
  net::frame_header header;
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  EXPECT_EQ(header.type, net::frame_type::response);
  net::response_view view = net::decode_response(
      std::span<const std::uint8_t>(frame.data() + net::kHeaderSize,
                                    header.payload_size));
  EXPECT_EQ(view.status, serve::request_status::ok);
  EXPECT_EQ(view.model_version, 12u);
  EXPECT_EQ(view.latency_seconds, 0.125);
  ASSERT_EQ(view.shots, 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(view.registers[r], result.registers[r].raw());
    EXPECT_EQ(view.states[r], result.states[r]);
  }

  result.engine = serve::engine_kind::float_student;
  result.registers.clear();
  result.logits = {0.5f, -1.25f, 2.0f};
  frame = net::encode_response(56, result);
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  view = net::decode_response(
      std::span<const std::uint8_t>(frame.data() + net::kHeaderSize,
                                    header.payload_size));
  ASSERT_EQ(view.logits.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(view.logits[r], result.logits[r]);
  }

  // Non-ok statuses carry no data rows.
  result.status = serve::request_status::cancelled;
  frame = net::encode_response(57, result);
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  view = net::decode_response(
      std::span<const std::uint8_t>(frame.data() + net::kHeaderSize,
                                    header.payload_size));
  EXPECT_EQ(view.status, serve::request_status::cancelled);
  EXPECT_EQ(view.shots, 0u);
  EXPECT_TRUE(view.states.empty());
}

TEST(NetFrame, ControlBusyErrorRoundTrip) {
  std::vector<std::uint8_t> frame =
      net::encode_busy(11, net::busy_reason::connection_bytes);
  net::frame_header header;
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  EXPECT_EQ(header.type, net::frame_type::busy);
  EXPECT_EQ(net::decode_busy(std::span<const std::uint8_t>(
                frame.data() + net::kHeaderSize, header.payload_size)),
            net::busy_reason::connection_bytes);

  frame = net::encode_error(12, net::error_code::oversize_frame, "too big");
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  const net::error_view error = net::decode_error(std::span<const std::uint8_t>(
      frame.data() + net::kHeaderSize, header.payload_size));
  EXPECT_EQ(error.code, net::error_code::oversize_frame);
  EXPECT_EQ(error.message, "too big");
}

// --- config / stats validation ---------------------------------------------

TEST(NetConfig, ValidateRejectsEachBadField) {
  const net::front_end_config good;
  good.validate();
  const auto rejects = [&](auto mutate) {
    net::front_end_config c;
    mutate(c);
    EXPECT_THROW(c.validate(), invalid_argument_error);
  };
  rejects([](auto& c) { c.bind_address.clear(); });
  rejects([](auto& c) { c.listen_backlog = 0; });
  rejects([](auto& c) { c.max_connections = 0; });
  rejects([](auto& c) { c.max_inflight_per_connection = 0; });
  rejects([](auto& c) { c.max_inflight_bytes_per_connection = 0; });
  rejects([](auto& c) { c.max_inflight = 0; });
  rejects([](auto& c) { c.feedback_reserve = c.max_inflight; });
  rejects([](auto& c) { c.read_idle_seconds = -1.0; });
  rejects([](auto& c) { c.write_stall_seconds = -1.0; });
  rejects([](auto& c) { c.max_write_queue_bytes = 0; });
  rejects([](auto& c) { c.max_frame_payload = 8; });
  rejects([](auto& c) { c.drain_timeout_seconds = -1.0; });
  rejects([](auto& c) { c.poll_interval_seconds = 0.0; });
}

TEST(NetConfig, StatsValidateCatchesInconsistentCounters) {
  net::front_end_stats s;
  s.validate();  // all-zero is consistent
  const auto rejects = [](auto mutate) {
    net::front_end_stats s;
    mutate(s);
    EXPECT_THROW(s.validate(), invalid_argument_error);
  };
  rejects([](auto& s) { s.connections_closed = 1; });
  rejects([](auto& s) {
    s.connections_accepted = 2;
    s.connections_closed = 2;
    s.connections_evicted = 3;
  });
  rejects([](auto& s) {
    s.connections_accepted = 3;
    s.connections_closed = 1;
    s.open_connections = 1;  // must be 2
  });
  rejects([](auto& s) { s.responses_sent = 1; });  // nothing admitted
  rejects([](auto& s) {
    s.requests_admitted = 2;
    s.responses_sent = 1;  // one ticket unaccounted for
  });
  rejects([](auto& s) { s.cancels_received = 1; });  // with no frames at all
  rejects([](auto& s) {
    s.frames_received = 1;
    s.pongs_sent = 1;  // a pong with no ping
  });
}

TEST(NetConfig, FromEnvAppliesAndRejectsOverrides) {
  const auto with_env = [](const char* name, const char* value, auto body) {
    ::setenv(name, value, 1);
    body();
    ::unsetenv(name);
  };
  with_env("KLINQ_LISTEN", "0.0.0.0:4242", [] {
    const net::front_end_config c = net::front_end_config::from_env();
    EXPECT_EQ(c.bind_address, "0.0.0.0");
    EXPECT_EQ(c.port, 4242);
  });
  with_env("KLINQ_LISTEN", "4242", [] {  // bare port keeps the address
    const net::front_end_config c = net::front_end_config::from_env();
    EXPECT_EQ(c.bind_address, "127.0.0.1");
    EXPECT_EQ(c.port, 4242);
  });
  with_env("KLINQ_NET_MAX_CONNECTIONS", "7", [] {
    EXPECT_EQ(net::front_end_config::from_env().max_connections, 7u);
  });
  with_env("KLINQ_NET_READ_IDLE_SECONDS", "1.5", [] {
    EXPECT_EQ(net::front_end_config::from_env().read_idle_seconds, 1.5);
  });
  with_env("KLINQ_NET_FEEDBACK_RESERVE", "3", [] {
    EXPECT_EQ(net::front_end_config::from_env().feedback_reserve, 3u);
  });
  with_env("KLINQ_LISTEN", "127.0.0.1:notaport", [] {
    EXPECT_THROW(net::front_end_config::from_env(), invalid_argument_error);
  });
  with_env("KLINQ_NET_MAX_INFLIGHT", "12oops", [] {
    EXPECT_THROW(net::front_end_config::from_env(), invalid_argument_error);
  });
}

// --- end-to-end serving -----------------------------------------------------

TEST(NetServing, FixedResponseBitExactOverLoopback) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const std::uint64_t id = cli.send_request(fixed_request(), f.data.test);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  const net::response_view view = net::decode_response(reply->payload);
  expect_fixed_response(view, f.data.test);
  EXPECT_EQ(view.model_version, 0u);  // static engine binding

  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(NetServing, FloatResponseBitExactOverLoopback) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  net::request_info info = fixed_request();
  info.engine = serve::engine_kind::float_student;
  const std::uint64_t id = cli.send_request(info, f.data.test);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  const net::response_view view = net::decode_response(reply->payload);
  ASSERT_EQ(view.status, serve::request_status::ok);
  ASSERT_EQ(view.engine, serve::engine_kind::float_student);
  ASSERT_EQ(view.logits.size(), f.expected_logits.size());
  for (std::size_t r = 0; r < view.logits.size(); ++r) {
    ASSERT_EQ(view.logits[r], f.expected_logits[r]) << "row " << r;
    ASSERT_EQ(view.states[r] != 0, f.expected_logits[r] >= 0.0f);
  }
}

TEST(NetServing, PingPong) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  cli.send_ping(42);
  const auto frame = cli.read_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->header.type, net::frame_type::pong);
  EXPECT_EQ(frame->header.request_id, 42u);
}

TEST(NetServing, FeedbackOvertakesQueuedBulkAndCancelWorksOverWire) {
  if (!parked_workers::holds_work()) {
    GTEST_SKIP() << "workerless pool: dispatched work runs inline at submit, "
                    "so no request can be held in flight";
  }
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(8);

  // Every pool worker is parked, so the bulk request stays queued while the
  // feedback request — which runs on the loop thread — completes.
  parked_workers parked;
  const std::uint64_t bulk_id =
      cli.send_request(fixed_request(), block, serve::lane_class::bulk);
  const std::uint64_t feedback_id =
      cli.send_request(fixed_request(), block, serve::lane_class::feedback);
  const auto feedback_reply = cli.read_reply(feedback_id);
  ASSERT_TRUE(feedback_reply.has_value());
  ASSERT_EQ(feedback_reply->header.type, net::frame_type::response);
  EXPECT_EQ(server.stats().feedback_requests, 1u);

  // Cancel the queued bulk request over the wire. The loop handles frames in
  // order, so the pong proves the cancel landed before the workers go.
  cli.send_cancel(bulk_id);
  cli.send_ping(77);
  const auto pong = cli.read_frame();
  ASSERT_TRUE(pong.has_value());
  ASSERT_EQ(pong->header.type, net::frame_type::pong);
  EXPECT_EQ(pong->header.request_id, 77u);
  parked.release();
  const auto bulk_reply = cli.read_reply(bulk_id);
  ASSERT_TRUE(bulk_reply.has_value());
  ASSERT_EQ(bulk_reply->header.type, net::frame_type::response);
  EXPECT_EQ(net::decode_response(bulk_reply->payload).status,
            serve::request_status::cancelled);
  // Checked after the release: the serial oracle may use the pool.
  expect_fixed_response(net::decode_response(feedback_reply->payload), block);

  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.responses_sent, 2u);
  EXPECT_EQ(stats.cancels_received, 1u);
}

TEST(NetServing, FeedbackReplyArrivesWhileEveryWorkerIsBusy) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(1);

  const parked_workers parked;
  // The loop thread runs the request itself, so the reply needs no worker.
  const std::uint64_t id =
      cli.send_request(fixed_request(), block, serve::lane_class::feedback);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(reply->payload), block);
  EXPECT_EQ(server.stats().feedback_requests, 1u);
}

/// Confines the calling thread to the CPU it is on while in scope; threads
/// it starts meanwhile keep that one-CPU mask.
struct on_one_cpu {
  cpu_set_t saved{};
  on_one_cpu() {
    EXPECT_EQ(::sched_getaffinity(0, sizeof(saved), &saved), 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(::sched_getcpu(), &one);
    EXPECT_EQ(::sched_setaffinity(0, sizeof(one), &one), 0);
  }
  ~on_one_cpu() { ::sched_setaffinity(0, sizeof(saved), &saved); }
  on_one_cpu(const on_one_cpu&) = delete;
  on_one_cpu& operator=(const on_one_cpu&) = delete;
};

TEST(NetServing, LoopOnOneCpuServesABulkBurstAndFeedbackBitExact) {
  // A loop thread confined to one CPU wakes the pool once per turn, at the
  // turn's end: every bulk request of a burst read in one turn must still
  // run, and the feedback probe behind them be answered, bit-exact.
  auto& f = fixture();
  serve::readout_server server(f.engines());
  global_thread_pool();  // its workers keep the process's CPU mask
  const std::unique_ptr<net::tcp_front_end> front = [&] {
    const on_one_cpu confined;
    return std::make_unique<net::tcp_front_end>(server);
  }();
  net::client cli("127.0.0.1", front->port());
  std::vector<data::trace_dataset> blocks;
  std::vector<std::uint8_t> burst;
  for (std::size_t b = 0; b < 8; ++b) {
    blocks.push_back(test_rows(b * 20, 20));
    const std::vector<std::uint8_t> frame = net::encode_request(
        b + 1, fixed_request(), serve::lane_class::bulk, blocks.back());
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  const data::trace_dataset probe = f.small_block(1);
  const std::vector<std::uint8_t> probe_frame = net::encode_request(
      9, fixed_request(), serve::lane_class::feedback, probe);
  burst.insert(burst.end(), probe_frame.begin(), probe_frame.end());
  cli.send_bytes(burst);
  const auto probe_reply = cli.read_reply(9);
  ASSERT_TRUE(probe_reply.has_value());
  ASSERT_EQ(probe_reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(probe_reply->payload), probe);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto reply = cli.read_reply(b + 1);
    ASSERT_TRUE(reply.has_value()) << "request " << b + 1;
    ASSERT_EQ(reply->header.type, net::frame_type::response);
    expect_fixed_response(net::decode_response(reply->payload), blocks[b]);
  }
  const net::front_end_stats stats = front->stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 9u);
  EXPECT_EQ(stats.responses_sent, 9u);
}

// --- admission control and shedding ----------------------------------------

TEST(NetAdmission, PerConnectionInflightQuotaShedsWithBusy) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_inflight_per_connection = 1;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(4);

  // Both frames in ONE send: the poll loop parses them under a single lock
  // hold, so the completion of the first cannot race the admission check of
  // the second — the quota rejection is deterministic.
  std::vector<std::uint8_t> burst =
      net::encode_request(1, fixed_request(), serve::lane_class::bulk, block);
  const std::vector<std::uint8_t> second =
      net::encode_request(2, fixed_request(), serve::lane_class::bulk, block);
  burst.insert(burst.end(), second.begin(), second.end());
  cli.send_bytes(burst);

  const auto busy = cli.read_reply(2);
  ASSERT_TRUE(busy.has_value());
  ASSERT_EQ(busy->header.type, net::frame_type::busy);
  EXPECT_EQ(net::decode_busy(busy->payload),
            net::busy_reason::connection_inflight);

  const auto ok = cli.read_reply(1);
  ASSERT_TRUE(ok.has_value());
  ASSERT_EQ(ok->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(ok->payload), block);

  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.busy_rejections, 1u);
}

TEST(NetAdmission, PerConnectionByteBudgetShedsWithBusy) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  const data::trace_dataset block = f.small_block(4);
  const std::size_t payload_bytes = net::request_payload_size(
      static_cast<std::uint32_t>(block.size()),
      static_cast<std::uint32_t>(block.samples_per_quadrature()));
  net::front_end_config cfg;
  cfg.max_inflight_bytes_per_connection = payload_bytes;  // exactly one
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());

  std::vector<std::uint8_t> burst =
      net::encode_request(1, fixed_request(), serve::lane_class::bulk, block);
  const std::vector<std::uint8_t> second =
      net::encode_request(2, fixed_request(), serve::lane_class::bulk, block);
  burst.insert(burst.end(), second.begin(), second.end());
  cli.send_bytes(burst);

  const auto busy = cli.read_reply(2);
  ASSERT_TRUE(busy.has_value());
  ASSERT_EQ(busy->header.type, net::frame_type::busy);
  EXPECT_EQ(net::decode_busy(busy->payload),
            net::busy_reason::connection_bytes);
  const auto ok = cli.read_reply(1);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->header.type, net::frame_type::response);
}

TEST(NetAdmission, FeedbackReserveAdmitsFeedbackWhenBulkIsShed) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_inflight = 2;
  cfg.feedback_reserve = 1;  // bulk may use 1 slot, feedback both
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(4);

  std::vector<std::uint8_t> burst =
      net::encode_request(1, fixed_request(), serve::lane_class::bulk, block);
  const std::vector<std::uint8_t> bulk2 =
      net::encode_request(2, fixed_request(), serve::lane_class::bulk, block);
  const std::vector<std::uint8_t> feedback = net::encode_request(
      3, fixed_request(), serve::lane_class::feedback, block);
  burst.insert(burst.end(), bulk2.begin(), bulk2.end());
  burst.insert(burst.end(), feedback.begin(), feedback.end());
  cli.send_bytes(burst);

  // Second bulk request hits the bulk budget (max_inflight − reserve = 1)…
  const auto busy = cli.read_reply(2);
  ASSERT_TRUE(busy.has_value());
  ASSERT_EQ(busy->header.type, net::frame_type::busy);
  EXPECT_EQ(net::decode_busy(busy->payload), net::busy_reason::server_busy);
  // …while the feedback request takes the reserved slot.
  const auto fb = cli.read_reply(3);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->header.type, net::frame_type::response);
  const auto first = cli.read_reply(1);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->header.type, net::frame_type::response);

  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 2u);
  EXPECT_EQ(stats.busy_rejections, 1u);
}

TEST(NetAdmission, ConnectionCapShedsAtAccept) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_connections = 1;
  net::tcp_front_end front(server, cfg);
  net::client first("127.0.0.1", front.port());
  first.send_ping(1);
  ASSERT_TRUE(first.read_frame().has_value());  // first is fully registered

  net::client second("127.0.0.1", front.port());
  const auto frame = second.read_frame();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->header.type, net::frame_type::busy);
  EXPECT_EQ(net::decode_busy(frame->payload), net::busy_reason::server_busy);
  EXPECT_FALSE(second.read_frame(1.0).has_value());  // then closed

  // A client that writes before it reads still gets its busy frame, not a
  // reset, however its ping and the shed race.
  for (std::uint64_t i = 0; i < 50; ++i) {
    net::client eager("127.0.0.1", front.port());
    eager.send_ping(100 + i);
    const auto shed = eager.read_frame();
    ASSERT_TRUE(shed.has_value()) << "client " << i;
    ASSERT_EQ(shed->header.type, net::frame_type::busy) << "client " << i;
    EXPECT_EQ(net::decode_busy(shed->payload), net::busy_reason::server_busy);
  }

  // The registered client keeps serving.
  first.send_ping(2);
  const auto pong = first.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->header.type, net::frame_type::pong);
  EXPECT_GE(front.stats().connections_rejected, 1u);
}

TEST(NetAdmission, ConnectBurstOverCapCountsEveryRejection) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_connections = 1;
  net::tcp_front_end front(server, cfg);
  net::client first("127.0.0.1", front.port());
  first.send_ping(1);
  ASSERT_TRUE(first.read_frame().has_value());  // first is fully registered

  std::vector<net::client> burst;
  for (int i = 0; i < 8; ++i) burst.emplace_back("127.0.0.1", front.port());
  for (net::client& cli : burst) {
    const auto frame = cli.read_frame();
    ASSERT_TRUE(frame.has_value());
    ASSERT_EQ(frame->header.type, net::frame_type::busy);
    EXPECT_EQ(net::decode_busy(frame->payload), net::busy_reason::server_busy);
  }
  // Each rejection is counted before its busy frame is sent, so one read
  // with no waiting sees all eight.
  const net::front_end_stats stats = front.stats();
  EXPECT_EQ(stats.connections_rejected, 8u);
  EXPECT_EQ(stats.busy_rejections, 8u);
  stats.validate();
}

// --- hostile clients --------------------------------------------------------

TEST(NetHostile, MalformedFrameKillsOnlyTheOffendingConnection) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client healthy("127.0.0.1", front.port());
  healthy.send_ping(1);
  ASSERT_TRUE(healthy.read_frame().has_value());

  net::client hostile("127.0.0.1", front.port());
  std::vector<std::uint8_t> garbage(net::kHeaderSize, 0xAB);
  hostile.send_bytes(garbage);
  const auto error = hostile.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->header.type, net::frame_type::error);
  EXPECT_EQ(net::decode_error(error->payload).code,
            net::error_code::malformed_frame);
  // goodbye, then EOF — reading to exhaustion must terminate.
  while (hostile.read_frame(1.0).has_value()) {
  }

  // The healthy connection is untouched and results stay bit-exact.
  const data::trace_dataset block = f.small_block(8);
  const std::uint64_t id = healthy.send_request(fixed_request(), block);
  const auto reply = healthy.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(reply->payload), block);
  EXPECT_GE(front.stats().malformed_frames, 1u);
  front.stats().validate();
}

TEST(NetHostile, OversizeFrameIsRejectedWithTypedError) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_frame_payload = 4096;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  net::frame_header header;
  header.type = net::frame_type::request;
  header.request_id = 5;
  header.payload_size = 1u << 20;  // over the bound; no payload follows
  std::uint8_t bytes[net::kHeaderSize];
  net::encode_header(header, bytes);
  cli.send_bytes(bytes, net::kHeaderSize);
  const auto error = cli.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->header.type, net::frame_type::error);
  const net::error_view view = net::decode_error(error->payload);
  EXPECT_EQ(view.code, net::error_code::oversize_frame);
  EXPECT_EQ(error->header.request_id, 5u);
}

TEST(NetHostile, TruncatedFrameThenDisconnectLeavesServerServing) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  {
    net::client cli("127.0.0.1", front.port());
    const std::vector<std::uint8_t> golden = net::encode_request(
        1, fixed_request(), serve::lane_class::bulk, f.small_block(4));
    cli.send_bytes(golden.data(), 10);  // half a header, then vanish
  }
  ASSERT_TRUE(wait_until([&] { return front.stats().open_connections == 0; }));
  EXPECT_EQ(front.stats().requests_admitted, 0u);

  net::client cli("127.0.0.1", front.port());
  cli.send_ping(9);
  ASSERT_TRUE(cli.read_frame().has_value());
  front.stats().validate();
}

TEST(NetHostile, GarbageAfterValidFrameStillReconciles) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  std::vector<std::uint8_t> bytes = net::encode_request(
      1, fixed_request(), serve::lane_class::bulk, f.small_block(4));
  bytes.resize(bytes.size() + net::kHeaderSize, 0xEE);  // then garbage
  cli.send_bytes(bytes);

  // The valid request is admitted; the garbage kills the connection. The
  // in-flight result is then either answered (if it completed before the
  // close) or dropped — but never leaked: the accounting reconciles exactly.
  bool saw_error = false;
  while (const auto frame = cli.read_frame(2.0)) {
    if (frame->header.type == net::frame_type::error) saw_error = true;
  }
  EXPECT_TRUE(saw_error);
  ASSERT_TRUE(wait_until([&] {
    const net::front_end_stats s = front.stats();
    return s.inflight == 0 &&
           s.responses_sent + s.results_dropped == s.requests_admitted;
  }));
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 1u);
}

TEST(NetHostile, GoldenFrameByteMutationSweepIsolatesEachConnection) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  const data::trace_dataset block = f.small_block(2);
  const std::vector<std::uint8_t> golden =
      net::encode_request(3, fixed_request(), serve::lane_class::bulk, block);

  // Header bytes: every mutation must be detected (magic/CRC/version/type)
  // and answered with a typed error before the connection closes.
  for (std::size_t byte = 0; byte < net::kHeaderSize; ++byte) {
    std::vector<std::uint8_t> mutated = golden;
    mutated[byte] ^= 0xFF;
    net::client cli("127.0.0.1", front.port());
    cli.send_bytes(mutated);
    const auto frame = cli.read_frame();
    ASSERT_TRUE(frame.has_value()) << "header byte " << byte;
    EXPECT_EQ(frame->header.type, net::frame_type::error)
        << "header byte " << byte;
    while (cli.read_frame(1.0).has_value()) {
    }
  }
  // Payload prefix bytes: a mutation either fails decode (typed error) or
  // yields a well-formed — if semantically different — request that still
  // resolves with a response. Nothing may hang or kill the server.
  for (std::size_t byte = net::kHeaderSize;
       byte < net::kHeaderSize + net::kRequestPayloadHeaderSize; ++byte) {
    std::vector<std::uint8_t> mutated = golden;
    mutated[byte] ^= 0xFF;
    net::client cli("127.0.0.1", front.port());
    cli.send_bytes(mutated);
    const auto frame = cli.read_reply(3);
    ASSERT_TRUE(frame.has_value()) << "payload byte " << byte;
    EXPECT_TRUE(frame->header.type == net::frame_type::error ||
                frame->header.type == net::frame_type::response)
        << "payload byte " << byte;
  }

  // After the whole sweep, a control request on a fresh connection is
  // answered bit-exact — the server survived every mutation.
  net::client cli("127.0.0.1", front.port());
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(reply->payload), block);
  ASSERT_TRUE(wait_until([&] { return front.stats().inflight == 0; }));
  front.stats().validate();
}

TEST(NetHostile, SlowLorisConnectionIsEvicted) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.read_idle_seconds = 0.05;
  cfg.poll_interval_seconds = 0.01;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  const std::uint8_t trickle[3] = {0x4B, 0x4C, 0x4E};  // a header, slowly…
  cli.send_bytes(trickle, sizeof(trickle));
  // …and then silence: the idle deadline must evict us.
  EXPECT_FALSE(cli.read_frame(3.0).has_value());
  ASSERT_TRUE(
      wait_until([&] { return front.stats().connections_evicted >= 1; }));
  front.stats().validate();
}

// --- write path --------------------------------------------------------------

TEST(NetWrite, SmallWindowReaderGetsEveryQueuedReplyByteExactInOrder) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  const int fd = small_window_socket(front.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(wait_until([&] { return shrink_server_send_buffer(fd); }));
  // Feedback requests run inline and are answered in frame order, pings
  // too: the reply stream's order is the request stream's. Its ~35 KiB far
  // exceed both socket buffers, so the flushes stop mid-frame.
  constexpr std::size_t kRequests = 240;
  constexpr std::size_t kShots = 16;
  constexpr std::uint64_t kPingBase = 1000000;
  std::vector<std::uint8_t> requests;
  std::vector<std::uint64_t> expected_ids;  // replies in order
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::vector<std::uint8_t> frame = net::encode_request(
        i, fixed_request(), serve::lane_class::feedback,
        test_rows((i * 7) % (f.data.test.size() - kShots), kShots));
    requests.insert(requests.end(), frame.begin(), frame.end());
    expected_ids.push_back(i);
    if (i % 10 == 9) {
      const std::vector<std::uint8_t> ping =
          net::encode_control(net::frame_type::ping, kPingBase + i);
      requests.insert(requests.end(), ping.begin(), ping.end());
      expected_ids.push_back(kPingBase + i);
    }
  }
  ASSERT_TRUE(send_all(fd, requests));
  // Let the replies back up, then read them 7 bytes at a time.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::vector<std::uint8_t> received;
  std::size_t parsed = 0;
  std::size_t next = 0;
  while (next < expected_ids.size()) {
    std::uint8_t piece[7];
    const ssize_t n = ::recv(fd, piece, sizeof(piece), 0);
    ASSERT_GT(n, 0) << "stream ended after " << next << " replies";
    received.insert(received.end(), piece, piece + n);
    while (received.size() - parsed >= net::kHeaderSize) {
      net::frame_header header;
      ASSERT_EQ(net::decode_header(received.data() + parsed, header),
                net::header_verdict::ok);
      const std::size_t size = net::kHeaderSize + header.payload_size;
      if (received.size() - parsed < size) break;
      const std::span<const std::uint8_t> frame(received.data() + parsed,
                                                size);
      const std::uint64_t id = expected_ids[next];
      ASSERT_EQ(header.request_id, id) << "reply " << next;
      std::vector<std::uint8_t> expected;
      if (id >= kPingBase) {
        expected = net::encode_control(net::frame_type::pong, id);
      } else {
        ASSERT_EQ(header.type, net::frame_type::response);
        const net::response_view view =
            net::decode_response(frame.subspan(net::kHeaderSize));
        expect_fixed_response(
            view, test_rows((id * 7) % (f.data.test.size() - kShots), kShots));
        // Re-encoding the decoded fields reproduces every byte.
        serve::readout_result result;
        result.engine = view.engine;
        result.status = view.status;
        result.model_version = view.model_version;
        result.latency_seconds = view.latency_seconds;
        result.states = view.states;
        for (const std::int32_t raw : view.registers) {
          result.registers.push_back(q16_16::from_raw(raw));
        }
        expected = net::encode_response(id, result);
      }
      ASSERT_TRUE(std::equal(frame.begin(), frame.end(), expected.begin(),
                             expected.end()))
          << "reply " << next;
      parsed += size;
      ++next;
    }
  }
  EXPECT_EQ(parsed, received.size());
  ::close(fd);
  ASSERT_TRUE(wait_until([&] { return front.stats().open_connections == 0; }));
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.responses_sent, kRequests);
  EXPECT_EQ(stats.pongs_sent, kRequests / 10);
  EXPECT_EQ(stats.bytes_sent, received.size());
}

TEST(NetWrite, ReaderThatStopsReadingIsEvictedAtTheQueueBound) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_write_queue_bytes = 16 << 10;
  net::tcp_front_end front(server, cfg);
  const int fd = small_window_socket(front.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(wait_until([&] { return shrink_server_send_buffer(fd); }));
  // Feedback requests (answered inline, in the turn that reads them) and
  // pings whose replies are never read: once the socket buffers are full
  // the replies pile up in the write buffer until one would pass the bound.
  constexpr std::size_t kShots = 16;
  std::vector<std::uint8_t> batch;
  for (std::uint64_t i = 0; i < 10; ++i) {
    const std::vector<std::uint8_t> frame = net::encode_request(
        i, fixed_request(), serve::lane_class::feedback,
        test_rows(i * kShots, kShots));
    batch.insert(batch.end(), frame.begin(), frame.end());
    const std::vector<std::uint8_t> ping =
        net::encode_control(net::frame_type::ping, 1000 + i);
    batch.insert(batch.end(), ping.begin(), ping.end());
  }
  for (std::size_t sent = 0;
       sent < 200 && front.stats().connections_evicted == 0; ++sent) {
    if (!send_all(fd, batch)) break;  // the server closed the connection
  }
  ASSERT_TRUE(
      wait_until([&] { return front.stats().connections_evicted == 1; }));
  ASSERT_TRUE(wait_until([&] { return front.stats().open_connections == 0; }));
  ::close(fd);
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.busy_rejections, 0u);
  // Every reply counted as sent was queued as a frame, and exactly one was
  // refused: the one that would have passed the bound (parsing stops with
  // it). A refused response is a dropped result, a refused pong no pong.
  EXPECT_EQ(stats.frames_sent, stats.responses_sent + stats.pongs_sent);
  EXPECT_EQ(stats.results_dropped + (stats.pings_received - stats.pongs_sent),
            1u);
  EXPECT_EQ(stats.requests_admitted,
            stats.responses_sent + stats.results_dropped);
  // Evicted by the bound, not after everything was written.
  EXPECT_LT(stats.bytes_sent, stats.frames_sent * net::kHeaderSize +
                                  stats.responses_sent * kShots * 4);
}

// --- disconnect reconciliation ---------------------------------------------

TEST(NetReconcile, DisconnectMidRequestDropsTheResultCounted) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  fault::disarm_all();
  // Stall the completion path so the request is still unanswered when the
  // client vanishes.
  fault::arm_from_string("net.complete:delay_ms=400:1.0:3");
  {
    net::client cli("127.0.0.1", front.port());
    cli.send_request(fixed_request(), f.small_block(8));
    // Give the poll loop time to parse and admit before disconnecting.
    ASSERT_TRUE(wait_until([&] { return front.stats().requests_admitted == 1; }));
  }  // client destructor closes the socket mid-request
  ASSERT_TRUE(wait_until([&] { return front.stats().results_dropped == 1; }));
  fault::disarm_all();
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.responses_sent, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.open_connections, 0u);
}

TEST(NetReconcile, DisconnectMidFeedbackRequestDropsTheResultCounted) {
  // A feedback request small enough to run inline inside try_submit is
  // answered in the turn that admitted it; a delayed completion of a client
  // that left meanwhile must still be dropped, not answered.
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  fault::disarm_all();
  fault::arm_from_string("net.complete:delay_ms=400:1.0:3");
  {
    net::client cli("127.0.0.1", front.port());
    cli.send_request(fixed_request(), f.small_block(1),
                     serve::lane_class::feedback);
    ASSERT_TRUE(
        wait_until([&] { return front.stats().requests_admitted == 1; }));
  }  // client destructor closes the socket while the completion is delayed
  const bool dropped =
      wait_until([&] { return front.stats().results_dropped == 1; });
  fault::disarm_all();
  ASSERT_TRUE(dropped);
  EXPECT_EQ(server.stats().feedback_requests, 1u);
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.responses_sent, 0u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.open_connections, 0u);
}

// --- ingest: rows read straight into their trace buffers -------------------

TEST(NetIngest, RequestDribbledOneBytePerSendDecodesBitExact) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(3);
  net::trace_context ctx;
  ctx.trace_id = 0xD1BB1E;
  ctx.parent_span = 7;
  const std::vector<std::uint8_t> frame = net::encode_request(
      41, fixed_request(), serve::lane_class::bulk, block, &ctx);
  // Pauses at the boundaries make each part arrive in reads of its own:
  // header, trace context, fixed prefix, and a row split mid-way.
  const std::size_t rows_at = net::kHeaderSize + net::kTraceContextSize +
                              net::kRequestPayloadHeaderSize;
  const std::size_t row_bytes = block.feature_width() * sizeof(float);
  const std::set<std::size_t> pauses = {
      net::kHeaderSize - 1, net::kHeaderSize + net::kTraceContextSize - 1,
      rows_at - 1, rows_at + row_bytes / 2, rows_at + row_bytes - 1};
  for (std::size_t i = 0; i < frame.size(); ++i) {
    cli.send_bytes(&frame[i], 1);
    if (pauses.contains(i)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const auto reply = cli.read_reply(41);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(reply->payload), block);
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.frames_received, 1u);
  EXPECT_EQ(stats.bytes_received, frame.size());
}

TEST(NetIngest, TwoWholeFramesAndAPartialThirdInOneSend) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const std::vector<data::trace_dataset> blocks = {
      test_rows(0, 2), test_rows(10, 5), test_rows(40, 16)};
  std::vector<std::uint8_t> first_send;
  std::vector<std::uint8_t> third;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<std::uint8_t> frame = net::encode_request(
        b + 1, fixed_request(), serve::lane_class::bulk, blocks[b]);
    if (b < 2) {
      first_send.insert(first_send.end(), frame.begin(), frame.end());
    } else {
      third = frame;
    }
  }
  const std::size_t split = third.size() / 2;
  first_send.insert(first_send.end(), third.begin(),
                    third.begin() + static_cast<std::ptrdiff_t>(split));
  cli.send_bytes(first_send);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cli.send_bytes(third.data() + split, third.size() - split);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto reply = cli.read_reply(b + 1);
    ASSERT_TRUE(reply.has_value()) << "frame " << b + 1;
    ASSERT_EQ(reply->header.type, net::frame_type::response);
    expect_fixed_response(net::decode_response(reply->payload), blocks[b]);
  }
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 3u);
  EXPECT_EQ(stats.responses_sent, 3u);
}

TEST(NetIngest, ShedFrameHasItsPayloadSkippedAndTheNextFrameParses) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  const data::trace_dataset big = test_rows(0, 16);
  const data::trace_dataset next = test_rows(20, 4);
  net::front_end_config cfg;
  // Room for the small request only: the big one is shed when it completes.
  cfg.max_inflight_bytes_per_connection = net::request_payload_size(
      4, static_cast<std::uint32_t>(next.samples_per_quadrature()));
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  const std::vector<std::uint8_t> shed_frame =
      net::encode_request(1, fixed_request(), serve::lane_class::bulk, big);
  std::vector<std::uint8_t> rest(
      shed_frame.begin() + static_cast<std::ptrdiff_t>(shed_frame.size() / 2),
      shed_frame.end());
  const std::vector<std::uint8_t> next_frame =
      net::encode_request(2, fixed_request(), serve::lane_class::bulk, next);
  rest.insert(rest.end(), next_frame.begin(), next_frame.end());
  cli.send_bytes(shed_frame.data(), shed_frame.size() / 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cli.send_bytes(rest);

  const auto busy = cli.read_reply(1);
  ASSERT_TRUE(busy.has_value());
  ASSERT_EQ(busy->header.type, net::frame_type::busy);
  EXPECT_EQ(net::decode_busy(busy->payload),
            net::busy_reason::connection_bytes);
  const auto reply = cli.read_reply(2);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(reply->payload), next);
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.busy_rejections, 1u);
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.malformed_frames, 0u);
}

TEST(NetIngest, LargeRequestSentInPiecesDecodesBitExact) {
  // A request larger than the first storage step (a read buffer's worth) is
  // stored as its rows arrive, across several reads; the second one reuses
  // the first one's buffer.
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const std::vector<data::trace_dataset> blocks = {
      test_rows(0, 200), test_rows(10, 190), test_rows(3, 40)};
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::vector<std::uint8_t> frame = net::encode_request(
        b + 1, fixed_request(), serve::lane_class::bulk, blocks[b]);
    for (std::size_t at = 0; at < frame.size(); at += 70001) {
      cli.send_bytes(frame.data() + at, std::min<std::size_t>(
                                            70001, frame.size() - at));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const auto reply = cli.read_reply(b + 1);
    ASSERT_TRUE(reply.has_value()) << "frame " << b + 1;
    ASSERT_EQ(reply->header.type, net::frame_type::response);
    expect_fixed_response(net::decode_response(reply->payload), blocks[b]);
  }
  front.stats().validate();
}

TEST(NetIngest, RecycledTraceBufferNeverLeaksAnEarlierRequestsRows) {
  // Each answered request's trace buffer is reused by a later one without
  // being cleared; a shorter request after a longer one must see exactly its
  // own rows. The rows differ from the longer request's leading rows.
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  const std::vector<std::pair<data::trace_dataset, serve::lane_class>> plan = {
      {test_rows(0, 64), serve::lane_class::bulk},
      {test_rows(100, 3), serve::lane_class::bulk},
      {test_rows(0, 48), serve::lane_class::feedback},
      {test_rows(150, 1), serve::lane_class::feedback},
      {test_rows(60, 2), serve::lane_class::bulk}};
  for (const auto& [block, lane] : plan) {
    const std::uint64_t id = cli.send_request(fixed_request(), block, lane);
    const auto reply = cli.read_reply(id);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, net::frame_type::response);
    expect_fixed_response(net::decode_response(reply->payload), block);
  }
  front.stats().validate();
}

// --- fault sites ------------------------------------------------------------

TEST(NetFault, AcceptFaultDropsTheConnectionThenRecovers) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  fault::disarm_all();
  fault::arm_from_string("net.accept:throw:1.0:11");
  {
    net::client cli("127.0.0.1", front.port());
    EXPECT_FALSE(cli.read_frame(1.0).has_value());  // closed before service
  }
  fault::disarm_all();
  net::client cli("127.0.0.1", front.port());
  cli.send_ping(1);
  EXPECT_TRUE(cli.read_frame().has_value());
}

TEST(NetFault, ReadDropFaultDiscardsBytesThenRecovers) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  fault::disarm_all();
  fault::arm_from_string("net.read:drop:1.0:12");
  net::client cli("127.0.0.1", front.port());
  cli.send_ping(1);
  EXPECT_FALSE(cli.read_frame(0.4).has_value());  // the ping never arrived
  fault::disarm_all();
  cli.send_ping(2);
  const auto pong = cli.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->header.request_id, 2u);
}

TEST(NetFault, WriteFaultEvictsTheConnection) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  cli.send_ping(1);
  ASSERT_TRUE(cli.read_frame().has_value());  // connection is live
  fault::arm_from_string("net.write:throw:1.0:13");
  cli.send_ping(2);
  EXPECT_FALSE(cli.read_frame(2.0).has_value());  // evicted, EOF
  fault::disarm_all();
  ASSERT_TRUE(
      wait_until([&] { return front.stats().connections_evicted >= 1; }));
}

TEST(NetFault, DecodeFaultAnswersTypedErrorAndCloses) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  fault::disarm_all();
  fault::arm_from_string("net.decode:throw:1.0:14");
  net::client cli("127.0.0.1", front.port());
  const std::uint64_t id = cli.send_request(fixed_request(), f.small_block(4));
  const auto error = cli.read_reply(id);
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->header.type, net::frame_type::error);
  EXPECT_EQ(net::decode_error(error->payload).code,
            net::error_code::decode_error);
  fault::disarm_all();
  EXPECT_EQ(front.stats().requests_admitted, 0u);
  front.stats().validate();
}

// --- lifecycle and thread model -------------------------------------------

TEST(NetLifecycle, BindFailureLeavesNoCollectorAndNoFds) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  obs::metric_registry metrics;
  // A plain listener holds an ephemeral port, so the front end's bind fails.
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(holder, 1), 0);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  net::front_end_config cfg;
  cfg.port = ntohs(addr.sin_port);
  cfg.metrics = &metrics;
  const std::size_t fds_before = proc_self_entries("fd");
  EXPECT_THROW({ net::tcp_front_end front(server, cfg); }, klinq::error);
  EXPECT_EQ(proc_self_entries("fd"), fds_before);
  // The shared registry holds no collector into the freed front end (under
  // ASAN a dangling one is a heap-use-after-free right here), and the
  // failed constructor registered nothing else either.
  const obs::metrics_snapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.find("klinq_net_open_connections"), nullptr);
  ::close(holder);

  // Nor was the server's doorbell installed: direct submits still work.
  const data::trace_dataset block = f.small_block(4);
  const serve::ticket t =
      server.submit({0, &block, serve::engine_kind::fixed_q16});
  EXPECT_EQ(server.wait(t).status, serve::request_status::ok);
}

TEST(NetLoop, FrontEndRunsOneThread) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  const std::size_t before = proc_self_entries("task");
  net::tcp_front_end front(server);
  EXPECT_EQ(proc_self_entries("task"), before + 1);
  front.shutdown();
  // join() returns once the thread has exited; the kernel may reap its
  // task entry a moment later.
  EXPECT_TRUE(wait_until([&] { return proc_self_entries("task") == before; }));
}

// --- graceful shutdown ------------------------------------------------------

TEST(NetShutdown, GracefulDrainAnswersGoodbyeAndReconciles) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.drain_timeout_seconds = 1.0;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(8);
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());

  front.shutdown();
  front.shutdown();  // idempotent

  // The client observes an orderly goodbye, then EOF.
  bool saw_goodbye = false;
  while (const auto frame = cli.read_frame(1.0)) {
    if (frame->header.type == net::frame_type::goodbye) saw_goodbye = true;
  }
  EXPECT_TRUE(saw_goodbye);

  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.open_connections, 0u);

  // The borrowed server is returned in a reusable state: its doorbell is
  // uninstalled and direct submits work again.
  const serve::ticket t =
      server.submit({0, &block, serve::engine_kind::fixed_q16});
  EXPECT_EQ(server.wait(t).status, serve::request_status::ok);
}

// --- flags byte, trace context, protocol version ---------------------------

TEST(NetFrame, UnknownFlagBitsAndNonRequestFlagsAreRejected) {
  net::frame_header header;
  header.type = net::frame_type::request;
  header.request_id = 7;
  header.payload_size = 0;
  header.flags = 0x02;  // unknown flag bit
  std::uint8_t bytes[net::kHeaderSize];
  net::encode_header(header, bytes);
  net::frame_header out;
  EXPECT_EQ(net::decode_header(bytes, out), net::header_verdict::bad_type);

  // The trace flag is only legal on request frames.
  header.type = net::frame_type::ping;
  header.flags = net::kTraceFlag;
  net::encode_header(header, bytes);
  EXPECT_EQ(net::decode_header(bytes, out), net::header_verdict::bad_type);

  // A version-1 frame is rejected for its version, flags or not.
  header.type = net::frame_type::ping;
  header.flags = 0;
  for (const std::uint8_t flags : {std::uint8_t{0}, net::kTraceFlag}) {
    net::encode_header(header, bytes);
    bytes[4] = 1;
    bytes[7] = flags;
    const std::uint32_t crc = net::crc32(bytes, 20);
    std::memcpy(bytes + 20, &crc, 4);
    EXPECT_EQ(net::decode_header(bytes, out),
              net::header_verdict::bad_version);
  }
}

TEST(NetFrame, RequestTraceContextRoundTrip) {
  auto& f = fixture();
  const data::trace_dataset block = f.small_block(4);
  const net::trace_context tctx{0x1234ABCD5678EF01ull, 42};
  const std::vector<std::uint8_t> frame = net::encode_request(
      5, fixed_request(), serve::lane_class::bulk, block, &tctx);
  net::frame_header header;
  ASSERT_EQ(net::decode_header(frame.data(), header), net::header_verdict::ok);
  EXPECT_EQ(header.version, net::kProtocolVersion);
  ASSERT_TRUE(header.has_trace());
  const net::trace_context decoded =
      net::decode_trace_context(frame.data() + net::kHeaderSize);
  EXPECT_EQ(decoded.trace_id, tctx.trace_id);
  EXPECT_EQ(decoded.parent_span, tctx.parent_span);
  // What follows the context is the unchanged request payload.
  data::trace_dataset sink;
  const net::request_info info = decode_payload(
      std::span<const std::uint8_t>(
          frame.data() + net::kHeaderSize + net::kTraceContextSize,
          header.payload_size - net::kTraceContextSize),
      sink);
  EXPECT_EQ(info.qubit, 0u);
  EXPECT_EQ(sink.size(), block.size());

  // A null (or zero) trace context encodes a plain unflagged frame.
  const std::vector<std::uint8_t> plain =
      net::encode_request(5, fixed_request(), serve::lane_class::bulk, block);
  net::frame_header plain_header;
  ASSERT_EQ(net::decode_header(plain.data(), plain_header),
            net::header_verdict::ok);
  EXPECT_FALSE(plain_header.has_trace());
  EXPECT_EQ(plain.size() + net::kTraceContextSize, frame.size());
}

TEST(NetHostile, V1FrameIsRejectedWithBadVersion) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client old("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(8);

  // Re-stamp an encoded request as protocol version 1 with a valid CRC —
  // the bytes a version-1 client would put on the wire.
  std::vector<std::uint8_t> bytes =
      net::encode_request(1, fixed_request(), serve::lane_class::bulk, block);
  bytes[4] = 1;
  const std::uint32_t crc = net::crc32(bytes.data(), 20);
  std::memcpy(bytes.data() + 20, &crc, 4);
  old.send_bytes(bytes);

  const auto error = old.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->header.type, net::frame_type::error);
  EXPECT_EQ(error->header.request_id, 1u);
  EXPECT_EQ(net::decode_error(error->payload).code,
            net::error_code::bad_version);
  const auto goodbye = old.read_frame();
  ASSERT_TRUE(goodbye.has_value());
  EXPECT_EQ(goodbye->header.type, net::frame_type::goodbye);
  EXPECT_FALSE(old.read_frame(1.0).has_value());  // then closed

  // A current client on another connection is served bit-exact.
  net::client cli("127.0.0.1", front.port());
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  EXPECT_EQ(reply->header.version, net::kProtocolVersion);
  expect_fixed_response(net::decode_response(reply->payload), block);
  const net::front_end_stats stats = front.stats();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.malformed_frames, 1u);
  stats.validate();
}

TEST(NetHostile, TraceFlaggedRequestShorterThanContextIsRejected) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());

  net::frame_header header;
  header.type = net::frame_type::request;
  header.request_id = 9;
  header.flags = net::kTraceFlag;
  header.payload_size = 8;  // shorter than the 16-byte trace context
  std::uint8_t bytes[net::kHeaderSize + 8] = {};
  net::encode_header(header, bytes);
  cli.send_bytes(bytes, sizeof(bytes));

  // A typed error frame, whatever else the close path sends, then EOF.
  bool got_error = false;
  while (const auto frame = cli.read_frame(2.0)) {
    if (frame->header.type == net::frame_type::error) got_error = true;
  }
  EXPECT_TRUE(got_error);
  EXPECT_TRUE(wait_until(
      [&] { return front.stats().malformed_frames >= 1; }));
}

TEST(NetHostile, AnnouncedButUnsentPayloadsStayBoundedAndServing) {
  // Every connection announces a request of the largest payload allowed and
  // sends only its header and fixed prefix, then goes silent. The server's
  // memory must follow the bytes that arrived, not the sizes announced (32
  // × 8 MiB here): half the requests have trace-sized rows, half one row of
  // the whole payload.
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_frame_payload = std::size_t{8} << 20;
  net::tcp_front_end front(server, cfg);
  constexpr std::size_t kStalled = 32;
  const std::size_t rows_bytes =
      cfg.max_frame_payload - net::kRequestPayloadHeaderSize;
  const std::size_t resident_before = resident_bytes();
  std::vector<net::client> stalled;
  std::size_t sent = 0;
  for (std::size_t c = 0; c < kStalled; ++c) {
    const std::size_t samples = c % 2 == 0 ? 500 : rows_bytes / 8;
    const std::size_t shots = rows_bytes / (8 * samples);
    const std::vector<std::uint8_t> prefix =
        request_prefix(c + 1, static_cast<std::uint32_t>(samples),
                       static_cast<std::uint32_t>(shots));
    stalled.emplace_back("127.0.0.1", front.port());
    stalled.back().send_bytes(prefix);
    sent += prefix.size();
  }
  ASSERT_TRUE(wait_until([&] {
    const net::front_end_stats s = front.stats();
    return s.open_connections == kStalled && s.bytes_received == sent;
  }));
  const std::size_t resident_after = resident_bytes();
  const std::size_t grown =
      resident_after > resident_before ? resident_after - resident_before : 0;
  EXPECT_LT(grown, std::size_t{48} << 20)
      << "resident set grew " << grown << " bytes for " << sent
      << " bytes received";

  // The server keeps serving, bit-exact, beside the stalled requests.
  net::client cli("127.0.0.1", front.port());
  const data::trace_dataset block = f.small_block(8);
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  expect_fixed_response(net::decode_response(reply->payload), block);
  stalled.clear();
  ASSERT_TRUE(wait_until([&] { return front.stats().open_connections == 1; }));
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.requests_admitted, 1u);
  EXPECT_EQ(stats.responses_sent, 1u);
}

TEST(NetHostile, UndecodablePrefixIsSkippedThenAnsweredWithItsError) {
  // A request whose fixed prefix does not decode has its rows skipped as
  // they arrive; the decode error is answered once the frame is complete,
  // where admission would have run.
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  std::vector<std::uint8_t> frame = net::encode_request(
      4, fixed_request(), serve::lane_class::bulk, test_rows(0, 64));
  frame[net::kHeaderSize + 5] = 1;  // a reserved byte must be zero
  const std::size_t half = frame.size() / 2;
  cli.send_bytes(frame.data(), half);
  EXPECT_FALSE(cli.read_frame(0.1).has_value());
  cli.send_bytes(frame.data() + half, frame.size() - half);
  const auto error = cli.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_EQ(error->header.type, net::frame_type::error);
  EXPECT_EQ(error->header.request_id, 4u);
  const net::error_view view = net::decode_error(error->payload);
  EXPECT_EQ(view.code, net::error_code::decode_error);
  EXPECT_NE(view.message.find("reserved bytes must be zero"),
            std::string::npos)
      << view.message;
  while (cli.read_frame(1.0).has_value()) {
  }
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_EQ(stats.bytes_received, frame.size());
  EXPECT_EQ(stats.requests_admitted, 0u);
  EXPECT_EQ(stats.malformed_frames, 1u);
}

// --- end-to-end wire tracing ------------------------------------------------

TEST(NetTrace, SingleRequestProducesOneCompleteTrace) {
  auto& f = fixture();
  obs::trace_ring ring;
  ring.set_armed(true);
  serve::server_config scfg;
  scfg.traces = &ring;
  serve::readout_server server(f.engines(), scfg);
  net::front_end_config cfg;
  cfg.traces = &ring;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  cli.enable_tracing(&ring, 1.0);

  const data::trace_dataset block = f.small_block(16);
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->header.type, net::frame_type::response);
  // net.write completes on the poll thread after the flush; wait it in.
  ASSERT_TRUE(wait_until([&] { return ring.spans().size() >= 7; }));

  const std::vector<obs::trace_ring::trace_view> views = ring.traces();
  ASSERT_EQ(views.size(), 1u);
  const obs::trace_ring::trace_view& view = views[0];
  std::set<std::string> names;
  for (const obs::trace_span& span : view.spans) names.insert(span.name);
  const std::set<std::string> expected = {
      "client.rtt", "net.read",    "net.decode", "net.admit",
      "net.write",  "serve.queue", "serve.exec"};
  EXPECT_EQ(names, expected);

  // The client's RTT span is the root; every server-side span is parented
  // to it, shares its trace id, and nests inside it on the shared timeline
  // (net.write's tail is recorded on the poll thread after the flush, so
  // only its start is ordered against the client's receive stamp).
  const auto rtt = std::find_if(
      view.spans.begin(), view.spans.end(),
      [](const obs::trace_span& s) { return s.name == "client.rtt"; });
  ASSERT_NE(rtt, view.spans.end());
  EXPECT_EQ(rtt->parent_span, 0u);
  const std::uint64_t rtt_end = rtt->start_us + rtt->duration_us;
  for (const obs::trace_span& span : view.spans) {
    EXPECT_EQ(span.trace_id, view.trace_id) << span.name;
    if (span.name == "client.rtt") continue;
    EXPECT_EQ(span.parent_span, rtt->span_id) << span.name;
    EXPECT_GE(span.start_us, rtt->start_us) << span.name;
    if (span.name != "net.write") {
      EXPECT_LE(span.start_us + span.duration_us, rtt_end) << span.name;
    }
  }
}

TEST(NetTrace, HeadSamplingTracesTheConfiguredFraction) {
  auto& f = fixture();
  obs::trace_ring ring;
  ring.set_armed(true);
  serve::server_config scfg;
  scfg.traces = &ring;
  serve::readout_server server(f.engines(), scfg);
  net::front_end_config cfg;
  cfg.traces = &ring;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  cli.enable_tracing(&ring, 0.25);

  const data::trace_dataset block = f.small_block(4);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint64_t id = cli.send_request(fixed_request(), block);
    const auto reply = cli.read_reply(id);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->header.type, net::frame_type::response);
  }
  // 8 requests at rate 1/4: exactly 2 traces, 7 spans each.
  ASSERT_TRUE(wait_until([&] { return ring.spans().size() >= 14; }));
  EXPECT_EQ(ring.traces().size(), 2u);
  EXPECT_EQ(ring.spans().size(), 14u);
}

TEST(NetTrace, DisarmedRingRecordsNothing) {
  auto& f = fixture();
  obs::trace_ring ring;  // never armed
  serve::server_config scfg;
  scfg.traces = &ring;
  serve::readout_server server(f.engines(), scfg);
  net::front_end_config cfg;
  cfg.traces = &ring;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());
  cli.enable_tracing(&ring, 1.0);

  const data::trace_dataset block = f.small_block(4);
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  ASSERT_TRUE(cli.read_reply(id).has_value());
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.spans().empty());
}

// --- client keepalive --------------------------------------------------------

TEST(NetKeepalive, ClientPingsAreAnsweredAndCounted) {
  auto& f = fixture();
  serve::readout_server server(f.engines());
  net::tcp_front_end front(server);
  net::client cli("127.0.0.1", front.port());
  cli.enable_keepalive(0.05, 2.0);

  // An idle read window long enough for several keepalive rounds: the pongs
  // are consumed internally, so the read returns empty-handed — but alive.
  EXPECT_FALSE(cli.read_frame(0.4).has_value());
  EXPECT_TRUE(cli.is_open());
  const net::front_end_stats stats = front.stats();
  stats.validate();
  EXPECT_GE(stats.pings_received, 1u);
  EXPECT_EQ(stats.pongs_sent, stats.pings_received);

  // The connection still serves requests after the keepalive exchanges.
  const data::trace_dataset block = f.small_block(4);
  const std::uint64_t id = cli.send_request(fixed_request(), block);
  const auto reply = cli.read_reply(id);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->header.type, net::frame_type::response);
}

TEST(NetKeepalive, MissedPongDeadlineFailsPendingReads) {
  // A listener that accepts but never answers: the keepalive ping goes
  // unanswered and the client must fail fast instead of blocking out its
  // caller's full timeout.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  net::client cli("127.0.0.1", ntohs(addr.sin_port));
  cli.enable_keepalive(0.05, 0.1);
  stopwatch timer;
  EXPECT_THROW(cli.read_frame(10.0), io_error);
  EXPECT_LT(timer.seconds(), 5.0);  // failed on the pong deadline, not 10 s
  EXPECT_FALSE(cli.is_open());
  ::close(listener);
}

// --- stats ↔ metric-family reconciliation -----------------------------------

TEST(NetReconcile, StatsMatchMetricFamiliesExactly) {
  auto& f = fixture();
  obs::metric_registry metrics;
  serve::readout_server server(f.engines());
  net::front_end_config cfg;
  cfg.max_inflight_per_connection = 2;
  cfg.metrics = &metrics;
  net::tcp_front_end front(server, cfg);
  net::client cli("127.0.0.1", front.port());

  // Mixed traffic: served requests, a ping, an over-quota burst that sheds.
  const data::trace_dataset block = f.small_block(8);
  for (std::size_t i = 0; i < 3; ++i) {
    const std::uint64_t id = cli.send_request(fixed_request(), block);
    ASSERT_TRUE(cli.read_reply(id).has_value());
  }
  cli.send_ping(77);
  const auto pong = cli.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->header.type, net::frame_type::pong);

  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::vector<std::uint8_t> frame = net::encode_request(
        100 + i, fixed_request(), serve::lane_class::bulk, block);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  cli.send_bytes(burst);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(cli.read_reply(100 + i).has_value());
  }

  // Quiesce, then compare the struct view against the scraped families.
  ASSERT_TRUE(wait_until([&] { return front.stats().inflight == 0; }));
  const obs::metrics_snapshot snap = metrics.snapshot();
  const net::front_end_stats stats = front.stats();
  stats.validate();

  const auto count = [&](const char* name, const obs::label_list& labels =
                                               obs::label_list{}) {
    return static_cast<std::uint64_t>(snap.value(name, labels));
  };
  EXPECT_EQ(count("klinq_net_connections_total", {{"event", "accepted"}}),
            stats.connections_accepted);
  EXPECT_EQ(count("klinq_net_connections_total", {{"event", "rejected"}}),
            stats.connections_rejected);
  EXPECT_EQ(count("klinq_net_connections_total", {{"event", "closed"}}),
            stats.connections_closed);
  EXPECT_EQ(count("klinq_net_connections_total", {{"event", "evicted"}}),
            stats.connections_evicted);
  EXPECT_EQ(count("klinq_net_frames_total", {{"dir", "in"}}),
            stats.frames_received);
  EXPECT_EQ(count("klinq_net_frames_total", {{"dir", "out"}}),
            stats.frames_sent);
  EXPECT_EQ(count("klinq_net_bytes_total", {{"dir", "in"}}),
            stats.bytes_received);
  EXPECT_EQ(count("klinq_net_bytes_total", {{"dir", "out"}}),
            stats.bytes_sent);
  EXPECT_EQ(count("klinq_net_requests_admitted_total"),
            stats.requests_admitted);
  EXPECT_EQ(count("klinq_net_responses_total"), stats.responses_sent);
  EXPECT_EQ(count("klinq_net_results_dropped_total"), stats.results_dropped);
  EXPECT_EQ(count("klinq_net_cancels_total"), stats.cancels_received);
  EXPECT_EQ(count("klinq_net_pings_received_total"), stats.pings_received);
  EXPECT_EQ(count("klinq_net_pongs_sent_total"), stats.pongs_sent);

  // Label-summed families reconcile against their struct totals.
  const auto family_sum = [&](const char* name) {
    const obs::family_snapshot* family = snap.find(name);
    std::uint64_t total = 0;
    if (family != nullptr) {
      for (const obs::series_snapshot& series : family->series) {
        total += static_cast<std::uint64_t>(series.value);
      }
    }
    return total;
  };
  EXPECT_EQ(family_sum("klinq_net_shed_total"), stats.busy_rejections);
  EXPECT_EQ(family_sum("klinq_net_malformed_frames_total"),
            stats.malformed_frames);

  // The pull collector refreshed the gauges at snapshot time.
  EXPECT_EQ(count("klinq_net_open_connections"), stats.open_connections);
  EXPECT_EQ(count("klinq_net_inflight"), stats.inflight);
  EXPECT_GE(stats.busy_rejections, 1u);  // the burst actually shed
}

}  // namespace
