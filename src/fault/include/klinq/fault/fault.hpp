// klinq::fault — deterministic fault injection for the serving stack.
//
// Production hardening is only testable if failures can be produced on
// demand: a throwing shard, a torn snapshot on disk, a hung retrain, a slow
// engine. This module compiles *named fault points* into those hot paths;
// each point is a single call that is near-free while nothing is armed (one
// relaxed atomic load and a predicted branch) and becomes an injected
// failure when armed:
//
//   fault::trigger("serve.shard.run");          // may throw / sleep / drop
//   fault::corrupt("registry.save.snapshot",
//                  bytes.data(), bytes.size()); // may flip bytes in place
//
// Arming is programmatic (arm/disarm below — what the fault-matrix tests
// use) or environmental:
//
//   KLINQ_FAULT=<site>:<mode>:<prob>:<seed>[,<site>:<mode>:<prob>:<seed>...]
//
// where <mode> is one of
//   throw            throw fault::injected_fault at the site
//   delay_ms[=N]     sleep N milliseconds (default 10) — a slow engine/disk
//   corrupt_bytes    flip bytes of the buffer passed to fault::corrupt()
//   drop             trigger() returns action::drop; the site discards the
//                    unit of work it guards (a shard, a write, a message)
// <prob> is the per-invocation firing probability in [0, 1] (default 1) and
// <seed> seeds the site's deterministic RNG (default fixed), so a chaos run
// is reproducible given the same call order. A <site> ending in '*' arms
// every site with that prefix (e.g. "registry.*:throw:0.1:7").
//
// Sites compiled into the tree (grep for the literal to find each):
//   serve.submit.lease      engine acquisition at submit (throw => submit
//                           throws before a ticket exists)
//   serve.shard.run         shard execution (throw/drop => shard failure,
//                           delay => slow engine; deadline fodder)
//   registry.acquire        model_registry::acquire
//   registry.save.snapshot  serialized snapshot bytes (corrupt_bytes) or the
//                           write itself (throw)
//   registry.save.manifest  serialized manifest bytes / manifest write
//   registry.save.rename    between temp-file fsync and atomic rename — a
//                           kill-before-rename crash
//   registry.load.snapshot  snapshot bytes as read back (corrupt_bytes
//                           => quarantine path), or the read (throw)
//   recal.retrain           entry of a recalibration cycle (throw => retry
//                           path, delay => watchdog path)
//   recal.publish           between training and publish (throw)
//   net.accept              a freshly accepted connection (throw => the fd
//                           is closed before registration — a flaky accept)
//   net.read                bytes read off a client socket (drop => the read
//                           is discarded, desyncing the framing => the
//                           malformed-frame path; throw => read error)
//   net.write               a connection's write flush (throw => write
//                           error, the connection is evicted; drop => the
//                           flush round is skipped — a stalled sender)
//   net.decode              request-payload decode (throw => typed error
//                           frame, connection closed)
//   net.complete            the front end's completion doorbell, on the
//                           thread that finished the request (delay =>
//                           responses stall while inflight accumulates —
//                           admission and shedding fodder)
//
// Thread-safety: every entry point is safe to call concurrently. Firing
// decisions use a per-site atomic counter hashed with the seed, so they are
// deterministic per site given the order of invocations (fully deterministic
// in single-threaded tests; reproducible-in-distribution under concurrency).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "klinq/common/error.hpp"

namespace klinq::fault {

/// Thrown by an armed `throw` fault point (derives from klinq::error so the
/// library's normal failure handling — failed shards, retry loops — sees it
/// as a regular operational error).
class injected_fault : public error {
 public:
  explicit injected_fault(const std::string& what) : error(what) {}
};

enum class fault_mode : std::uint8_t {
  none,
  throw_error,
  delay,
  corrupt_bytes,
  drop,
};

struct fault_spec {
  fault_mode mode = fault_mode::none;
  /// Per-invocation firing probability in [0, 1].
  double probability = 1.0;
  /// Seeds the site's deterministic firing/corruption RNG.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  /// Sleep length for fault_mode::delay.
  std::uint32_t delay_milliseconds = 10;
};

/// What the call site must do after trigger() returns.
enum class action : std::uint8_t {
  none,  // proceed normally (disarmed, or the fault did not fire)
  drop,  // discard the unit of work this site guards
};

namespace detail {
/// Number of armed sites; -1 = KLINQ_FAULT not parsed yet. The disarmed
/// steady state is exactly one relaxed load of this counter per fault point.
extern std::atomic<int> armed_sites;
action trigger_slow(const char* site);
void corrupt_slow(const char* site, void* data, std::size_t size);
}  // namespace detail

/// Fault point for control paths: applies the armed mode (throws
/// injected_fault / sleeps / requests a drop). Near-zero cost disarmed.
inline action trigger(const char* site) {
  if (detail::armed_sites.load(std::memory_order_relaxed) == 0) {
    return action::none;
  }
  return detail::trigger_slow(site);
}

/// Fault point for data paths: when the site is armed with corrupt_bytes
/// (and fires), flips deterministic bytes of [data, data+size) in place.
inline void corrupt(const char* site, void* data, std::size_t size) {
  if (detail::armed_sites.load(std::memory_order_relaxed) == 0) return;
  detail::corrupt_slow(site, data, size);
}

/// Arms `site` (exact name, or prefix ending in '*') with `spec`; replaces
/// any previous spec for the same pattern. A spec with mode none disarms.
void arm(const std::string& site, fault_spec spec);

/// Parses one "<site>:<mode>[=arg][:<prob>[:<seed>]]" clause; throws
/// invalid_argument_error on malformed input. Exposed for tools.
fault_spec parse_spec(const std::string& clause, std::string& site);

/// Arms every comma-separated clause of `text` (the KLINQ_FAULT format).
void arm_from_string(const std::string& text);

void disarm(const std::string& site);
/// Disarms everything, including sites armed from KLINQ_FAULT.
void disarm_all();

/// True when any site is armed (after lazy KLINQ_FAULT parsing).
bool any_armed();
/// True when `site` would consult an armed spec (exact or prefix match).
bool armed(const std::string& site);

/// Times an armed spec at `site` actually fired (threw/slept/corrupted/
/// dropped) since arming. Unarmed or never-fired sites report 0.
std::uint64_t fired(const std::string& site);

struct site_report {
  std::string site;  // pattern as armed (may end in '*')
  fault_spec spec;
  std::uint64_t evaluations = 0;  // times a matching point was reached
  std::uint64_t fired = 0;        // times the Bernoulli draw fired
};

/// Every armed pattern with its counters (recovery telemetry for chaos
/// demos); ordering is unspecified.
std::vector<site_report> report();

}  // namespace klinq::fault
