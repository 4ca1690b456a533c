// klinq::fault — deterministic fault injection, and the robustness it buys.
//
// Contracts under test:
//   * the framework itself: spec parsing, per-seed deterministic firing,
//     wildcard patterns, corrupt-byte determinism, disarm semantics;
//   * the registry fault matrix: kill-before-rename, truncated snapshots,
//     corrupt manifest rows, corruption injected at the save/load fault
//     points — every scenario reopens with the newest verifiable versions
//     and quarantines what failed verification instead of refusing to load;
//   * serve chaos: every serve-path fault point armed under concurrent
//     submitters — every ticket resolves (ok / timed_out / cancelled /
//     failed), totals reconcile, nothing deadlocks or leaks;
//   * self-healing: persistent injected shard failures trip the server's
//     failure threshold, the registry auto-rolls back to last-known-good
//     and flags the qubit degraded, and fidelity recovers once the fault
//     is disarmed.
//
// The first test only checks KLINQ_FAULT environment arming (it skips when
// the variable is unset); every other test calls fault::disarm_all() up
// front so it fully owns the armed set.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/data/dataset_io.hpp"
#include "klinq/fault/fault.hpp"
#include "klinq/kd/distiller.hpp"
#include "klinq/qsim/dataset_builder.hpp"
#include "klinq/registry/model_registry.hpp"
#include "klinq/registry/snapshot.hpp"
#include "klinq/serve/readout_server.hpp"

namespace {

using namespace klinq;
using fx::q16_16;

// --- environment arming (must run before anything calls disarm_all) --------

TEST(FaultEnv, KlinqFaultVariableArmsSites) {
  const char* env = std::getenv("KLINQ_FAULT");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "KLINQ_FAULT not set; environment arming not exercised";
  }
  // The variable is parsed lazily on the first fault-API touch; any
  // well-formed value must leave at least one site armed.
  EXPECT_TRUE(fault::any_armed()) << "KLINQ_FAULT='" << env << "'";
}

// --- the framework itself ---------------------------------------------------

TEST(FaultFramework, ParseSpecAcceptsTheDocumentedGrammar) {
  std::string site;
  fault::fault_spec spec = fault::parse_spec("serve.shard.run:throw", site);
  EXPECT_EQ(site, "serve.shard.run");
  EXPECT_EQ(spec.mode, fault::fault_mode::throw_error);
  EXPECT_EQ(spec.probability, 1.0);

  spec = fault::parse_spec("a.b:delay_ms=3:0.25:42", site);
  EXPECT_EQ(site, "a.b");
  EXPECT_EQ(spec.mode, fault::fault_mode::delay);
  EXPECT_EQ(spec.delay_milliseconds, 3u);
  EXPECT_EQ(spec.probability, 0.25);
  EXPECT_EQ(spec.seed, 42u);

  spec = fault::parse_spec("registry.*:corrupt_bytes:1", site);
  EXPECT_EQ(site, "registry.*");
  EXPECT_EQ(spec.mode, fault::fault_mode::corrupt_bytes);

  EXPECT_THROW(fault::parse_spec("no-mode", site), invalid_argument_error);
  EXPECT_THROW(fault::parse_spec("x:explode", site), invalid_argument_error);
  EXPECT_THROW(fault::parse_spec("x:throw:1.5", site),
               invalid_argument_error);
  EXPECT_THROW(fault::parse_spec("x:throw:zero", site),
               invalid_argument_error);
}

TEST(FaultFramework, FiringStreamIsDeterministicPerSeed) {
  fault::disarm_all();
  const auto record = [](std::uint64_t seed) {
    fault::fault_spec spec;
    spec.mode = fault::fault_mode::throw_error;
    spec.probability = 0.5;
    spec.seed = seed;
    fault::arm("test.determinism", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool threw = false;
      try {
        fault::trigger("test.determinism");
      } catch (const fault::injected_fault&) {
        threw = true;
      }
      fired.push_back(threw);
    }
    return fired;
  };
  const auto first = record(123);
  const auto again = record(123);
  const auto other = record(456);
  EXPECT_EQ(first, again);  // same seed → identical sequence
  EXPECT_NE(first, other);  // different seed → different sequence
  fault::disarm_all();
}

TEST(FaultFramework, ProbabilityEndpoints) {
  fault::disarm_all();
  fault::fault_spec never;
  never.mode = fault::fault_mode::drop;
  never.probability = 0.0;
  fault::arm("test.never", never);
  fault::fault_spec always = never;
  always.probability = 1.0;
  fault::arm("test.always", always);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fault::trigger("test.never"), fault::action::none);
    EXPECT_EQ(fault::trigger("test.always"), fault::action::drop);
  }
  EXPECT_EQ(fault::fired("test.never"), 0u);
  EXPECT_EQ(fault::fired("test.always"), 32u);
  fault::disarm_all();
}

TEST(FaultFramework, WildcardMatchesPrefixAndExactOutranksIt) {
  fault::disarm_all();
  fault::fault_spec drop;
  drop.mode = fault::fault_mode::drop;
  fault::arm("test.wild.*", drop);
  EXPECT_TRUE(fault::armed("test.wild.anything"));
  EXPECT_FALSE(fault::armed("test.other"));
  EXPECT_EQ(fault::trigger("test.wild.anything"), fault::action::drop);

  // An exact spec for one site under the prefix overrides the wildcard.
  fault::fault_spec off = drop;
  off.probability = 0.0;
  fault::arm("test.wild.calm", off);
  EXPECT_EQ(fault::trigger("test.wild.calm"), fault::action::none);
  EXPECT_EQ(fault::trigger("test.wild.stormy"), fault::action::drop);
  fault::disarm_all();
  EXPECT_FALSE(fault::any_armed());
}

TEST(FaultFramework, CorruptBytesIsDeterministicAndDataPlaneOnly) {
  fault::disarm_all();
  fault::fault_spec spec;
  spec.mode = fault::fault_mode::corrupt_bytes;
  spec.seed = 7;
  fault::arm("test.corrupt", spec);

  // corrupt_bytes is a data-plane mode: trigger() at the same site is a
  // no-op and must not consume the firing stream.
  EXPECT_EQ(fault::trigger("test.corrupt"), fault::action::none);

  std::vector<unsigned char> a(256, 0), b(256, 0);
  fault::corrupt("test.corrupt", a.data(), a.size());
  EXPECT_NE(a, std::vector<unsigned char>(256, 0));  // something flipped

  fault::arm("test.corrupt", spec);  // re-arm resets the stream
  fault::corrupt("test.corrupt", b.data(), b.size());
  EXPECT_EQ(a, b);  // same seed, same invocation → same flips
  EXPECT_EQ(fault::fired("test.corrupt"), 1u);
  fault::disarm_all();
}

// --- shared model fixture ---------------------------------------------------

kd::student_model train_student(const data::trace_dataset& train,
                                std::uint64_t seed) {
  kd::student_config config;
  config.groups_per_quadrature = 15;
  config.epochs = 6;
  config.seed = seed;
  return kd::distill_student(train, {}, config);
}

struct fault_fixture {
  qsim::qubit_dataset data0;
  qsim::qubit_dataset data1;
  kd::student_model student0_a;  // "known good" qubit-0 model
  kd::student_model student0_b;  // distinct qubit-0 model (other seed)
  kd::student_model student1;

  fault_fixture() {
    qsim::dataset_spec spec;
    spec.device = qsim::single_qubit_test_preset();
    spec.shots_per_permutation_train = 150;
    spec.shots_per_permutation_test = 150;
    spec.seed = 31;
    data0 = qsim::build_qubit_dataset(spec, 0);
    spec.seed = 32;
    data1 = qsim::build_qubit_dataset(spec, 0);
    student0_a = train_student(data0.train, 7);
    student0_b = train_student(data0.train, 99);
    student1 = train_student(data1.train, 8);
  }
};

fault_fixture& fixture() {
  static fault_fixture f;
  return f;
}

/// Fresh store directory under the build tree.
std::string store_dir(const std::string& name) {
  const std::string dir = "./test_fault_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- registry fault matrix --------------------------------------------------

TEST(RegistryFaults, KillBeforeRenameLeavesPreviousSaveLoadable) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("kill_rename");

  registry::model_registry reg(1, {.keep_versions = 3});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.save_directory(dir);  // clean baseline save: v1 on disk

  reg.publish(0, registry::model_snapshot(f.student0_b));  // v2, in memory
  fault::fault_spec kill;
  kill.mode = fault::fault_mode::throw_error;
  fault::arm("registry.save.rename", kill);
  EXPECT_THROW(reg.save_directory(dir), fault::injected_fault);
  fault::disarm_all();

  // The interrupted save left the previous state fully intact: the old
  // manifest is still the commit point and the directory loads.
  {
    const auto reloaded = registry::model_registry::load_directory(dir);
    EXPECT_EQ(reloaded->active_version(0), 1u);
    EXPECT_EQ(reloaded->list(0).size(), 1u);
    EXPECT_EQ(reloaded->stats().quarantined, 0u);
  }

  // The next clean save commits v2 and sweeps any stranded temp files.
  reg.save_directory(dir);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  const auto reloaded = registry::model_registry::load_directory(dir);
  EXPECT_EQ(reloaded->active_version(0), 2u);
  EXPECT_EQ(reloaded->list(0).size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(RegistryFaults, KillBeforeManifestWriteKeepsOldActivePointer) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("kill_manifest");

  registry::model_registry reg(1, {.keep_versions = 3});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.save_directory(dir);
  reg.publish(0, registry::model_snapshot(f.student0_b));

  fault::fault_spec kill;
  kill.mode = fault::fault_mode::throw_error;
  fault::arm("registry.save.manifest", kill);
  EXPECT_THROW(reg.save_directory(dir), fault::injected_fault);
  fault::disarm_all();

  // Snapshots renamed, manifest not: the new v2 file is discoverable but
  // the committed active pointer is still v1 — exactly the crash contract.
  const auto reloaded = registry::model_registry::load_directory(dir);
  EXPECT_EQ(reloaded->active_version(0), 1u);
  EXPECT_EQ(reloaded->list(0).size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(RegistryFaults, TruncatedSnapshotIsQuarantinedWithFallback) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("truncated");

  registry::model_registry reg(1, {.keep_versions = 3});
  reg.publish(0, registry::model_snapshot(f.student0_a));  // v1
  reg.publish(0, registry::model_snapshot(f.student0_b));  // v2 (active)
  reg.save_directory(dir);

  // Truncate the active version's snapshot — a crash mid-write on a
  // filesystem without our rename discipline, or plain disk damage.
  const std::string v2 = dir + "/" + data::versioned_snapshot_filename(0, 2);
  {
    std::ifstream in(v2, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 32u);
    std::ofstream out(v2, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), 24);
  }

  const auto reloaded = registry::model_registry::load_directory(dir);
  EXPECT_EQ(reloaded->stats().quarantined, 1u);
  EXPECT_TRUE(std::filesystem::exists(v2 + ".bad"));
  EXPECT_FALSE(std::filesystem::exists(v2));
  // Fallback: the recorded active (v2) failed verification, so the newest
  // verifiable version serves.
  EXPECT_EQ(reloaded->active_version(0), 1u);
  EXPECT_EQ(reloaded->list(0).size(), 1u);
  std::filesystem::remove_all(dir);
}

TEST(RegistryFaults, CorruptManifestRowFallsBackPerQubit) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("manifest_row");

  registry::model_registry reg(2, {.keep_versions = 3});
  reg.publish(0, registry::model_snapshot(f.student0_a));  // q0: v1 (active)
  reg.publish(1, registry::model_snapshot(f.student1));    // q1: v1
  reg.publish(1, registry::model_snapshot(f.student1));    // q1: v2
  reg.rollback(1);  // q1 deliberately serves v1, not the newest
  reg.save_directory(dir);

  // Tear qubit 1's manifest row (a torn sector through the middle of the
  // file). Qubit 0's row and the header survive.
  const std::string manifest_path = dir + "/registry.manifest";
  {
    std::ifstream in(manifest_path);
    std::stringstream patched;
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("qubit 1 ", 0) == 0) {
        patched << "qubit 1 nxt \x01\x7f garbage row\n";
      } else {
        patched << line << "\n";
      }
    }
    std::ofstream out(manifest_path, std::ios::trunc);
    out << patched.str();
  }

  const auto reloaded = registry::model_registry::load_directory(dir);
  // Qubit 0: untouched row, exact state.
  EXPECT_EQ(reloaded->active_version(0), 1u);
  // Qubit 1: row lost, so its rollback-to-v1 choice is lost with it — the
  // fallback activates the newest verifiable version. Both snapshots are
  // intact, nothing is quarantined, and the registry opened.
  EXPECT_EQ(reloaded->active_version(1), 2u);
  EXPECT_EQ(reloaded->list(1).size(), 2u);
  EXPECT_EQ(reloaded->stats().quarantined, 0u);
  std::filesystem::remove_all(dir);
}

TEST(RegistryFaults, MissingActiveSnapshotFileFallsBack) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("missing_active");

  registry::model_registry reg(1, {.keep_versions = 3});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.publish(0, registry::model_snapshot(f.student0_b));
  reg.save_directory(dir);
  std::filesystem::remove(dir + "/" +
                          data::versioned_snapshot_filename(0, 2));

  const auto reloaded = registry::model_registry::load_directory(dir);
  EXPECT_EQ(reloaded->active_version(0), 1u);
  EXPECT_EQ(reloaded->stats().quarantined, 0u);  // missing ≠ corrupt
  std::filesystem::remove_all(dir);
}

TEST(RegistryFaults, AllVersionsCorruptLeavesQubitUnpublishedButOpens) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("all_corrupt");

  registry::model_registry reg(2, {.keep_versions = 2});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.publish(1, registry::model_snapshot(f.student1));
  reg.save_directory(dir);

  // Flip bytes in qubit 0's only snapshot (the quantized-parameter hash
  // catches in-band corruption that is not a truncation).
  const std::string v1 = dir + "/" + data::versioned_snapshot_filename(0, 1);
  {
    std::fstream file(v1, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(64);
    const char junk[4] = {0x5a, 0x5a, 0x5a, 0x5a};
    file.write(junk, sizeof junk);
  }

  const auto reloaded = registry::model_registry::load_directory(dir);
  EXPECT_EQ(reloaded->stats().quarantined, 1u);
  // Qubit 0 has nothing verifiable left: unpublished, but the registry is
  // open and qubit 1 serves.
  EXPECT_EQ(reloaded->active_version(0), 0u);
  EXPECT_THROW(reloaded->acquire(0), invalid_argument_error);
  EXPECT_EQ(reloaded->active_version(1), 1u);
  serve::readout_server server(*reloaded, {.shard_shots = 64});
  const serve::ticket t =
      server.submit({1, &f.data1.test, serve::engine_kind::fixed_q16});
  EXPECT_EQ(server.wait(t).status, serve::request_status::ok);
  std::filesystem::remove_all(dir);
}

TEST(RegistryFaults, LoadFaultPointCorruptionQuarantines) {
  fault::disarm_all();
  auto& f = fixture();
  const std::string dir = store_dir("load_corrupt");

  registry::model_registry reg(1, {.keep_versions = 2});
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.save_directory(dir);

  fault::fault_spec corrupt;
  corrupt.mode = fault::fault_mode::corrupt_bytes;
  corrupt.seed = 11;
  fault::arm("registry.load.snapshot", corrupt);
  const auto reloaded = registry::model_registry::load_directory(dir);
  fault::disarm_all();
  EXPECT_EQ(reloaded->stats().quarantined, 1u);
  EXPECT_EQ(reloaded->active_version(0), 0u);

  // The quarantine renamed the (actually pristine) file; a clean re-save
  // from the in-memory registry restores service.
  reg.save_directory(dir);
  const auto recovered = registry::model_registry::load_directory(dir);
  EXPECT_EQ(recovered->active_version(0), 1u);
  std::filesystem::remove_all(dir);
}

// --- serve chaos ------------------------------------------------------------

TEST(ServeChaos, EveryTicketResolvesUnderArmedFaults) {
  fault::disarm_all();
  auto& f = fixture();

  registry::model_registry reg(2);
  reg.publish(0, registry::model_snapshot(f.student0_a));
  reg.publish(1, registry::model_snapshot(f.student1));

  // Every serve-path fault point armed at once: leases fail, shards throw,
  // shards stall (deadline fodder), acquisition fails.
  fault::arm_from_string(
      "serve.shard.run:throw:0.1:17,"
      "serve.submit.lease:throw:0.05:23,"
      "registry.acquire:delay_ms=1:0.05:29");

  serve::readout_server server(reg,
                               {.shard_shots = 64, .max_inflight = 32});
  constexpr int kThreads = 3;
  constexpr int kRequestsPerThread = 24;
  std::atomic<std::uint64_t> ok{0}, failed{0}, timed_out{0}, cancelled{0},
      rejected_submits{0};

  std::vector<std::thread> submitters;
  for (int thread_index = 0; thread_index < kThreads; ++thread_index) {
    submitters.emplace_back([&, thread_index] {
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const std::size_t qubit = static_cast<std::size_t>(i % 2);
        serve::readout_request request{
            qubit, qubit == 0 ? &f.data0.test : &f.data1.test,
            serve::engine_kind::fixed_q16};
        if (i % 5 == 1) request.deadline_seconds = 1e-12;  // guaranteed expiry
        serve::ticket t{};
        try {
          t = server.submit(request);
        } catch (const fault::injected_fault&) {
          ++rejected_submits;  // lease/acquire fault: no ticket ever existed
          continue;
        }
        if (i % 7 == 2) server.cancel(t);  // may race completion; both fine
        try {
          const serve::readout_result result = server.wait(t);
          switch (result.status) {
            case serve::request_status::ok: ++ok; break;
            case serve::request_status::timed_out: ++timed_out; break;
            case serve::request_status::cancelled: ++cancelled; break;
            case serve::request_status::failed: ++failed; break;
          }
        } catch (const fault::injected_fault&) {
          ++failed;  // wait() rethrows the injected shard error
        }
        (void)thread_index;
      }
    });
  }
  for (std::thread& submitter : submitters) submitter.join();
  server.drain();

  // Accounting reconciles exactly: every obtained ticket resolved once.
  const serve::server_stats stats = server.stats();
  const std::uint64_t resolved = ok + failed + timed_out + cancelled;
  EXPECT_EQ(resolved + rejected_submits,
            static_cast<std::uint64_t>(kThreads * kRequestsPerThread));
  EXPECT_EQ(stats.requests_submitted, resolved);
  EXPECT_EQ(stats.requests_completed, resolved);
  EXPECT_EQ(stats.failed_requests, failed);
  EXPECT_EQ(stats.timed_out_requests, timed_out);
  EXPECT_EQ(stats.cancelled_requests, cancelled);
  EXPECT_EQ(stats.inflight, 0u);
  // At 10% shard-throw over ~3 shards/request something must have fired.
  EXPECT_GT(fault::fired("serve.shard.run"), 0u);
  EXPECT_GT(stats.shard_failures, 0u);
  fault::disarm_all();
}

// --- self-healing: failure threshold → rollback → recovery ------------------

TEST(ServeChaos, PersistentShardFailuresAutoRollBackAndRecover) {
  fault::disarm_all();
  auto& f = fixture();

  registry::model_registry reg(1, {.keep_versions = 3});
  reg.publish(0, registry::model_snapshot(f.student0_a));  // v1: known-good
  reg.publish(0, registry::model_snapshot(f.student0_b));  // v2: active
  ASSERT_EQ(reg.active_version(0), 2u);

  serve::readout_server server(
      reg, {.shard_shots = 64, .failure_threshold = 4});

  // Mid-stream "bad model": every shard on the active version now throws.
  fault::fault_spec always_throw;
  always_throw.mode = fault::fault_mode::throw_error;
  fault::arm("serve.shard.run", always_throw);

  // One 300-shot request = 5 shards = 5 consecutive failures ≥ threshold 4:
  // the server asks the registry to demote v2.
  const serve::ticket t =
      server.submit({0, &f.data0.test, serve::engine_kind::fixed_q16});
  EXPECT_THROW(server.wait(t), fault::injected_fault);

  EXPECT_EQ(reg.active_version(0), 1u);  // rolled back to last-known-good
  EXPECT_TRUE(reg.degraded(0));
  EXPECT_GE(reg.stats().demotions, 1u);
  EXPECT_GE(reg.stats().rollbacks, 1u);
  EXPECT_GE(server.stats().rollbacks, 1u);
  EXPECT_GE(server.stats().failed_requests, 1u);

  // Fault cleared (the "bad deploy" is rolled back): service recovers on
  // v1 and the answers are bit-identical to the known-good model.
  fault::disarm_all();
  const serve::ticket recovered =
      server.submit({0, &f.data0.test, serve::engine_kind::fixed_q16});
  const serve::readout_result result = server.wait(recovered);
  EXPECT_EQ(result.status, serve::request_status::ok);
  EXPECT_EQ(result.model_version, 1u);
  std::vector<q16_16> expected(f.data0.test.size());
  hw::fixed_discriminator<q16_16>(f.student0_a)
      .logits(f.data0.test, expected);
  ASSERT_EQ(result.registers.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(result.registers[r].raw(), expected[r].raw()) << "row " << r;
  }
  // An explicit lifecycle action (the rollback already happened; publish /
  // activate would too) is what clears the degraded flag — recovery of
  // traffic alone does not un-flag the qubit.
  EXPECT_TRUE(reg.degraded(0));
  reg.activate(0, 1);
  EXPECT_FALSE(reg.degraded(0));
}

}  // namespace
