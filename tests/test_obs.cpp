// klinq::obs — labeled metrics registry, exposition formats, fault mirror
// and the trace plane.
//
// Contracts under test:
//   * log_histogram: interpolated quantiles exact at the observed extremes
//     and tighter than the covering bin's geometric midpoint, min/max
//     tracking, merge, non-finite handling;
//   * metric_registry: find-or-create resolution returns stable cells,
//     label canonicalization, kind/name validation, and a concurrent
//     hammer (run under TSAN in CI) proving lock-free records plus
//     concurrent resolution and snapshots lose nothing;
//   * exposition: Prometheus text passes the strict linter and matches a
//     golden rendering; the linter catches the malformed inputs it exists
//     for;
//   * fault mirror: fault::report() deltas land as counters and survive
//     the counter reset on re-arm;
//   * trace plane: the shared microsecond clock is monotonic, the span ring
//     gates on armed(), bounds memory by overwriting oldest, and groups
//     spans into traces; its kept set (tail retention) overwrites the
//     oldest anomaly, keeps the slowest ok requests, keeps their spans
//     while disarmed, and its admission gate stays cheap and truthful; the
//     head sampler is deterministic at any rate;
//     chrome_trace_json is structurally valid trace-event JSON; the file
//     sink + KLINQ_TRACE_FILE / KLINQ_TRACE_SAMPLE env wiring.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "klinq/common/error.hpp"
#include "klinq/fault/fault.hpp"
#include "klinq/obs/exposition.hpp"
#include "klinq/obs/fault_mirror.hpp"
#include "klinq/obs/histogram.hpp"
#include "klinq/obs/trace.hpp"
#include "klinq/obs/metrics.hpp"

namespace {

using namespace klinq;

// --- histogram -------------------------------------------------------------

TEST(ObsHistogram, EmptyAndSingleValue) {
  obs::log_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);

  h.record(3.7e-3);
  EXPECT_EQ(h.count(), 1u);
  // One observation: every quantile is that observation, exactly — the
  // clamp to [min, max] removes the old midpoint bin error entirely.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.7e-3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.7e-3);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.7e-3);
  EXPECT_DOUBLE_EQ(h.min(), 3.7e-3);
  EXPECT_DOUBLE_EQ(h.max(), 3.7e-3);
}

TEST(ObsHistogram, InterpolatedQuantileBeatsMidpoint) {
  // 1000 samples spread uniformly (in log space) across two decades.
  obs::log_histogram h;
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) {
    const double v = 1e-4 * std::pow(10.0, 2.0 * i / 999.0);
    values.push_back(v);
    h.record(v);
  }
  const double exact_p50 = values[499];
  const double interp = h.quantile(0.5);
  // What an uninterpolated histogram answers: the geometric midpoint of the
  // bin that covers the p50 sample (bin 0 is the underflow slot).
  using bins = obs::histogram_data;
  const auto bin = 1 + static_cast<std::size_t>(
                           std::log10(exact_p50 / bins::kMinValue) *
                           bins::kBinsPerDecade);
  const double midpoint =
      std::sqrt(bins::bin_lower_edge(bin) * bins::bin_upper_edge(bin));
  EXPECT_LE(std::abs(interp - exact_p50) / exact_p50,
            std::abs(midpoint - exact_p50) / exact_p50 + 1e-12);
  // Interpolation error stays well under one bin width (~15%).
  EXPECT_NEAR(interp, exact_p50, exact_p50 * 0.08);
  // Extremes are exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), values.front());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), values.back());
}

TEST(ObsHistogram, MergeAndNonFinite) {
  obs::log_histogram a;
  obs::log_histogram b;
  a.record(1e-3);
  a.record(2e-3);
  b.record(4e-3);
  obs::histogram_data merged = a.data();
  merged.merge(b.data());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_DOUBLE_EQ(merged.min, 1e-3);
  EXPECT_DOUBLE_EQ(merged.max, 4e-3);
  EXPECT_NEAR(merged.sum, 7e-3, 1e-12);

  obs::log_histogram nf;
  nf.record(std::numeric_limits<double>::quiet_NaN());
  nf.record(std::numeric_limits<double>::infinity());
  nf.record(5e-2);
  // Non-finite observations are counted (into underflow/overflow) but never
  // poison sum/min/max.
  EXPECT_EQ(nf.count(), 3u);
  EXPECT_TRUE(std::isfinite(nf.sum()));
  EXPECT_DOUBLE_EQ(nf.min(), 5e-2);
  EXPECT_DOUBLE_EQ(nf.max(), 5e-2);
}

// --- registry resolution ---------------------------------------------------

TEST(ObsRegistry, ResolutionIsStableAndOrderInsensitive) {
  obs::metric_registry reg;
  obs::counter& a =
      reg.get_counter("requests_total", {{"qubit", "0"}, {"engine", "fixed"}});
  obs::counter& b =
      reg.get_counter("requests_total", {{"engine", "fixed"}, {"qubit", "0"}});
  EXPECT_EQ(&a, &b);  // label order canonicalized away
  obs::counter& c =
      reg.get_counter("requests_total", {{"engine", "float"}, {"qubit", "0"}});
  EXPECT_NE(&a, &c);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  const obs::metrics_snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("requests_total",
                       {{"qubit", "0"}, {"engine", "fixed"}}),
            3.0);
  EXPECT_EQ(snap.value("requests_total",
                       {{"engine", "float"}, {"qubit", "0"}}),
            0.0);
  EXPECT_EQ(snap.value("absent_family"), 0.0);
}

TEST(ObsRegistry, ValidationAndKindMismatch) {
  obs::metric_registry reg;
  EXPECT_THROW(reg.get_counter("bad name"), invalid_argument_error);
  EXPECT_THROW(reg.get_counter("0leading_digit"), invalid_argument_error);
  EXPECT_THROW(reg.get_counter("ok_name", {{"bad-key", "v"}}),
               invalid_argument_error);
  EXPECT_THROW(reg.get_counter("ok_name", {{"le", "v"}}),
               invalid_argument_error);  // reserved by histogram exposition
  EXPECT_THROW(reg.get_counter("ok_name", {{"k", "1"}, {"k", "2"}}),
               invalid_argument_error);  // duplicate key

  reg.get_counter("family_a");
  EXPECT_THROW(reg.get_gauge("family_a"), invalid_argument_error);
  EXPECT_THROW(reg.get_histogram("family_a"), invalid_argument_error);
  // Label values are unconstrained (escaped at exposition time).
  EXPECT_NO_THROW(reg.get_counter("family_b", {{"k", "weird \"value\"\n"}}));
}

TEST(ObsRegistry, HelpBackfillAndFamilyCount) {
  obs::metric_registry reg;
  reg.get_counter("documented_total", {{"k", "1"}}, "");
  reg.get_counter("documented_total", {{"k", "2"}}, "Later help wins.");
  const obs::metrics_snapshot snap = reg.snapshot();
  const obs::family_snapshot* fam = snap.find("documented_total");
  ASSERT_NE(fam, nullptr);
  EXPECT_EQ(fam->help, "Later help wins.");
  EXPECT_EQ(fam->series.size(), 2u);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(ObsRegistry, HistogramQuantileSubsetMatch) {
  obs::metric_registry reg;
  reg.get_histogram("stage_seconds", {{"stage", "exec"}, {"qubit", "0"}})
      .record(1e-3);
  reg.get_histogram("stage_seconds", {{"stage", "exec"}, {"qubit", "1"}})
      .record(1e-1);
  reg.get_histogram("stage_seconds", {{"stage", "hold"}, {"qubit", "0"}})
      .record(1e1);
  const obs::metrics_snapshot snap = reg.snapshot();
  // Subset match over {stage=exec} merges both qubits but not "hold".
  const double p100 =
      snap.histogram_quantile("stage_seconds", {{"stage", "exec"}}, 1.0);
  EXPECT_DOUBLE_EQ(p100, 1e-1);
  const double p0 =
      snap.histogram_quantile("stage_seconds", {{"stage", "exec"}}, 0.0);
  EXPECT_DOUBLE_EQ(p0, 1e-3);
  EXPECT_DOUBLE_EQ(snap.histogram_quantile("stage_seconds", {}, 1.0), 1e1);
}

TEST(ObsRegistry, CollectorsRunAtSnapshot) {
  obs::metric_registry reg;
  obs::gauge& g = reg.get_gauge("pulled_value");
  std::atomic<int> pulls{0};
  const std::uint64_t id = reg.add_collector([&] {
    pulls.fetch_add(1);
    g.set(42.0);
  });
  EXPECT_EQ(g.value(), 0.0);
  const obs::metrics_snapshot snap = reg.snapshot();
  EXPECT_EQ(pulls.load(), 1);
  EXPECT_EQ(snap.value("pulled_value"), 42.0);
  reg.remove_collector(id);
  reg.snapshot();
  EXPECT_EQ(pulls.load(), 1);  // unbound collectors never run again
}

// The TSAN target: concurrent increments through shared and distinct
// resolved handles, concurrent resolution of fresh series, and concurrent
// snapshots — exact totals at the end, no data races reported.
TEST(ObsRegistry, ConcurrentHammer) {
  obs::metric_registry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  obs::counter& shared = reg.get_counter("hammer_shared_total");
  obs::log_histogram& histo = reg.get_histogram("hammer_seconds");
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      obs::counter& mine =
          reg.get_counter("hammer_per_thread_total",
                          {{"thread", std::to_string(t)}});
      for (int i = 0; i < kIters; ++i) {
        shared.inc();
        mine.inc();
        histo.record(1e-4 * (1 + (i % 7)));
        if (i % 512 == 0) {
          // Concurrent resolution of a fresh series + a full snapshot, both
          // racing the lock-free records above.
          reg.get_counter("hammer_burst_total",
                          {{"thread", std::to_string(t)},
                           {"burst", std::to_string(i / 512)}})
              .inc();
          reg.snapshot();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(shared.value(), static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(histo.count(), static_cast<std::uint64_t>(kThreads) * kIters);
  const obs::metrics_snapshot snap = reg.snapshot();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.value("hammer_per_thread_total",
                         {{"thread", std::to_string(t)}}),
              static_cast<double>(kIters));
  }
}

// --- exposition ------------------------------------------------------------

TEST(ObsExposition, PrometheusGoldenScalarFamilies) {
  obs::metric_registry reg;
  reg.get_counter("demo_requests_total", {{"engine", "fixed"}, {"qubit", "0"}},
                  "Requests served.")
      .inc(7);
  reg.get_counter("demo_requests_total", {{"engine", "fixed"}, {"qubit", "1"}})
      .inc(2);
  reg.get_gauge("demo_inflight", {}, "Open tickets.").set(3.0);
  reg.get_gauge("demo_ratio", {{"kind", "es\"cape\\d\n"}}).set(0.25);

  const std::string text = obs::prometheus_text(reg.snapshot());
  const std::string expected =
      "# HELP demo_inflight Open tickets.\n"
      "# TYPE demo_inflight gauge\n"
      "demo_inflight 3\n"
      "# TYPE demo_ratio gauge\n"
      "demo_ratio{kind=\"es\\\"cape\\\\d\\n\"} 0.25\n"
      "# HELP demo_requests_total Requests served.\n"
      "# TYPE demo_requests_total counter\n"
      "demo_requests_total{engine=\"fixed\",qubit=\"0\"} 7\n"
      "demo_requests_total{engine=\"fixed\",qubit=\"1\"} 2\n";
  EXPECT_EQ(text, expected);
  EXPECT_TRUE(obs::lint_prometheus_text(text).empty());
}

TEST(ObsExposition, PrometheusHistogramShapeAndLint) {
  obs::metric_registry reg;
  obs::log_histogram& h =
      reg.get_histogram("demo_seconds", {{"stage", "exec"}}, "Stage time.");
  h.record(1e-3);
  h.record(2e-3);
  h.record(5.0);
  const std::string text = obs::prometheus_text(reg.snapshot());
  ASSERT_TRUE(obs::lint_prometheus_text(text).empty())
      << obs::lint_prometheus_text(text).front();
  // Cumulative buckets end at +Inf == count; sum is the raw sum.
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(
      text.find("demo_seconds_bucket{stage=\"exec\",le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count{stage=\"exec\"} 3"),
            std::string::npos);
  // A bucket edge between 2e-3 and 5 must already hold 2.
  EXPECT_NE(text.find("demo_seconds_bucket{stage=\"exec\",le=\"0.01\"} 2"),
            std::string::npos);
}

TEST(ObsExposition, LintCatchesMalformedInput) {
  const auto problems = [](const char* text) {
    return obs::lint_prometheus_text(text);
  };
  EXPECT_FALSE(problems("1bad_name 3\n").empty());
  EXPECT_FALSE(problems("ok_name notanumber\n").empty());
  EXPECT_FALSE(problems("ok_name{k=unquoted} 1\n").empty());
  EXPECT_FALSE(problems("ok_name{k=\"v\"} 1\nok_name{k=\"v\"} 2\n").empty());
  EXPECT_FALSE(problems("# TYPE ok_name nonsense_type\n").empty());
  EXPECT_FALSE(
      problems("# TYPE ok_name counter\n# TYPE ok_name counter\n").empty());
  // TYPE after the family already emitted samples.
  EXPECT_FALSE(problems("ok_name 1\n# TYPE ok_name counter\n").empty());
  // Bad escape in a label value.
  EXPECT_FALSE(problems("ok_name{k=\"bad\\q\"} 1\n").empty());
  // Clean inputs stay clean, including exotic-but-legal values.
  EXPECT_TRUE(problems("ok_name +Inf\nother_name NaN 1712345678\n").empty());
}

// --- fault mirror ----------------------------------------------------------

TEST(ObsFaultMirror, ReportDeltasBecomeCounters) {
  fault::disarm_all();
  obs::metric_registry reg;
  const std::uint64_t id = obs::bind_fault_metrics(reg);
  fault::arm_from_string("obs.test.site:throw:1.0:3");
  for (int i = 0; i < 5; ++i) {
    try {
      fault::trigger("obs.test.site");
    } catch (const fault::injected_fault&) {
    }
  }
  obs::metrics_snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("klinq_fault_evaluations_total",
                       {{"site", "obs.test.site"}}),
            5.0);
  EXPECT_EQ(snap.value("klinq_fault_fired_total",
                       {{"site", "obs.test.site"}}),
            5.0);  // probability 1.0: every evaluation fires

  // Re-arming resets fault's internal counters; the mirror's cursors clamp
  // instead of double-counting or going backwards.
  fault::arm_from_string("obs.test.site:throw:1.0:3");
  try {
    fault::trigger("obs.test.site");
  } catch (const fault::injected_fault&) {
  }
  snap = reg.snapshot();
  EXPECT_EQ(snap.value("klinq_fault_evaluations_total",
                       {{"site", "obs.test.site"}}),
            6.0);
  fault::disarm_all();
  reg.remove_collector(id);
}

// --- tracing ----------------------------------------------------------------

std::string temp_path(const char* stem) {
  return (std::filesystem::temp_directory_path() /
          (std::string(stem) + std::to_string(::getpid()) + ".jsonl"))
      .string();
}

obs::trace_span make_span(std::uint64_t trace_id, std::uint64_t span_id,
                          std::uint64_t start_us, std::uint64_t duration_us,
                          const char* name = "span",
                          std::uint64_t parent = 0) {
  obs::trace_span s;
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_span = parent;
  s.start_us = start_us;
  s.duration_us = duration_us;
  s.name = name;
  s.category = "test";
  return s;
}

TEST(ObsTrace, ClockIsMonotonicMicroseconds) {
  const std::uint64_t t1 = obs::trace_clock_us();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::uint64_t t2 = obs::trace_clock_us();
  EXPECT_GE(t2, t1 + 1000);  // at least the sleep, in microseconds
  EXPECT_LT(t2 - t1, 1000000u);  // and nowhere near a second
}

TEST(ObsTrace, RingGatesOnArmedAndHandsOutUniqueIds) {
  obs::trace_ring ring(8);
  EXPECT_FALSE(ring.armed());
  ring.record(make_span(1, 1, 0, 5));  // disarmed: dropped on the floor
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.spans().empty());

  ring.set_armed(true);
  const std::uint64_t a = ring.next_span_id();
  const std::uint64_t b = ring.next_span_id();
  const std::uint64_t t = ring.next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, a);
  EXPECT_NE(t, 0u);
  ring.record(make_span(t, a, 0, 5));
  EXPECT_EQ(ring.recorded(), 1u);
  ASSERT_EQ(ring.spans().size(), 1u);
  EXPECT_EQ(ring.spans()[0].trace_id, t);
}

TEST(ObsTrace, RingOverwritesOldestWhenFull) {
  obs::trace_ring ring(4);
  ring.set_armed(true);
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ring.record(make_span(i, i, i * 10, 1));
  }
  EXPECT_EQ(ring.recorded(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);  // spans 1 and 2 were overwritten
  const std::vector<obs::trace_span> spans = ring.spans();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and the survivors are the four most recent.
  EXPECT_EQ(spans.front().trace_id, 3u);
  EXPECT_EQ(spans.back().trace_id, 6u);

  ring.clear();
  EXPECT_TRUE(ring.spans().empty());
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(ObsTrace, TracesGroupByIdMostRecentlyFinishedFirst) {
  obs::trace_ring ring(16);
  ring.set_armed(true);
  // Trace 7: two spans ending at t=30. Trace 9: one span ending at t=45.
  ring.record(make_span(7, 1, 10, 20, "a"));
  ring.record(make_span(7, 2, 12, 10, "b", /*parent=*/1));
  ring.record(make_span(9, 3, 40, 5, "c"));

  const auto views = ring.traces();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].trace_id, 9u);  // finished latest (t=45)
  EXPECT_EQ(views[1].trace_id, 7u);
  EXPECT_EQ(views[1].start_us, 10u);
  EXPECT_EQ(views[1].duration_us, 20u);  // earliest start → latest end
  ASSERT_EQ(ring.traces(1).size(), 1u);
  EXPECT_EQ(ring.traces(1)[0].trace_id, 9u);
}

obs::kept_trace make_kept(std::uint64_t trace_id, std::uint64_t total_us,
                          bool anomalous) {
  obs::kept_trace k;
  k.trace_id = trace_id;
  k.status = anomalous ? "failed" : "ok";
  k.anomalous = anomalous;
  k.duration_us = total_us;
  k.spans = {make_span(trace_id, 1, 0, total_us * 3 / 10, "serve.queue"),
             make_span(trace_id, 2, total_us * 3 / 10, total_us * 7 / 10,
                       "serve.exec")};
  return k;
}

TEST(ObsTrace, KeptAnomaliesOverwriteOldest) {
  obs::trace_ring ring(8);
  const std::size_t n = obs::trace_ring::kKeptAnomalies + 2;
  for (std::uint64_t id = 1; id <= n; ++id) {
    ASSERT_TRUE(ring.should_keep(1000, true));
    ring.keep(make_kept(id, 1000, true));
  }
  const std::vector<obs::kept_trace> kept = ring.kept();
  // The ring kept the newest kKeptAnomalies, oldest first.
  ASSERT_EQ(kept.size(), obs::trace_ring::kKeptAnomalies);
  EXPECT_EQ(kept.front().trace_id, 3u);
  EXPECT_EQ(kept.back().trace_id, n);
  for (const obs::kept_trace& k : kept) EXPECT_TRUE(k.anomalous);
}

TEST(ObsTrace, KeptSlowestSetKeepsTopN) {
  obs::trace_ring ring(8);
  const std::size_t n = obs::trace_ring::kKeptSlowest;
  // Durations 1..3n in a scrambled order; the top n are 2n+1..3n.
  for (std::uint64_t i = 0; i < 3 * n; ++i) {
    const std::uint64_t total = (i * 7) % (3 * n) + 1;
    if (ring.should_keep(total, false)) {
      ring.keep(make_kept(i + 1, total, false));
    }
  }
  const std::vector<obs::kept_trace> kept = ring.kept();
  ASSERT_EQ(kept.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(kept[i].duration_us, 2 * n + 1 + i);  // ascending
    EXPECT_FALSE(kept[i].anomalous);
  }
  // Once full, the gate rejects anything at or below the current minimum.
  EXPECT_FALSE(ring.should_keep(2 * n + 1, false));
  EXPECT_TRUE(ring.should_keep(2 * n + 2, false));
  EXPECT_TRUE(ring.should_keep(0, true));  // anomalies always pass
  // keep() re-checks under its lock: a stale gate cannot evict a slower one.
  ring.keep(make_kept(99, 1, false));
  EXPECT_EQ(ring.kept().front().duration_us, 2 * n + 1);
  ring.clear();
  EXPECT_TRUE(ring.kept().empty());
  EXPECT_TRUE(ring.should_keep(0, false));  // bar reset
}

TEST(ObsTrace, KeptSpansSurviveCaptureApartFromTheFifo) {
  obs::trace_ring ring(8);
  ASSERT_FALSE(ring.armed());  // kept entries do not need the ring armed
  obs::kept_trace k = make_kept(17, 10000, false);
  k.attributes = {{"qubit", "2"}, {"engine", "fixed-q16.16"}};
  ring.keep(k);
  const std::vector<obs::kept_trace> kept = ring.kept();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace_id, 17u);
  EXPECT_EQ(kept[0].status, "ok");
  ASSERT_EQ(kept[0].spans.size(), 2u);
  EXPECT_EQ(kept[0].spans[0].name, "serve.queue");
  EXPECT_EQ(kept[0].spans[1].name, "serve.exec");
  EXPECT_EQ(kept[0].spans[1].duration_us, 7000u);
  EXPECT_EQ(kept[0].attributes[0].second, "2");
  // The head-sampled FIFO is untouched.
  EXPECT_TRUE(ring.spans().empty());
  EXPECT_TRUE(ring.traces().empty());
  EXPECT_EQ(ring.recorded(), 0u);
}

TEST(ObsTrace, SamplerIsDeterministicAtEveryRate) {
  obs::trace_sampler never(0.0);
  obs::trace_sampler always(1.0);
  obs::trace_sampler quarter(0.25);
  int never_hits = 0;
  int always_hits = 0;
  int quarter_hits = 0;
  for (int i = 0; i < 16; ++i) {
    never_hits += never.sample() ? 1 : 0;
    always_hits += always.sample() ? 1 : 0;
    quarter_hits += quarter.sample() ? 1 : 0;
  }
  EXPECT_EQ(never_hits, 0);
  EXPECT_EQ(always_hits, 16);
  EXPECT_EQ(quarter_hits, 4);  // counter-based: exact, not probabilistic
  EXPECT_DOUBLE_EQ(quarter.rate(), 0.25);

  // Copy carries the counter phase, so the copy continues the cadence.
  obs::trace_sampler copy(quarter);
  int copy_hits = 0;
  for (int i = 0; i < 16; ++i) copy_hits += copy.sample() ? 1 : 0;
  EXPECT_EQ(copy_hits, 4);

  // Rates that are not 1/k: the first N calls yield exactly round(N*rate).
  for (const auto& [rate, expected] :
       {std::pair{0.4, 400}, {0.6, 600}, {0.75, 750}, {0.9, 900}}) {
    obs::trace_sampler sampler(rate);
    int hits = 0;
    for (int i = 0; i < 1000; ++i) hits += sampler.sample() ? 1 : 0;
    EXPECT_EQ(hits, expected) << "rate " << rate;
  }
}

// Tiny structural JSON scanner: validates balanced {}/[] outside strings,
// legal string escapes, and no trailing garbage. Not a full parser — just
// enough to prove the exporter cannot emit something Perfetto rejects at
// the syntax level.
bool json_structurally_valid(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': stack.push_back(c); break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

TEST(ObsTrace, ChromeTraceJsonIsStructurallyValid) {
  std::vector<obs::trace_span> spans;
  obs::trace_span tricky = make_span(0xABCD, 2, 100, 50, "net.read", 1);
  tricky.category = "net";
  spans.push_back(make_span(0xABCD, 1, 90, 80, "client.rtt"));
  spans.push_back(tricky);
  const std::string json = obs::chrome_trace_json(spans);

  EXPECT_TRUE(json_structurally_valid(json)) << json;
  // The trace-event envelope Perfetto looks for.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":90"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":80"), std::string::npos);
  EXPECT_NE(json.find("\"client.rtt\""), std::string::npos);
  EXPECT_NE(json.find("trace_id"), std::string::npos);

  // Empty input still renders a loadable (empty) envelope.
  const std::string empty = obs::chrome_trace_json({});
  EXPECT_TRUE(json_structurally_valid(empty)) << empty;
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsTrace, FileSinkWritesOnceAtStop) {
  const std::string path = temp_path("klinq_obs_trace_sink_");
  std::filesystem::remove(path);
  obs::trace_ring ring(16);
  ring.set_armed(true);
  ring.record(make_span(5, 1, 10, 20, "serve.exec"));
  {
    obs::trace_file_sink sink(ring, path);
    sink.stop();
    sink.stop();  // idempotent
  }
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_structurally_valid(buffer.str()));
  EXPECT_NE(buffer.str().find("\"serve.exec\""), std::string::npos);
  std::filesystem::remove(path);

  // An unwritable path fails at construction, not at exit.
  EXPECT_THROW(obs::trace_file_sink(ring, "/nonexistent-dir/trace.json"),
               io_error);
}

TEST(ObsTrace, EnvironmentWiring) {
  obs::trace_ring ring(16);
  ::unsetenv("KLINQ_TRACE_FILE");
  ::unsetenv("KLINQ_TRACE_SAMPLE");
  EXPECT_EQ(obs::start_trace_sink_from_env(ring), nullptr);
  EXPECT_FALSE(ring.armed());  // unset leaves the ring untouched
  EXPECT_DOUBLE_EQ(obs::trace_sample_rate_from_env(), 1.0);

  ::setenv("KLINQ_TRACE_SAMPLE", "0.25", 1);
  EXPECT_DOUBLE_EQ(obs::trace_sample_rate_from_env(), 0.25);
  ::setenv("KLINQ_TRACE_SAMPLE", "7", 1);  // clamped into [0, 1]
  EXPECT_DOUBLE_EQ(obs::trace_sample_rate_from_env(), 1.0);
  ::setenv("KLINQ_TRACE_SAMPLE", "-3", 1);
  EXPECT_DOUBLE_EQ(obs::trace_sample_rate_from_env(), 0.0);
  ::unsetenv("KLINQ_TRACE_SAMPLE");

  const std::string path = temp_path("klinq_obs_trace_env_");
  std::filesystem::remove(path);
  ::setenv("KLINQ_TRACE_FILE", path.c_str(), 1);
  {
    const auto sink = obs::start_trace_sink_from_env(ring);
    ASSERT_NE(sink, nullptr);
    EXPECT_TRUE(ring.armed());  // the env sink arms the ring it serves
    ring.record(make_span(3, 1, 5, 5, "net.decode"));
  }
  ::unsetenv("KLINQ_TRACE_FILE");
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"net.decode\""), std::string::npos);
  std::filesystem::remove(path);
}

}  // namespace
