#pragma once

/// \file bench.hpp
/// Shared plumbing of the perfbench workloads: clocks, latency summaries,
/// the in-memory span tracer and the result report.  Everything here is
/// benchmark-side: the library under test is only ever called through its
/// public headers, and every span is recorded around such a call.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "scenario/run.hpp"
#include "sim/executor.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace-event file of a traced run
};

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The highest of the percentiles 50/75/90/95/99/99.9 that leaves at least
/// ten samples beyond it, with its value and the sample count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& values);

/// One recorded span: [start, end) around a call into one layer.
struct Span {
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;           ///< index of the enclosing span, -1 at the top
  std::uint64_t job = 0;     ///< spans of one job share this id
};

/// In-memory span recorder, single-threaded: every span is opened and
/// closed on the benchmark's main thread around a blocking library call.
/// Disabled, begin()/end() cost one branch and record nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Turns recording on or off (the overhead probe alternates the two).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  int begin(std::string name, std::string layer, std::uint64_t job);
  void end(int index);

  /// Records a span whose start and end were timed by the caller (used
  /// for intervals that are not a single nested call, e.g. a request in
  /// flight on a socket); parented to the innermost open span.
  void add(std::string name, std::string layer, std::uint64_t job,
           std::int64_t start_ns, std::int64_t end_ns);

  /// Self time per layer in milliseconds: each span's duration minus the
  /// part of it covered by its direct children.
  std::vector<std::pair<std::string, double>> self_ms_by_layer() const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, std::string layer,
        std::uint64_t job = 0)
      : tracer_(tracer),
        index_(tracer.begin(std::move(name), std::move(layer), job)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// What one run reports: the correctness verdict, operation counts, the
/// metrics and the determinism canaries.
class Report {
 public:
  /// Records a failed output check; the run then reports correct = false.
  void fail(const std::string& what);
  /// Counts an attempted operation; `ok = false` also counts it failed.
  void attempt(bool ok = true);
  void check(bool ok, const std::string& what);

  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer count that must repeat exactly for the same seed.
  void canary(const std::string& name, long long value);
  /// A human-readable line printed above the result (e.g. tail details).
  void note(const std::string& line);

  bool correct() const noexcept { return failures_.empty(); }
  /// The result document run.py completes and prints.
  hoval::Json to_json() const;

 private:
  std::vector<std::string> failures_;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::pair<std::string, hoval::Json>> metrics_;
  std::vector<std::pair<std::string, long long>> canaries_;
  std::vector<std::string> notes_;
};

/// Reports a latency sample as <prefix>_p50_ms (and, when `with_tail`,
/// <prefix>_tail_ms with its percentile and sample count as a note).
void report_latency(Report& report, const std::string& prefix,
                    const std::vector<double>& ms, bool with_tail);

/// Peak resident set of this process plus that of its largest waited-for
/// child (the hovald server, a dispatch worker), in MiB.
double peak_rss_mb();

/// Times `setup(i)` `repeats` times and returns the median wall time (s).
/// `teardown(i)` undoes each set-up but the last, outside the timing.
template <typename Setup, typename Teardown>
double median_setup_s(int repeats, Setup&& setup, Teardown&& teardown) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    if (i > 0) teardown(i - 1);
    const std::int64_t t0 = now_ns();
    setup(i);
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return median(std::move(times));
}

/// Host-speed calibration for the CPU-bound workloads.  On a shared host
/// throughput drifts by a quarter in contention phases of tens of seconds
/// to minutes, longer than a run, so a run's raw rate mostly reports the
/// phase it landed in.  Between jobs (at most every 50 ms) a fixed,
/// benchmark-local calibration loop is timed on two threads at once; its
/// median rate divided by kReferenceRate is the host speed factor, and
/// the workload reports its rates divided by that factor and its times
/// multiplied by it: as measured on a host of the reference speed.  The
/// loop is the same code on every commit, so the factor cancels host
/// speed and nothing else; the raw figures appear in the traced run.
class HostSpeed {
 public:
  /// Calibration loop rate (rounds/s) that defines factor 1.
  static constexpr double kReferenceRate = 1.0e6;

  /// Samples the calibration loop if 50 ms have passed since the last
  /// sample; call between jobs, never inside a timed interval.
  void between_jobs();
  /// Samples the calibration loop now.
  void sample();
  /// Median calibration rate / kReferenceRate (1 before any sample).
  double factor() const;
  double rate(double raw_per_s) const { return raw_per_s / factor(); }
  double time(double raw) const { return raw * factor(); }
  void report_raw(Report& report, double raw_runs_per_s) const;
  /// Wall time spent in the calibration loop, to leave out of rates.
  double spent_s() const { return static_cast<double>(spent_ns_) * 1e-9; }

 private:
  static constexpr std::int64_t kIntervalNs = 50'000'000;
  double calibration_rate();

  std::vector<double> samples_;
  std::int64_t last_ns_ = 0;
  std::int64_t spent_ns_ = 0;
  std::uint64_t sink_ = 0;  ///< keeps the loop's result observable
};

/// What the measured loop of a CPU-bound workload records.  A unit is
/// one first job plus its repeat; units alternate traced and untraced in
/// a traced run, which is how the tracing overhead is measured.
struct JobLog {
  std::vector<double> first_ms;   ///< first execution of each job's spec
  std::vector<double> repeat_ms;  ///< the repeat that must match it
  long long runs = 0;
  double elapsed_s = 0.0;
  long long runs_traced = 0;
  long long runs_untraced = 0;
  double wall_traced_s = 0.0;
  double wall_untraced_s = 0.0;

  void add_unit(bool traced, long long unit_runs, double wall_s);
};

/// Reports a CPU-bound workload's end-to-end metrics at reference host
/// speed: runs_per_s, job_p50_ms/job_tail_ms (first executions),
/// repeat_p50_ms, goodput_per_s (jobs within `limit_ms`) and setup_s
/// (already normalised, by the host speed sampled between set-ups).  A
/// traced run adds the tracing overhead and the raw host figures.
void report_cpu_bound(Report& report, const Options& options,
                      const HostSpeed& host, const JobLog& log, double setup_s,
                      double limit_ms);

/// Runs a small campaign of each scenario on the pool and discards it:
/// the warm-up of a set-up (worker workspaces sized for each n, predicate
/// streams built) that the measured jobs then find done.
void warm_up(hoval::Executor& executor,
             const std::vector<hoval::ResolvedScenario>& scenarios);

void run_campaign_local(const Options& options, Tracer& tracer, Report& report);
void run_sweep_refine(const Options& options, Tracer& tracer, Report& report);
void run_sweep_plain(const Options& options, Tracer& tracer, Report& report);
void run_service_mix(const Options& options, Tracer& tracer, Report& report);
/// The closed-loop probe behind service_mix's offered rate (not a
/// benchmark workload: run the binary with --workload service_saturation).
void run_service_saturation(const Options& options, Tracer& tracer, Report& report);

/// Reports `trace.overhead_pct`: the rate lost with span recording on,
/// from interleaved traced/untraced work units of one workload.
void report_trace_overhead(Report& report, double rate_on, double rate_off);

}  // namespace perfbench
