#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Tail tail_of(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - p / 100.0);
    if (beyond + 1e-9 < 10.0) break;
    tail.percentile = p;
  }
  tail.value = quantile(values, tail.percentile / 100.0);
  return tail;
}

int Tracer::begin(std::string name, std::string layer, std::uint64_t job) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.job = job;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(std::string name, std::string layer, std::uint64_t job,
                 std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.job = job;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_layer() const {
  // Children covering their parent are disjoint in a nested recording, but
  // add()-ed spans may overlap (requests in flight together), so the part
  // of a parent they cover is the union of their intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].push_back(
          {span.start_ns, span.end_ns});
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      const std::int64_t to = std::min(end, spans_[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    self[spans_[i].layer] +=
        static_cast<double>(std::max<std::int64_t>(0, total - covered)) * 1e-6;
  }
  return {self.begin(), self.end()};
}

bool Tracer::write_chrome(const std::string& path) const {
  hoval::Json events = hoval::Json::array();
  for (const Span& span : spans_) {
    hoval::Json::Object args{{"job", span.job}, {"parent", span.parent}};
    events.push_back(hoval::Json::object(
        {{"name", span.name},
         {"cat", span.layer},
         {"ph", "X"},
         {"ts", static_cast<double>(span.start_ns) * 1e-3},
         {"dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3},
         {"pid", 1},
         {"tid", 1},
         {"args", hoval::Json::object(std::move(args))}}));
  }
  std::ofstream out(path);
  out << hoval::Json::object({{"traceEvents", events}}).dump() << "\n";
  return static_cast<bool>(out);
}

void Report::fail(const std::string& what) {
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
  failures_.push_back(what);
}

void Report::attempt(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::check(bool ok, const std::string& what) {
  attempt(ok);
  if (!ok) fail(what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.emplace_back(
      name, hoval::Json::object({{"value", value}, {"unit", unit}}));
}

void Report::canary(const std::string& name, long long value) {
  canaries_.emplace_back(name, value);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

hoval::Json Report::to_json() const {
  hoval::Json metrics = hoval::Json::object();
  for (const auto& [name, value] : metrics_) metrics.set(name, value);
  hoval::Json canaries = hoval::Json::object();
  for (const auto& [name, value] : canaries_) canaries.set(name, value);
  hoval::Json notes = hoval::Json::array();
  for (const auto& line : notes_) notes.push_back(line);
  hoval::Json failures = hoval::Json::array();
  for (const auto& line : failures_) failures.push_back(line);
  return hoval::Json::object({{"correct", correct()},
                              {"attempted", attempted_},
                              {"failed", std::max<long long>(failed_, correct() ? 0 : 1)},
                              {"metrics", metrics},
                              {"canaries", canaries},
                              {"notes", notes},
                              {"failures", failures}});
}

void report_latency(Report& report, const std::string& prefix,
                    const std::vector<double>& ms, bool with_tail) {
  report.metric(prefix + "_p50_ms", median(ms), "ms");
  if (!with_tail) return;
  const Tail tail = tail_of(ms);
  report.metric(prefix + "_tail_ms", tail.value, "ms");
  std::ostringstream line;
  line << prefix << "_tail_ms is p" << tail.percentile << " of "
       << tail.samples << " samples";
  report.note(line.str());
}

double peak_rss_mb() {
  // VmHWM, not getrusage(RUSAGE_SELF): ru_maxrss survives exec, so it
  // would report the launching process's peak when that was larger.
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::atol(line.c_str() + 6);
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self_kb + children.ru_maxrss) / 1024.0;
}

void report_trace_overhead(Report& report, double rate_on, double rate_off) {
  report.metric("trace.runs_per_s_traced", rate_on, "1/s");
  report.metric("trace.runs_per_s_untraced", rate_off, "1/s");
  report.metric("trace.overhead_pct",
                rate_off > 0.0 ? 100.0 * (rate_off - rate_on) / rate_off : 0.0,
                "%");
}

namespace {

double calibration_loop(std::uint64_t* sink) {
  // Majority voting among n processes whose messages are corrupted at
  // random: the RNG draws, small histograms and data-dependent branches
  // of the simulator's rounds, in a fixed benchmark-local form that no
  // change to the library can speed up.
  constexpr int n = 16;
  constexpr int rounds = 4000;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::uint32_t values[n];
  for (auto& v : values) v = static_cast<std::uint32_t>(next() % 3);
  std::uint64_t decided = 0;
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < rounds; ++r) {
    std::uint32_t next_values[n];
    for (int p = 0; p < n; ++p) {
      std::uint32_t hist[8] = {0};
      for (int q = 0; q < n; ++q) {
        std::uint32_t m = values[q];
        if ((next() & 7) == 0) m = static_cast<std::uint32_t>(next() % 8);
        ++hist[m & 7];
      }
      std::uint32_t best = 0;
      for (std::uint32_t v = 1; v < 8; ++v)
        if (hist[v] > hist[best]) best = v;
      next_values[p] = best % 3;
      if (hist[best] > 2 * n / 3) ++decided;
    }
    for (int p = 0; p < n; ++p) values[p] = next_values[p];
  }
  const std::int64_t t1 = now_ns();
  *sink += decided;
  return static_cast<double>(rounds) / (static_cast<double>(t1 - t0) * 1e-9);
}

}  // namespace

double HostSpeed::calibration_rate() {
  // Two threads, as the workloads' pools have two workers: the host's
  // slowdown is per core, so one thread samples half of it.
  std::uint64_t sinks[2] = {0, 0};
  double rates[2] = {0.0, 0.0};
  std::thread other([&] { rates[1] = calibration_loop(&sinks[1]); });
  rates[0] = calibration_loop(&sinks[0]);
  other.join();
  sink_ += sinks[0] + sinks[1];
  return 0.5 * (rates[0] + rates[1]);
}

void HostSpeed::between_jobs() {
  if (now_ns() - last_ns_ >= kIntervalNs) sample();
}

void HostSpeed::sample() {
  const std::int64_t now = now_ns();
  samples_.push_back(calibration_rate());
  last_ns_ = now_ns();
  spent_ns_ += last_ns_ - now;
}

double HostSpeed::factor() const {
  if (samples_.empty()) return 1.0;
  return median(samples_) / kReferenceRate;
}

void HostSpeed::report_raw(Report& report, double raw_runs_per_s) const {
  report.metric("host.calibration_rate", median(samples_), "1/s");
  report.metric("host.speed_factor", factor(), "1");
  report.metric("host.runs_per_s_raw", raw_runs_per_s, "1/s");
}

void warm_up(hoval::Executor& executor,
             const std::vector<hoval::ResolvedScenario>& scenarios) {
  constexpr int kWarmUpRuns = 64;
  std::vector<hoval::CampaignHandle> handles;
  for (const hoval::ResolvedScenario& s : scenarios) {
    hoval::CampaignConfig config = s.config;
    config.runs = kWarmUpRuns;
    config.adaptive.enabled = false;
    // The same warm-up work for every workload seed.
    config.base_seed = 1;
    handles.push_back(executor.submit(s.values, s.instance, s.adversary, config));
  }
  for (hoval::CampaignHandle& handle : handles) handle.take();
}

void JobLog::add_unit(bool traced, long long unit_runs, double wall_s) {
  runs += unit_runs;
  (traced ? runs_traced : runs_untraced) += unit_runs;
  (traced ? wall_traced_s : wall_untraced_s) += wall_s;
}

void report_cpu_bound(Report& report, const Options& options,
                      const HostSpeed& host, const JobLog& log, double setup_s,
                      double limit_ms) {
  auto normalised = [&host](std::vector<double> ms) {
    for (double& v : ms) v = host.time(v);
    return ms;
  };
  const std::vector<double> first = normalised(log.first_ms);
  const std::vector<double> repeat = normalised(log.repeat_ms);
  const double raw_rate = static_cast<double>(log.runs) / log.elapsed_s;
  int good = 0;
  for (const auto* sample : {&first, &repeat})
    for (double v : *sample)
      if (v <= limit_ms) ++good;
  report.metric("runs_per_s", host.rate(raw_rate), "1/s");
  report_latency(report, "job", first, true);
  report.metric("repeat_p50_ms", median(repeat), "ms");
  report.metric("goodput_per_s", host.rate(good / log.elapsed_s), "1/s");
  report.metric("setup_s", setup_s, "s");
  if (!options.trace) return;
  host.report_raw(report, raw_rate);
  report_trace_overhead(
      report,
      log.wall_traced_s > 0 ? log.runs_traced / log.wall_traced_s : 0.0,
      log.wall_untraced_s > 0 ? log.runs_untraced / log.wall_untraced_s : 0.0);
}

}  // namespace perfbench

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload "
               "campaign_local|sweep_refine|sweep_plain|service_mix"
               "|service_saturation "
               "--seed N --seconds S --trace 0|1 [--trace-file PATH]\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--trace-file") {
      options.trace_path = value;
    } else {
      usage();
      return 2;
    }
  }
  if (options.workload.empty() || options.seconds <= 0.0) {
    usage();
    return 2;
  }

  Tracer tracer(options.trace);
  Report report;
  try {
    if (options.workload == "campaign_local") {
      run_campaign_local(options, tracer, report);
    } else if (options.workload == "sweep_refine") {
      run_sweep_refine(options, tracer, report);
    } else if (options.workload == "sweep_plain") {
      run_sweep_plain(options, tracer, report);
    } else if (options.workload == "service_mix") {
      run_service_mix(options, tracer, report);
    } else if (options.workload == "service_saturation") {
      run_service_saturation(options, tracer, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  if (options.trace) {
    for (const auto& [layer, ms] : tracer.self_ms_by_layer())
      report.metric("self_ms." + layer, ms, "ms");
    if (!options.trace_path.empty() && !tracer.write_chrome(options.trace_path))
      report.fail("could not write trace file " + options.trace_path);
  }
  std::cout << report.to_json().dump() << std::endl;
  return 0;
}
