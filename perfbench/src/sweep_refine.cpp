// sweep_refine: refined threshold hunts (src/refine/) with adaptive
// Wilson-stopping campaigns on a 2-worker Executor.  The shapes are the
// A(16,3) and U(12,2) omission-termination collapses of the resilience
// benches.  Runs are short and waves small, so time goes to generation
// barriers, Executor claim/reduce on small waves, per-point expand and
// resolve, and the driver's decisions: the Executor and refine/ do most
// of the work here and little in campaign_local's one-big-wave campaigns.

#include <sstream>

#include "bench.hpp"
#include "refine/driver.hpp"
#include "scenario/run.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hoval;

namespace {

struct Shape {
  const char* name;
  const char* algorithm;
  int n;
  int alpha;
  int rounds;
};

const Shape kShapes[] = {{"ate16", "ate", 16, 3, 25}, {"utea12", "utea", 12, 2, 30}};

std::string sweep_text(const Shape& shape, std::uint64_t seed) {
  std::ostringstream os;
  os << R"({"scenario": {"algorithm": {"name": ")" << shape.algorithm
     << R"(", "params": {"n": )" << shape.n << R"(, "alpha": )" << shape.alpha
     << R"(}}, "adversary": [{"name": "omit", "params": {"drop_probability": 0.0, "max_per_receiver": )"
     << shape.n << R"(}}], "values": {"name": "random", "params": {"distinct": 3}},)"
     << R"( "campaign": {"runs": 40, "rounds": )" << shape.rounds
     << R"(, "seed": )" << seed
     << R"(, "adaptive": {"enabled": true, "min_runs": 10, "ci_epsilon": 0.15}}},)"
     << R"( "axes": [{"path": "adversary.0.params.drop_probability",)"
     << R"( "points": [0.0, 0.25, 0.5, 0.75, 1.0]}],)"
     << R"( "refine": {"max_depth": 3, "max_points": 24, "monitor": "termination"}})";
  return os.str();
}

/// Refined-sweep latency limit behind goodput_per_s.
constexpr double kJobLimitMs = 2000.0;
/// Hunts of each shape in one job, at distinct seeds.  Four make a job of
/// ~50 ms: one short stall moves its latency less, and the ~250 jobs of a
/// run put job_tail_ms at p95, not at the p99 that reads the host's
/// contention more than the program.
constexpr int kHuntsPerShape = 4;

struct HuntTiming {
  double pump_us = 0.0;
  double wait_ms = 0.0;
};

RefinedSweepResult hunt(const SweepSpec& sweep, Executor& executor,
                        Tracer& tracer, std::uint64_t job, HuntTiming* timing) {
  Scope span(tracer, "refined_sweep", "refine", job);
  RefinementDriver driver(sweep, executor);
  for (;;) {
    const std::int64_t t0 = now_ns();
    bool done = false;
    {
      Scope pump(tracer, "pump", "refine", job);
      done = driver.pump();
    }
    const std::int64_t t1 = now_ns();
    timing->pump_us += static_cast<double>(t1 - t0) * 1e-3;
    if (done) break;
    driver.wait_current();
    const std::int64_t t2 = now_ns();
    tracer.add("generation_wait", "executor", job, t1, t2);
    timing->wait_ms += static_cast<double>(t2 - t1) * 1e-6;
  }
  return driver.take();
}

}  // namespace

void run_sweep_refine(const Options& options, Tracer& tracer, Report& report) {
  std::unique_ptr<Executor> executor;
  std::vector<SweepSpec> sweeps;
  // The host speed is sampled between set-ups, where they run.
  HostSpeed setup_host;
  const double raw_setup_s = median_setup_s(10, [&](int) {
    executor = std::make_unique<Executor>(2);
    for (const Shape& shape : kShapes) {
      sweeps.push_back(SweepSpec::from_json_text(sweep_text(shape, options.seed)));
      // Resolve the coarse grid up front, as a user validating the job
      // before submitting it would, and warm the pool on it.
      std::vector<ResolvedScenario> points;
      for (std::size_t i = 0; i < sweeps.back().point_count(); ++i)
        points.push_back(resolve_scenario(sweeps.back().expand_point(i)));
      warm_up(*executor, points);
    }
  }, [&](int) {
    setup_host.sample();
    executor.reset();
    sweeps.clear();
  });
  setup_host.sample();
  const double setup_s = setup_host.time(raw_setup_s);

  HostSpeed host;
  JobLog log;
  std::vector<double> pump_us;
  std::vector<double> wait_ms;
  std::vector<RefinedSweepResult> samples;  // first unit's hunts
  const double budget = options.trace ? options.seconds * 0.6 : options.seconds;
  const double start = now_s();
  std::uint64_t index = 0;
  while (now_s() - start < budget) {
    // A job hunts both shapes, so its latency has one mode, not two.
    const bool traced = options.trace && index % 2 == 1;
    tracer.set_enabled(traced);
    const double unit_start = now_s();
    std::vector<std::string> bytes[2];
    long long runs = 0;
    for (int pass = 0; pass < 2; ++pass) {
      const std::int64_t t0 = now_ns();
      for (int h = 0; h < kHuntsPerShape; ++h) {
        for (std::size_t shape = 0; shape < sweeps.size(); ++shape) {
          SweepSpec sweep = sweeps[shape];
          sweep.base.campaign.seed = mix_seed(
              options.seed, index * kHuntsPerShape + static_cast<std::uint64_t>(h), shape);
          HuntTiming timing;
          RefinedSweepResult result = hunt(sweep, *executor, tracer, index, &timing);
          pump_us.push_back(timing.pump_us);
          wait_ms.push_back(timing.wait_ms);
          runs += result.runs_executed;
          report.check(!result.cancelled && !result.points.empty(),
                       "refined sweep came back cancelled or empty");
          bytes[pass].push_back(result.to_json().dump());
          if (index == 0 && pass == 0 && h == 0) samples.push_back(std::move(result));
        }
      }
      (pass == 0 ? log.first_ms : log.repeat_ms)
          .push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    report.check(bytes[0] == bytes[1],
                 "repeated refined sweep changed its result bytes");
    log.add_unit(traced, runs, now_s() - unit_start);
    ++index;
    host.between_jobs();
  }
  log.elapsed_s = now_s() - start - host.spent_s();
  tracer.set_enabled(options.trace);
  report.check(samples.size() == 2, "fewer than one hunt per shape ran");

  long long generations = 0;
  long long points = 0;
  long long runs_executed = 0;
  for (const RefinedSweepResult& r : samples) {
    generations += r.generations;
    points += static_cast<long long>(r.points.size());
    runs_executed += r.runs_executed;
  }
  report.canary("refine.generations", generations);
  report.canary("refine.points", points);
  report.canary("refine.runs_executed", runs_executed);

  report_cpu_bound(report, options, host, log, setup_s, kJobLimitMs);
  if (!options.trace) return;

  report.metric("refine.pump_us", median(pump_us), "us");
  report.metric("refine.generation_wait_ms", median(wait_ms), "ms");
  report.metric("refine.generations", static_cast<double>(generations), "count");
  report.metric("refine.points", static_cast<double>(points), "count");
  report.metric("refine.runs_executed", static_cast<double>(runs_executed), "count");

  // Per-point layers: replay the sampled hunts' points as standalone
  // campaigns — expand, resolve, submit→take on the 2-worker pool and on
  // a 1-worker pool (the busy time the 2-worker wall is compared with) —
  // and encode each result.
  std::vector<double> expand_us;
  std::vector<double> resolve_us;
  std::vector<double> campaign_ms;
  std::vector<double> encode_us;
  double bytes = 0.0;
  double wall_two = 0.0;
  double wall_one = 0.0;
  Executor single(1);
  const double probe_start = now_s();
  while (now_s() - probe_start < options.seconds * 0.3) {
    for (std::size_t s = 0; s < samples.size(); ++s) {
      SweepSpec sweep = sweeps[s];
      sweep.base.campaign.seed = mix_seed(options.seed, 0, s);
      for (const RefinedPoint& point : samples[s].points) {
        std::int64_t t0 = now_ns();
        ScenarioSpec spec;
        {
          Scope span(tracer, "expand_at", "scenario", s);
          spec = sweep.expand_at(point.coordinates);
        }
        spec.campaign.seed = point.seed;
        std::int64_t t1 = now_ns();
        ResolvedScenario r;
        {
          Scope span(tracer, "resolve", "scenario", s);
          r = resolve_scenario(spec);
        }
        std::int64_t t2 = now_ns();
        CampaignResult result;
        {
          Scope span(tracer, "campaign", "executor", s);
          result = executor->submit(r.values, r.instance, r.adversary, r.config).take();
        }
        std::int64_t t3 = now_ns();
        const CampaignResult serial =
            single.submit(r.values, r.instance, r.adversary, r.config).take();
        std::int64_t t4 = now_ns();
        std::string text;
        {
          Scope span(tracer, "encode", "result_json", s);
          text = campaign_result_to_json(result).dump();
        }
        std::int64_t t5 = now_ns();
        report.check(text == campaign_result_to_json(point.result).dump() &&
                         text == campaign_result_to_json(serial).dump(),
                     "replayed refined point differs from the hunt's result");
        expand_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
        resolve_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
        campaign_ms.push_back(static_cast<double>(t3 - t2) * 1e-6);
        wall_two += static_cast<double>(t3 - t2);
        wall_one += static_cast<double>(t4 - t3);
        encode_us.push_back(static_cast<double>(t5 - t4) * 1e-3);
        bytes += static_cast<double>(text.size());
      }
    }
  }
  report.metric("scenario.expand_us", median(expand_us), "us");
  report.metric("scenario.resolve_us", median(resolve_us), "us");
  report.metric("executor.campaign_ms", median(campaign_ms), "ms");
  report.metric("executor.idle_frac",
                wall_two > 0 ? 1.0 - wall_one / (2.0 * wall_two) : 0.0, "1");
  report.metric("result_json.encode_us", median(encode_us), "us");
  report.metric("result_json.bytes",
                encode_us.empty() ? 0.0 : bytes / static_cast<double>(encode_us.size()),
                "count");
}

}  // namespace perfbench
