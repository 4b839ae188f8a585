// sweep_plain: one plain dense grid per job, run twice — locally through
// run_sweep on the 2-worker Executor, then through dispatch::dispatch_sweep
// on 2 forked 1-thread workers — and the two outputs compared byte for
// byte.  The only workload using dispatch/ (fork, CRC framing, the
// result-JSON round trip, merge) and local plain run_sweep.

#include <sstream>

#include "bench.hpp"
#include "dispatch/dispatch.hpp"
#include "dispatch/wire.hpp"
#include "scenario/run.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hoval;

namespace {

std::string sweep_text(std::uint64_t seed) {
  std::ostringstream os;
  os << R"({"scenario": {"algorithm": {"name": "ate", "params": {"n": 12, "alpha": 2}},)"
     << R"( "adversary": [{"name": "corrupt", "params": {"alpha": 2}},)"
     << R"( {"name": "good-rounds", "params": {"period": 5}}],)"
     << R"( "values": {"name": "random", "params": {"distinct": 3}},)"
     << R"( "predicates": ["p-alpha", "p-a-live"],)"
     << R"( "campaign": {"runs": 400, "rounds": 30, "seed": )" << seed << "}},"
     << R"( "axes": [{"path": "adversary.0.params.alpha", "points": [0, 1, 2]},)"
     << R"( {"path": "adversary.1.params.period", "points": [3, 5, 8]}],)"
     << R"( "reseed_per_point": true})";
  return os.str();
}

/// Local-sweep latency limit behind goodput_per_s.
constexpr double kJobLimitMs = 1000.0;

long long total_runs(const std::vector<CampaignResult>& results) {
  long long runs = 0;
  for (const CampaignResult& r : results) runs += r.runs;
  return runs;
}

}  // namespace

void run_sweep_plain(const Options& options, Tracer& tracer, Report& report) {
  std::unique_ptr<Executor> executor;
  SweepSpec sweep;
  std::vector<double> parse_us;
  std::vector<double> expand_us;
  std::vector<double> resolve_us;
  // The host speed is sampled between set-ups, where they run.
  HostSpeed setup_host;
  const double raw_setup_s = median_setup_s(10, [&](int) {
    executor = std::make_unique<Executor>(2);
    std::int64_t t0 = now_ns();
    sweep = SweepSpec::from_json_text(sweep_text(options.seed));
    std::vector<ResolvedScenario> points;
    parse_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    for (std::size_t i = 0; i < sweep.point_count(); ++i) {
      t0 = now_ns();
      const ScenarioSpec point = sweep.expand_point(i);
      const std::int64_t t1 = now_ns();
      points.push_back(resolve_scenario(point));
      expand_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      resolve_us.push_back(static_cast<double>(now_ns() - t1) * 1e-3);
    }
    warm_up(*executor, points);
  }, [&](int) {
    setup_host.sample();
    executor.reset();
  });
  setup_host.sample();
  const double setup_s = setup_host.time(raw_setup_s);

  std::vector<double> overhead_ms;
  std::vector<double> first_merge_ms;
  std::vector<double> encode_us;
  double bytes = 0.0;
  HostSpeed host;
  JobLog log;
  long long resubmitted = 0;
  long long canary_resubmitted = 0;
  const double budget = options.trace ? options.seconds * 0.9 : options.seconds;
  const double start = now_s();
  std::uint64_t index = 0;
  while (now_s() - start < budget) {
    const bool traced = options.trace && index % 2 == 1;
    tracer.set_enabled(traced);
    const double unit_start = now_s();
    SweepSpec job = sweep;
    job.base.campaign.seed = mix_seed(options.seed, index);

    std::int64_t t0 = now_ns();
    std::vector<CampaignResult> local;
    {
      Scope span(tracer, "run_sweep", "executor", index);
      SweepOptions sweep_options;
      sweep_options.executor = executor.get();
      local = run_sweep(job, sweep_options);
    }
    std::int64_t t1 = now_ns();
    std::string local_bytes;
    {
      Scope span(tracer, "encode", "result_json", index);
      local_bytes = campaign_results_to_json(local).dump();
    }
    std::int64_t t2 = now_ns();

    std::int64_t first_merge = 0;
    dispatch::DispatchOptions dispatch_options;
    dispatch_options.workers = 2;
    dispatch_options.worker_threads = 1;
    dispatch_options.log = [&](const std::string& line) {
      if (first_merge == 0 && line.find(": merged") != std::string::npos)
        first_merge = now_ns();
    };
    const std::int64_t t3 = now_ns();
    dispatch::DispatchReport dispatched;
    {
      Scope span(tracer, "dispatch_sweep", "dispatch", index);
      dispatched = dispatch::dispatch_sweep(job, dispatch_options);
    }
    const std::int64_t t4 = now_ns();
    report.check(dispatched.complete(), "dispatched sweep quarantined points: " +
                                            dispatched.summary());
    report.check(campaign_results_to_json(dispatched.results).dump() == local_bytes,
                 "dispatch_sweep results differ from run_sweep's");
    for (const CampaignResult& r : local)
      report.check(r.safety_clean(), "plain sweep point not safety clean");

    const double local_wall = static_cast<double>(t1 - t0) * 1e-6;
    const double dispatch_wall = static_cast<double>(t4 - t3) * 1e-6;
    log.first_ms.push_back(local_wall);
    log.repeat_ms.push_back(dispatch_wall);
    overhead_ms.push_back(dispatch_wall - local_wall);
    if (first_merge > 0)
      first_merge_ms.push_back(static_cast<double>(first_merge - t3) * 1e-6);
    encode_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    bytes += static_cast<double>(local_bytes.size());
    resubmitted += dispatched.resubmitted_points;
    if (index == 0) canary_resubmitted = dispatched.resubmitted_points;

    log.add_unit(traced,
                 total_runs(local) + total_runs(dispatched.results),
                 now_s() - unit_start);
    ++index;
    host.between_jobs();
  }
  log.elapsed_s = now_s() - start - host.spent_s();
  tracer.set_enabled(options.trace);
  report.canary("dispatch.resubmitted_points.first_job", canary_resubmitted);

  report_cpu_bound(report, options, host, log, setup_s, kJobLimitMs);
  if (!options.trace) return;

  report.metric("scenario.parse_us", median(parse_us), "us");
  report.metric("scenario.expand_us", median(expand_us), "us");
  report.metric("scenario.resolve_us", median(resolve_us), "us");
  report.metric("result_json.encode_us", median(encode_us), "us");
  report.metric("result_json.bytes",
                encode_us.empty() ? 0.0 : bytes / static_cast<double>(encode_us.size()),
                "count");
  report.metric("dispatch.overhead_ms", median(overhead_ms), "ms");
  report.metric("dispatch.first_merge_ms", median(first_merge_ms), "ms");
  report.metric("dispatch.resubmitted_points", static_cast<double>(resubmitted), "count");

  // Frame encoding of one point message, as the host sends it.
  std::vector<double> frame_us;
  for (std::size_t i = 0; i < sweep.point_count(); ++i) {
    const std::string payload =
        Json::object({{"type", "point"},
                      {"index", static_cast<int>(i)},
                      {"scenario", sweep.expand_point(i).to_json()}})
            .dump();
    const std::int64_t t0 = now_ns();
    const std::string frame = dispatch::encode_frame(payload);
    frame_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    report.check(frame.size() == payload.size() + dispatch::kFrameHeaderBytes,
                 "frame size");
  }
  report.metric("dispatch.frame_encode_us", median(frame_us), "us");
}

}  // namespace perfbench
