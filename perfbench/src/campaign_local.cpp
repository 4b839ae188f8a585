// campaign_local: large fixed-budget campaigns on an in-process 2-worker
// Executor, rotating through the paper's value-fault regimes.  Nearly all
// time is the per-round kernel; scenario/, service/, refine/ and dispatch/
// do almost nothing, so a kernel change shows here and nowhere else.
//
// Two workers, not one: on a shared host a single worker's rate drifts in
// contention phases of 10-30 s (5 s buckets ranged 38% with one worker,
// 20% with two) and two workers still scale near-linearly.

#include <map>
#include <sstream>

#include "bench.hpp"
#include "scenario/run.hpp"
#include "sim/executor.hpp"
#include "sim/result_json.hpp"
#include "stepper.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hoval;

namespace {

struct Regime {
  const char* name;
  const char* size;  ///< per-n metric suffix
  int runs;          ///< campaign budget
  std::string text;  ///< scenario document without the campaign block
  int rounds;
  bool stop_when_all_decided;
};

std::vector<Regime> regimes() {
  const std::string values = R"("values": {"name": "random", "params": {"distinct": 3}})";
  return {
      // A_{T,E} n=16 alpha=3, random corruption, P^{A,live} good rounds.
      {"ate16_live", "n16", 960,
       R"("algorithm": {"name": "ate", "params": {"n": 16, "alpha": 3}},
          "adversary": [{"name": "corrupt", "params": {"alpha": 3}},
                        {"name": "good-rounds", "params": {"period": 5}}],
          "predicates": ["p-alpha", "p-a-live"], )" + values,
       30, true},
      // The same without good rounds, run to the horizon: the
      // non-deciding side of the threshold, maximum rounds per run.
      {"ate16_horizon", "n16", 480,
       R"("algorithm": {"name": "ate", "params": {"n": 16, "alpha": 3}},
          "adversary": [{"name": "corrupt", "params": {"alpha": 3}}],
          "predicates": ["p-alpha"], )" + values,
       30, false},
      // U_{T,E,alpha} n=12 alpha=2 under the P^{U,safe} clamp with clean
      // phases.
      {"utea12", "n12", 960,
       R"("algorithm": {"name": "utea", "params": {"n": 12, "alpha": 2}},
          "adversary": [{"name": "corrupt", "params": {"alpha": 2}},
                        "usafe-clamp",
                        {"name": "clean-phases", "params": {"period": 4}}],
          "predicates": ["p-alpha", "p-usafe", "p-u-live"], )" + values,
       60, true},
      // A_{T,E} at n=65: the first size past ProcessSet's inline word.
      {"ate65", "n65", 64,
       R"("algorithm": {"name": "ate", "params": {"n": 65, "alpha": 8}},
          "adversary": [{"name": "corrupt", "params": {"alpha": 8}},
                        {"name": "good-rounds", "params": {"period": 5}}],
          "predicates": ["p-alpha", "p-a-live"], )" + values,
       30, true},
  };
}

std::string scenario_text(const Regime& regime, std::uint64_t seed) {
  std::ostringstream os;
  os << "{" << regime.text << R"(, "campaign": {"runs": )" << regime.runs
     << R"(, "rounds": )" << regime.rounds << R"(, "seed": )" << seed
     << R"(, "stop_when_all_decided": )"
     << (regime.stop_when_all_decided ? "true" : "false") << "}}";
  return os.str();
}

/// Runs replayed per regime by the stepper check of every run.
constexpr int kCheckRuns = 6;
/// Stepper runs per span in the traced kernel probe.
constexpr int kStepBatch = 8;
/// Campaign latency limit behind goodput_per_s.
constexpr double kJobLimitMs = 2000.0;

struct Job {
  std::vector<CampaignHandle> handles;
};

void report_phases(Report& report, const std::string& suffix,
                   const PhaseTotals& t) {
  const double rounds = t.rounds > 0 ? static_cast<double>(t.rounds) : 1.0;
  const double runs = t.runs > 0 ? static_cast<double>(t.runs) : 1.0;
  report.metric("sim.run_us." + suffix, static_cast<double>(t.run_ns) * 1e-3 / runs, "us");
  report.metric("core.message_for_ns_per_round." + suffix,
                static_cast<double>(t.message_for_ns) / rounds, "ns");
  report.metric("core.transition_ns_per_round." + suffix,
                static_cast<double>(t.transition_ns) / rounds, "ns");
  report.metric("adversary.apply_ns_per_round." + suffix,
                static_cast<double>(t.apply_ns) / rounds, "ns");
  report.metric("model.assign_faithful_ns_per_round." + suffix,
                static_cast<double>(t.assign_faithful_ns) / rounds, "ns");
  report.metric("model.ground_truth_ns_per_round." + suffix,
                static_cast<double>(t.ground_truth_ns) / rounds, "ns");
  report.metric("predicates.stream_ns_per_round." + suffix,
                static_cast<double>(t.stream_ns) / rounds, "ns");
  report.metric("sim.rounds_per_run." + suffix, static_cast<double>(t.rounds) / runs,
                "count");
  report.metric("adversary.altered_links_per_round." + suffix,
                static_cast<double>(t.altered_links) / rounds, "count");
}

}  // namespace

void run_campaign_local(const Options& options, Tracer& tracer, Report& report) {
  const std::vector<Regime> rotation = regimes();
  std::vector<double> parse_us;
  std::vector<double> resolve_us;

  // Set-up users pay before the first campaign: pool spin-up, parsing and
  // resolving every regime's spec, and a small warm-up campaign of each
  // (worker workspaces sized, predicate streams built).  Repeated; the
  // median is reported.
  std::unique_ptr<Executor> executor;
  std::vector<ResolvedScenario> resolved;
  // The host speed is sampled between set-ups, where they run.
  HostSpeed setup_host;
  const double raw_setup_s = median_setup_s(10, [&](int) {
    executor = std::make_unique<Executor>(2);
    for (const Regime& regime : rotation) {
      std::int64_t t0 = now_ns();
      const ScenarioSpec spec =
          ScenarioSpec::from_json_text(scenario_text(regime, options.seed));
      std::int64_t t1 = now_ns();
      resolved.push_back(resolve_scenario(spec));
      std::int64_t t2 = now_ns();
      parse_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      resolve_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    }
    warm_up(*executor, resolved);
  }, [&](int) {
    setup_host.sample();
    executor.reset();
    resolved.clear();
  });
  setup_host.sample();
  const double setup_s = setup_host.time(raw_setup_s);

  // Stepper check: the replay must reproduce Simulator::run exactly, or
  // its per-phase numbers mean nothing.  Its counts are canaries.
  for (std::size_t i = 0; i < rotation.size(); ++i) {
    Stepper stepper(resolved[i]);
    PhaseTotals totals;
    bool same = true;
    for (int run = 0; run < kCheckRuns; ++run)
      same = same && stepper.step_run(run, &totals) == stepper.simulator_run(run);
    report.check(same, std::string("stepper diverges from Simulator::run on ") +
                           rotation[i].name);
    report.canary(std::string("sim.rounds.") + rotation[i].name, totals.rounds);
    report.canary(std::string("adversary.altered_links.") + rotation[i].name,
                  totals.altered_links);
  }

  auto submit_job = [&](std::uint64_t rotation_index) {
    Job job;
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      const ResolvedScenario& r = resolved[i];
      CampaignConfig config = r.config;
      config.base_seed = mix_seed(options.seed, rotation_index, i);
      job.handles.push_back(
          executor->submit(r.values, r.instance, r.adversary, config));
    }
    return job;
  };
  auto take_job = [&](Job& job, std::vector<std::string>* bytes) {
    long long runs = 0;
    for (std::size_t i = 0; i < job.handles.size(); ++i) {
      const CampaignResult result = job.handles[i].take();
      runs += result.runs;
      report.check(result.safety_clean() && result.runs == rotation[i].runs,
                   std::string("campaign not safety clean or short: ") +
                       rotation[i].name + " " + result.summary());
      bytes->push_back(campaign_result_to_json(result).dump());
    }
    return runs;
  };

  // Measurement: each rotation runs once cold, then repeats with the same
  // seeds; the repeat must reproduce the first result byte for byte.
  HostSpeed host;
  JobLog log;
  const double budget = options.trace ? options.seconds * 0.6 : options.seconds;
  const double start = now_s();
  std::uint64_t rotation_index = 0;
  while (now_s() - start < budget) {
    const bool traced = options.trace && rotation_index % 2 == 1;
    tracer.set_enabled(traced);
    const double unit_start = now_s();
    std::vector<std::string> bytes[2];
    long long runs = 0;
    for (int pass = 0; pass < 2; ++pass) {
      Scope span(tracer, pass == 0 ? "rotation" : "rotation.repeat", "bench",
                 rotation_index);
      const std::int64_t t0 = now_ns();
      Job job;
      {
        Scope submit(tracer, "submit", "executor", rotation_index);
        job = submit_job(rotation_index);
      }
      const std::int64_t wait0 = now_ns();
      runs += take_job(job, &bytes[pass]);
      const std::int64_t t1 = now_ns();
      tracer.add("campaigns", "executor", rotation_index, wait0, t1);
      (pass == 0 ? log.first_ms : log.repeat_ms)
          .push_back(static_cast<double>(t1 - t0) * 1e-6);
    }
    report.check(bytes[0] == bytes[1], "repeated rotation changed its result bytes");
    log.add_unit(traced, runs, now_s() - unit_start);
    ++rotation_index;
    host.between_jobs();
  }
  log.elapsed_s = now_s() - start - host.spent_s();
  tracer.set_enabled(options.trace);
  report_cpu_bound(report, options, host, log, setup_s, kJobLimitMs);

  if (!options.trace) return;

  report.metric("scenario.parse_us", median(parse_us), "us");
  report.metric("scenario.resolve_us", median(resolve_us), "us");

  // Kernel phases: replay runs through the stepper for the rest of the
  // budget, round-robin over the regimes.
  std::vector<Stepper> steppers;
  for (const ResolvedScenario& r : resolved) steppers.emplace_back(r);
  std::map<std::string, PhaseTotals> by_size;
  std::vector<PhaseTotals> by_regime(rotation.size());
  const double phase_start = now_s();
  int run = 0;
  while (now_s() - phase_start < options.seconds * 0.3) {
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      Scope span(tracer, rotation[i].name, "sim", static_cast<std::uint64_t>(run));
      for (int k = 0; k < kStepBatch; ++k) steppers[i].step_run(run + k, &by_regime[i]);
    }
    run += kStepBatch;
  }
  for (std::size_t i = 0; i < rotation.size(); ++i)
    by_size[rotation[i].size].add(by_regime[i]);
  for (const auto& [size, totals] : by_size) report_phases(report, size, totals);

  // Executor: each regime's campaign alone, submit→take on the 2-worker
  // pool and on a 1-worker pool; the serial wall is the busy time the
  // 2-worker wall is compared with.
  Executor single(1);
  std::vector<double> campaign_ms;
  double wall_two = 0.0;
  double wall_one = 0.0;
  const double probe_start = now_s();
  while (now_s() - probe_start < options.seconds * 0.05) {
    for (std::size_t i = 0; i < rotation.size(); ++i) {
      const ResolvedScenario& r = resolved[i];
      const std::int64_t t0 = now_ns();
      {
        Scope span(tracer, rotation[i].name, "executor", i);
        executor->submit(r.values, r.instance, r.adversary, r.config).take();
      }
      const std::int64_t t1 = now_ns();
      single.submit(r.values, r.instance, r.adversary, r.config).take();
      const std::int64_t t2 = now_ns();
      campaign_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      wall_two += static_cast<double>(t1 - t0);
      wall_one += static_cast<double>(t2 - t1);
    }
  }
  report.metric("executor.campaign_ms", median(campaign_ms), "ms");
  report.metric("executor.idle_frac", 1.0 - wall_one / (2.0 * wall_two), "1");
  // Fixed-budget campaigns run as one wave.
}

}  // namespace perfbench
