/// The acceptance contract of the persistent Executor (sim/executor.hpp):
/// campaigns submitted to a shared pool — at any pool size, under any
/// submission interleaving, overlapped with whole sweeps — are
/// bit-identical to the classic one-campaign CampaignEngine path, and
/// CampaignHandle's cancel/ready/wait/result semantics hold from
/// cancel-before-start through cancel-midway to post-completion, and the
/// optional completion hook fires exactly once per campaign, after its
/// handle is ready, without changing a result byte.

#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adversary/corruption.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "refine/driver.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "sim/initial_values.hpp"
#include "sim/result_json.hpp"
#include "util/check.hpp"

namespace hoval {
namespace {

ValueGenerator random_of(int n, int distinct) {
  return [n, distinct](Rng& rng) { return random_values(n, distinct, rng); };
}

InstanceBuilder ate_instance(const AteParams& params) {
  return [params](const std::vector<Value>& initial) {
    return make_ate_instance(params, initial);
  };
}

AdversaryBuilder corruption_of(int alpha) {
  return [alpha] {
    RandomCorruptionConfig config;
    config.alpha = alpha;
    return std::make_shared<RandomCorruptionAdversary>(config);
  };
}

CampaignConfig base_config(int runs, std::uint64_t seed) {
  CampaignConfig config;
  config.runs = runs;
  config.sim.max_rounds = 60;
  config.base_seed = seed;
  config.predicates.push_back(std::make_shared<PAlpha>(2));
  config.predicates.push_back(std::make_shared<PBenign>());
  return config;
}

/// Full structural equality, including diagnostic string order, sample
/// order, adaptive intervals and the rendered summary.
void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.runs_requested, b.runs_requested);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.integrity_violations, b.integrity_violations);
  EXPECT_EQ(a.irrevocability_violations, b.irrevocability_violations);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.last_decision_rounds.samples(), b.last_decision_rounds.samples());
  EXPECT_EQ(a.first_decision_rounds.samples(),
            b.first_decision_rounds.samples());
  EXPECT_EQ(a.predicate_holds, b.predicate_holds);
  EXPECT_EQ(a.predicate_names, b.predicate_names);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.stopped_early, b.stopped_early);
  EXPECT_EQ(a.ci_confidence, b.ci_confidence);
  ASSERT_EQ(a.predicate_intervals.size(), b.predicate_intervals.size());
  for (std::size_t i = 0; i < a.predicate_intervals.size(); ++i) {
    EXPECT_EQ(a.predicate_intervals[i].lower, b.predicate_intervals[i].lower);
    EXPECT_EQ(a.predicate_intervals[i].upper, b.predicate_intervals[i].upper);
  }
  EXPECT_EQ(a.summary(), b.summary());
}

// --- submission determinism -------------------------------------------------

TEST(Executor, SubmittedCampaignMatchesEngineAtAnyPoolSize) {
  const auto config = base_config(64, 0xEB61);
  CampaignConfig serial = config;
  serial.threads = 1;
  const CampaignResult reference = CampaignEngine(serial).run(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2));
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    Executor executor(threads);
    EXPECT_EQ(executor.threads(), threads);
    CampaignHandle handle = executor.submit(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), config);
    ASSERT_TRUE(handle.valid());
    handle.wait();
    EXPECT_TRUE(handle.ready());
    expect_identical(handle.result(), reference);
  }
}

TEST(Executor, InterleavedSubmissionsStayBitIdentical) {
  // Two campaign families — one fixed-budget, one adaptive (different
  // wave structure) — interleaved on one pool, three instances each.
  // Interleaving changes only which worker runs what and when; every
  // result must match its isolated engine reference exactly.
  auto adaptive_config = [](std::uint64_t seed) {
    CampaignConfig config = base_config(512, seed);
    config.adaptive.enabled = true;
    config.adaptive.min_runs = 32;
    config.adaptive.ci_epsilon = 0.04;
    config.adaptive.ci_confidence = 0.95;
    return config;
  };
  auto reference_of = [&](const CampaignConfig& config) {
    CampaignConfig serial = config;
    serial.threads = 1;
    return CampaignEngine(serial).run(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2));
  };

  std::vector<CampaignConfig> configs;
  for (int i = 0; i < 3; ++i) {
    configs.push_back(base_config(64, 0xEB61 + i));
    configs.push_back(adaptive_config(0xADA0 + i));
  }

  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    Executor executor(threads);
    std::vector<CampaignHandle> handles;
    for (const CampaignConfig& config : configs)
      handles.push_back(executor.submit(
          random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
          corruption_of(2), config));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      SCOPED_TRACE("submission " + std::to_string(i));
      // Fresh reference per comparison: SampleSet's quantile accessors
      // sort the mutable store lazily, so a reference whose summary() ran
      // once would no longer expose run-order samples.
      expect_identical(handles[i].result(), reference_of(configs[i]));
    }
  }
}

// --- whole-sweep scheduling -------------------------------------------------

SweepSpec alpha_sweep() {
  SweepSpec sweep;
  sweep.base.algorithm = component("ate", {{"n", 12}, {"alpha", 2}});
  sweep.base.values = component("random", {{"distinct", 3}});
  sweep.base.adversaries = {component("corrupt", {{"alpha", 2}}),
                            component("good-rounds", {{"period", 5}})};
  sweep.base.predicates = {component("p-alpha")};
  sweep.base.campaign.runs = 256;
  sweep.base.campaign.rounds = 35;
  sweep.base.campaign.seed = 0x5EED;
  // Adaptive sizing makes the points stop at different waves — exactly
  // the uneven-tail shape whole-sweep overlap is meant to exploit.
  sweep.base.campaign.adaptive.enabled = true;
  sweep.base.campaign.adaptive.min_runs = 32;
  sweep.base.campaign.adaptive.ci_epsilon = 0.06;
  sweep.axes.push_back(SweepAxis::single(
      "adversary.0.params.alpha", {Json(0), Json(1), Json(2), Json(3)}));
  sweep.reseed_per_point = true;
  return sweep;
}

TEST(Executor, ParallelSweepSubmissionBitIdenticalToSequentialRunSweep) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("pool threads=" + std::to_string(threads));
    // A fresh sequential reference per pool size: expect_identical renders
    // summaries, which lazily sorts the SampleSet stores — a reused
    // reference would no longer expose run-order samples.
    SweepOptions sequential;
    sequential.overlap_points = false;
    const std::vector<CampaignResult> reference =
        run_sweep(alpha_sweep(), sequential);
    ASSERT_EQ(reference.size(), 4u);

    Executor executor(threads);
    SweepOptions parallel;
    parallel.executor = &executor;
    parallel.overlap_points = true;
    const std::vector<CampaignResult> overlapped =
        run_sweep(alpha_sweep(), parallel);
    ASSERT_EQ(overlapped.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i));
      expect_identical(overlapped[i], reference[i]);
    }
  }
}

TEST(Executor, SweepsInterleavedWithForeignCampaignsStayBitIdentical) {
  // A whole sweep and an unrelated campaign share the pool; both must
  // come out exactly as if each had the pool to itself.
  SweepOptions sequential;
  sequential.overlap_points = false;
  const std::vector<CampaignResult> sweep_reference =
      run_sweep(alpha_sweep(), sequential);
  const CampaignResult campaign_reference = CampaignEngine([] {
    auto config = base_config(96, 0xF00D);
    config.threads = 1;
    return config;
  }()).run(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
           corruption_of(2));

  Executor executor(4);
  CampaignHandle foreign = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(96, 0xF00D));
  SweepOptions shared;
  shared.executor = &executor;
  shared.overlap_points = true;
  const std::vector<CampaignResult> overlapped =
      run_sweep(alpha_sweep(), shared);

  expect_identical(foreign.result(), campaign_reference);
  ASSERT_EQ(overlapped.size(), sweep_reference.size());
  for (std::size_t i = 0; i < sweep_reference.size(); ++i)
    expect_identical(overlapped[i], sweep_reference[i]);
}

// --- handle semantics -------------------------------------------------------

TEST(Executor, CancelBeforeStartYieldsEmptyCancelledResult) {
  // A single worker pool, fully occupied by the first submission (workers
  // drain jobs in submission order), guarantees the second campaign has
  // not started when we cancel it.
  Executor executor(1);
  CampaignHandle busy = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(256, 0xEB61));
  CampaignHandle doomed = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(256, 0xD00D));

  EXPECT_TRUE(doomed.cancel());
  const CampaignResult& cancelled = doomed.result();
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_EQ(cancelled.runs, 0);
  EXPECT_EQ(cancelled.runs_requested, 256);
  EXPECT_EQ(cancelled.predicate_holds, (std::vector<int>{0, 0}));
  EXPECT_FALSE(doomed.cancel());  // nothing left to cancel

  // The occupying campaign is untouched.
  CampaignConfig serial = base_config(256, 0xEB61);
  serial.threads = 1;
  expect_identical(busy.result(),
                   CampaignEngine(serial).run(
                       random_of(9, 3),
                       ate_instance(AteParams::canonical(9, 2)),
                       corruption_of(2)));
}

TEST(Executor, CancelMidwayKeepsTheExecutedPrefix) {
  // The progress callback parks its worker until the main thread has
  // issued the cancel, so the campaign can never race to completion
  // before the cancel lands.
  std::mutex mu;
  std::condition_variable cv;
  bool progress_seen = false;
  bool cancel_issued = false;

  CampaignConfig config = base_config(4096, 0xEB61);
  config.progress_batch = 16;
  config.progress = [&](const CampaignProgress& progress) {
    std::unique_lock<std::mutex> lock(mu);
    progress_seen = true;
    cv.notify_all();
    cv.wait(lock, [&] { return cancel_issued; });
    return progress.completed >= 0;
  };

  Executor executor(2);
  CampaignHandle handle = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), config);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return progress_seen; });
  }
  EXPECT_TRUE(handle.cancel());
  {
    std::lock_guard<std::mutex> lock(mu);
    cancel_issued = true;
  }
  cv.notify_all();

  const CampaignResult& result = handle.result();
  EXPECT_TRUE(result.cancelled);
  EXPECT_GT(result.runs, 0);
  EXPECT_LT(result.runs, 4096);
  EXPECT_EQ(result.runs_requested, 4096);
}

TEST(Executor, ErrorsPropagateThroughHandlesAndPoolSurvives) {
  Executor executor(2);
  const auto throwing_instance = [](const std::vector<Value>&) {
    return ProcessVector{};  // size mismatch trips the run precondition
  };
  CampaignHandle failing = executor.submit(
      random_of(9, 3), throwing_instance, corruption_of(2),
      base_config(32, 0xEB61));
  EXPECT_THROW(failing.result(), PreconditionError);

  // A failed campaign must not poison the pool.
  CampaignHandle good = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), base_config(32, 0xEB61));
  EXPECT_FALSE(good.result().cancelled);
  EXPECT_EQ(good.result().runs, 32);
}

TEST(Executor, HandleOutlivesExecutor) {
  CampaignHandle handle;
  {
    Executor executor(2);
    handle = executor.submit(random_of(9, 3),
                             ate_instance(AteParams::canonical(9, 2)),
                             corruption_of(2), base_config(48, 0xEB61));
    // ~Executor drains the submission before joining the pool.
  }
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(handle.result().runs, 48);
  EXPECT_FALSE(handle.cancel());
}

TEST(Executor, RunCampaignOverloadMatchesOneShotFacade) {
  auto config = base_config(40, 0xEB61);
  const CampaignResult one_shot =
      run_campaign(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
                   corruption_of(2), config);
  Executor executor(4);
  const CampaignResult shared =
      run_campaign(random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
                   corruption_of(2), config, executor);
  expect_identical(one_shot, shared);
}

TEST(Executor, TakeMovesRetainedTracesWithoutCopying) {
  CampaignConfig config = base_config(12, 0xEB61);
  config.keep_traces = TraceRetention::kAll;
  Executor executor(2);
  CampaignHandle handle = executor.submit(
      random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
      corruption_of(2), config);
  CampaignResult result = handle.take();
  ASSERT_EQ(result.traces.size(), 12u);
  EXPECT_EQ(result.traces.front().run, 0);
  EXPECT_EQ(result.traces.front().trace.universe_size(), 9);
}

TEST(Executor, ValidatesConfigAndThreadsAtSubmit) {
  EXPECT_THROW(Executor(-1), PreconditionError);
  Executor executor(1);
  auto config = base_config(10, 1);
  config.runs = 0;
  EXPECT_THROW(executor.submit(random_of(9, 3),
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), config),
               PreconditionError);
  config = base_config(10, 1);
  config.batch_size = -1;
  EXPECT_THROW(executor.submit(random_of(9, 3),
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), config),
               PreconditionError);
  EXPECT_THROW(executor.submit(nullptr,
                               ate_instance(AteParams::canonical(9, 2)),
                               corruption_of(2), base_config(10, 1)),
               PreconditionError);
}

// --- sweep-level cancellation ----------------------------------------------

TEST(Executor, SweepProgressVetoCancelsTheWholeSweep) {
  // Cancel the sweep from point 0's very first progress batch: the
  // remaining points must come back cancelled (skipped sequential points
  // with zero runs), not execute to completion.
  SweepSpec sweep = alpha_sweep();
  sweep.base.campaign.adaptive.enabled = false;
  sweep.base.campaign.runs = 4096;

  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlapping points" : "sequential points");
    Executor executor(2);
    SweepOptions options;
    options.executor = &executor;
    options.overlap_points = overlap;
    std::atomic<int> calls{0};
    options.progress = [&](const SweepProgress& progress) {
      calls.fetch_add(1);
      EXPECT_EQ(progress.points, 4);
      EXPECT_EQ(progress.total, 4096);
      return false;  // veto immediately
    };
    const std::vector<CampaignResult> results = run_sweep(sweep, options);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_GE(calls.load(), 1);
    long long executed = 0;
    int cancelled_points = 0;
    for (const CampaignResult& result : results) {
      executed += result.runs;
      cancelled_points += result.cancelled ? 1 : 0;
    }
    // The veto lands in one point's stream; everything else is cancelled
    // long before the sweep's 16384-run budget.
    EXPECT_GE(cancelled_points, 3);
    EXPECT_LT(executed, 4 * 4096);
  }
}

// --- completion hook --------------------------------------------------------

/// Parks every run of a campaign at its first step until released, so the
/// test can register handles — or cancel — before anything finishes.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  void pass() {
    std::unique_lock<std::mutex> lock(mu);
    ++entered;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  }
  void wait_entered(int count) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= count; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
};

ValueGenerator gated(std::shared_ptr<Gate> gate, ValueGenerator inner) {
  return [gate, inner](Rng& rng) {
    gate->pass();
    return inner(rng);
  };
}

/// Counts completion-hook calls and checks, inside each call, that at
/// least as many watched handles are ready as there have been calls —
/// i.e. no call ran ahead of the finish it announces.
struct HookProbe {
  std::mutex mu;
  std::vector<CampaignHandle> watched;
  int calls = 0;
  bool ran_ahead = false;

  std::function<void()> hook() {
    return [this] {
      std::lock_guard<std::mutex> lock(mu);
      ++calls;
      int ready = 0;
      for (const CampaignHandle& handle : watched)
        ready += handle.ready() ? 1 : 0;
      if (ready < calls) ran_ahead = true;
    };
  }
  void watch(const CampaignHandle& handle) {
    std::lock_guard<std::mutex> lock(mu);
    watched.push_back(handle);
  }
};

std::string result_bytes(const CampaignResult& result) {
  return campaign_result_to_json(result).dump();
}

/// The same campaign on a pool without a hook, for byte comparison.
std::string unhooked_bytes(int threads, const CampaignConfig& config) {
  Executor executor(threads);
  return result_bytes(executor
                          .submit(random_of(9, 3),
                                  ate_instance(AteParams::canonical(9, 2)),
                                  corruption_of(2), config)
                          .result());
}

class CompletionHook : public ::testing::TestWithParam<int> {};

TEST_P(CompletionHook, FiresOncePerCampaignAfterFullBudget) {
  const int threads = GetParam();
  HookProbe probe;
  auto gate = std::make_shared<Gate>();
  std::vector<std::string> served;
  {
    Executor executor(threads, probe.hook());
    std::vector<CampaignHandle> handles;
    for (int i = 0; i < 3; ++i) {
      handles.push_back(executor.submit(
          gated(gate, random_of(9, 3)),
          ate_instance(AteParams::canonical(9, 2)), corruption_of(2),
          base_config(64, 0xEB61 + i)));
      probe.watch(handles.back());
    }
    gate->release();
    for (const CampaignHandle& handle : handles)
      served.push_back(result_bytes(handle.result()));
  }  // the drain waits for every hook call
  EXPECT_EQ(probe.calls, 3);
  EXPECT_FALSE(probe.ran_ahead);
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(served[static_cast<std::size_t>(i)],
              unhooked_bytes(threads, base_config(64, 0xEB61 + i)));
}

TEST_P(CompletionHook, FiresOnceOnAdaptiveEarlyStop) {
  const int threads = GetParam();
  CampaignConfig config = base_config(2048, 0xADA0);
  config.adaptive.enabled = true;
  config.adaptive.min_runs = 32;
  config.adaptive.ci_epsilon = 0.3;
  config.adaptive.ci_confidence = 0.95;

  HookProbe probe;
  auto gate = std::make_shared<Gate>();
  std::string served;
  {
    Executor executor(threads, probe.hook());
    CampaignHandle handle = executor.submit(
        gated(gate, random_of(9, 3)), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), config);
    probe.watch(handle);
    gate->release();
    ASSERT_TRUE(handle.result().stopped_early);
    EXPECT_LT(handle.result().runs, 2048);
    served = result_bytes(handle.result());
  }
  EXPECT_EQ(probe.calls, 1);
  EXPECT_FALSE(probe.ran_ahead);
  EXPECT_EQ(served, unhooked_bytes(threads, config));
}

TEST_P(CompletionHook, FiresOnceOnBuilderError) {
  const int threads = GetParam();
  const InstanceBuilder throwing_instance = [](const std::vector<Value>&) {
    return ProcessVector{};  // size mismatch trips the run precondition
  };
  HookProbe probe;
  auto gate = std::make_shared<Gate>();
  {
    Executor executor(threads, probe.hook());
    CampaignHandle failing =
        executor.submit(gated(gate, random_of(9, 3)), throwing_instance,
                        corruption_of(2), base_config(32, 0xEB61));
    probe.watch(failing);
    gate->release();
    EXPECT_THROW(failing.result(), PreconditionError);
  }
  EXPECT_EQ(probe.calls, 1);
  EXPECT_FALSE(probe.ran_ahead);
}

TEST_P(CompletionHook, FiresOnceOnCancelBeforeStart) {
  // Every worker parks in the occupying campaign's gate (it has far more
  // claims than the pool has workers), so the second campaign cannot have
  // started when it is cancelled: its hook runs on this thread.
  const int threads = GetParam();
  HookProbe probe;
  auto gate = std::make_shared<Gate>();
  std::string busy_bytes;
  {
    Executor executor(threads, probe.hook());
    CampaignHandle busy = executor.submit(
        gated(gate, random_of(9, 3)), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), base_config(256, 0xEB61));
    probe.watch(busy);
    gate->wait_entered(threads);
    CampaignHandle doomed = executor.submit(
        random_of(9, 3), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), base_config(256, 0xD00D));
    probe.watch(doomed);

    EXPECT_TRUE(doomed.cancel());
    EXPECT_TRUE(doomed.ready());
    {
      std::lock_guard<std::mutex> lock(probe.mu);
      EXPECT_EQ(probe.calls, 1);  // fired inline, before cancel() returned
    }
    EXPECT_EQ(doomed.result().runs, 0);
    EXPECT_TRUE(doomed.result().cancelled);
    EXPECT_FALSE(doomed.cancel());

    gate->release();
    busy_bytes = result_bytes(busy.result());
  }
  EXPECT_EQ(probe.calls, 2);
  EXPECT_FALSE(probe.ran_ahead);
  EXPECT_EQ(busy_bytes, unhooked_bytes(threads, base_config(256, 0xEB61)));
}

TEST_P(CompletionHook, FiresOnceOnCancelMidRun) {
  const int threads = GetParam();
  HookProbe probe;
  auto gate = std::make_shared<Gate>();
  {
    Executor executor(threads, probe.hook());
    CampaignHandle handle = executor.submit(
        gated(gate, random_of(9, 3)), ate_instance(AteParams::canonical(9, 2)),
        corruption_of(2), base_config(4096, 0xEB61));
    probe.watch(handle);
    gate->wait_entered(1);  // a run is executing
    EXPECT_TRUE(handle.cancel());
    gate->release();
    const CampaignResult& result = handle.result();
    EXPECT_TRUE(result.cancelled);
    EXPECT_GT(result.runs, 0);
    EXPECT_LT(result.runs, 4096);
  }
  EXPECT_EQ(probe.calls, 1);
  EXPECT_FALSE(probe.ran_ahead);
}

TEST_P(CompletionHook, FiresOncePerRefinementPointCampaign) {
  const int threads = GetParam();
  SweepSpec sweep = SweepSpec::from_json_text(R"({
    "scenario": {
      "algorithm": {"name": "utea", "params": {"n": 6, "alpha": 1}},
      "values": {"name": "unanimous", "params": {"value": 1}},
      "campaign": {"runs": 40, "rounds": 1, "seed": 1234}
    },
    "axes": [{"path": "campaign.rounds", "points": [1, 16]}],
    "refine": {"monitor": "termination"}
  })");
  std::atomic<int> calls{0};
  RefinedSweepResult refined;
  {
    Executor executor(threads, [&calls] { calls.fetch_add(1); });
    refined = run_refined_sweep(sweep, &executor);
  }
  EXPECT_GE(refined.generations, 2);
  // Every generation's points run as campaigns on the hooked pool.
  EXPECT_EQ(calls.load(), static_cast<int>(refined.points.size()));
  Executor unhooked(threads);
  EXPECT_EQ(refined.to_json().dump(),
            run_refined_sweep(sweep, &unhooked).to_json().dump());
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, CompletionHook, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hoval
