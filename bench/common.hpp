#pragma once

/// \file common.hpp
/// Shared plumbing for the experiment harnesses in bench/.  Each binary
/// regenerates one table/figure/claim of the paper (see DESIGN.md Sec. 2):
/// it prints a paper-style table on stdout and drops a CSV next to the
/// working directory for external re-plotting.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "adversary/adversary.hpp"
#include "adversary/corruption.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "predicates/liveness.hpp"
#include "predicates/safety.hpp"
#include "refine/driver.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"
#include "sim/initial_values.hpp"
#include "stats/descriptive.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace hoval::bench {

/// Bench-wide campaign thread knob: HOVAL_BENCH_THREADS overrides
/// (0 = one worker per hardware thread), default 0.
inline int campaign_threads() {
  if (const char* env = std::getenv("HOVAL_BENCH_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed >= 0) return parsed;
  }
  return 0;
}

/// Aggregates campaign wall time / run counts for one bench binary and
/// writes machine-readable BENCH_<name>.json next to the CSVs (the perf
/// trajectory consumed by CI as artifacts).  Construct one per binary at
/// the top of its run() function.
class BenchRecorder {
 public:
  explicit BenchRecorder(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
    active_ = this;
  }
  ~BenchRecorder() {
    write();
    active_ = nullptr;
  }
  BenchRecorder(const BenchRecorder&) = delete;
  BenchRecorder& operator=(const BenchRecorder&) = delete;

  static BenchRecorder* active() noexcept { return active_; }

  void note_campaign(const CampaignResult& result, double seconds,
                     int threads) {
    ++campaigns_;
    campaign_runs_ += result.runs;
    campaign_runs_requested_ +=
        result.runs_requested > 0 ? result.runs_requested : result.runs;
    campaign_seconds_ += seconds;
    // Small campaigns get clamped pools; report the widest pool used.
    if (threads > threads_) threads_ = threads;
    if (result.ci_confidence > 0.0) {
      ++adaptive_campaigns_;
      if (result.stopped_early) ++stopped_early_;
      for (const ConfidenceInterval& interval : result.predicate_intervals)
        max_ci_half_width_ =
            std::max(max_ci_half_width_, interval.half_width());
    }
  }

  /// Accounts one refined sweep (src/refine/): point/run totals plus the
  /// dense-grid cost it avoided, surfaced as refine_runs_saved_pct in the
  /// JSON so CI can assert the adaptive layer actually saves runs.
  void note_refined(const RefinedSweepResult& refined, double seconds) {
    ++refined_sweeps_;
    refine_points_ += static_cast<long long>(refined.points.size());
    refine_runs_executed_ += refined.runs_executed;
    refine_dense_runs_estimate_ += refined.dense_runs_estimate;
    campaign_seconds_ += seconds;
  }

  void write() const {
    const double total_seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start_)
                                     .count();
    const double runs_per_sec =
        campaign_seconds_ > 0.0 ? campaign_runs_ / campaign_seconds_ : 0.0;
    const double savings =
        campaign_runs_requested_ > 0
            ? 1.0 - static_cast<double>(campaign_runs_) /
                        static_cast<double>(campaign_runs_requested_)
            : 0.0;
    const double refine_saved_pct =
        refine_dense_runs_estimate_ > 0
            ? 100.0 *
                  static_cast<double>(refine_dense_runs_estimate_ -
                                      refine_runs_executed_) /
                  static_cast<double>(refine_dense_runs_estimate_)
            : 0.0;
    std::ofstream out("BENCH_" + name_ + ".json");
    out << "{\n"
        << "  \"bench\": \"" << name_ << "\",\n"
        << "  \"threads\": " << threads_ << ",\n"
        << "  \"campaigns\": " << campaigns_ << ",\n"
        << "  \"campaign_runs\": " << campaign_runs_ << ",\n"
        << "  \"campaign_runs_requested\": " << campaign_runs_requested_ << ",\n"
        << "  \"adaptive_campaigns\": " << adaptive_campaigns_ << ",\n"
        << "  \"stopped_early\": " << stopped_early_ << ",\n"
        << "  \"early_stop_savings\": " << savings << ",\n"
        << "  \"max_ci_half_width\": " << max_ci_half_width_ << ",\n"
        << "  \"refined_sweeps\": " << refined_sweeps_ << ",\n"
        << "  \"refine_points\": " << refine_points_ << ",\n"
        << "  \"refine_runs_executed\": " << refine_runs_executed_ << ",\n"
        << "  \"refine_dense_runs_estimate\": " << refine_dense_runs_estimate_
        << ",\n"
        << "  \"refine_runs_saved_pct\": " << refine_saved_pct << ",\n"
        << "  \"campaign_wall_seconds\": " << campaign_seconds_ << ",\n"
        << "  \"runs_per_sec\": " << runs_per_sec << ",\n"
        << "  \"total_wall_seconds\": " << total_seconds << "\n"
        << "}\n";
  }

 private:
  inline static BenchRecorder* active_ = nullptr;

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  int campaigns_ = 0;
  long long campaign_runs_ = 0;
  long long campaign_runs_requested_ = 0;
  int adaptive_campaigns_ = 0;
  int stopped_early_ = 0;
  double max_ci_half_width_ = 0.0;
  int refined_sweeps_ = 0;
  long long refine_points_ = 0;
  long long refine_runs_executed_ = 0;
  long long refine_dense_runs_estimate_ = 0;
  double campaign_seconds_ = 0.0;
  int threads_ = 1;
};

/// A pool sized by the shared thread knob, for bench binaries that run
/// several campaigns or sweeps: construct one at the top of run() and
/// pass it to the *_timed entry points so every figure shares a single
/// pool lifecycle instead of rebuilding workers per campaign.
inline Executor make_bench_executor() { return Executor(campaign_threads()); }

/// Campaign entry point for bench drivers: applies the shared thread knob
/// and accounts wall time into the active BenchRecorder.  With a shared
/// `executor` the campaign is submitted to that persistent pool (the
/// result is bit-identical — campaigns do not depend on the pool that ran
/// them); without one it pays a one-shot pool (run_campaign).
inline CampaignResult run_campaign_timed(const ValueGenerator& values,
                                         const InstanceBuilder& instance,
                                         const AdversaryBuilder& adversary,
                                         CampaignConfig config,
                                         Executor* executor = nullptr) {
  config.threads = campaign_threads();
  CampaignResult result;
  int threads = 0;
  double seconds = 0.0;
  if (executor != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    result = executor->submit(values, instance, adversary, std::move(config))
                 .take();
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
    threads = executor->threads();
  } else {
    const auto start = std::chrono::steady_clock::now();
    result = run_campaign(values, instance, adversary, config);
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
    threads = campaign_pool_threads(config);
  }
  if (BenchRecorder::active())
    BenchRecorder::active()->note_campaign(result, seconds, threads);
  return result;
}

/// Campaign entry point for declarative bench drivers: runs a ScenarioSpec
/// through the registry-resolved path (scenario/run.hpp) on the shared
/// thread knob, accounting wall time into the active BenchRecorder.  The
/// result is bit-identical to run_campaign_timed with equivalent
/// hand-built builders.
inline CampaignResult run_scenario_timed(const ScenarioSpec& spec,
                                         Executor* executor = nullptr) {
  const ResolvedScenario resolved = resolve_scenario(spec);
  return run_campaign_timed(resolved.values, resolved.instance,
                            resolved.adversary, resolved.config, executor);
}

/// Sweep entry point for declarative bench drivers: expands and resolves
/// *every* grid point up front (an infeasible substitution fails before
/// the first campaign starts), then submits the whole sweep to one pool —
/// `executor` when given, else a pool owned for the sweep — so points
/// overlap and adaptive early-stoppers hand their workers to the slower
/// points.  One CampaignResult per point, in expand() order, bit-identical
/// to running the points one at a time.
inline std::vector<CampaignResult> run_sweep_timed(const SweepSpec& sweep,
                                                   Executor* executor =
                                                       nullptr) {
  std::optional<Executor> owned;
  if (executor == nullptr) {
    owned.emplace(campaign_threads());
    executor = &*owned;
  }
  SweepOptions options;
  options.executor = executor;  // overlapping points, run_sweep's default

  const auto start = std::chrono::steady_clock::now();
  const std::vector<CampaignResult> results = run_sweep(sweep, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Overlapped campaigns have no meaningful per-point wall time; splitting
  // the sweep wall evenly keeps the recorder's aggregate (runs over
  // campaign seconds) equal to the sweep's true throughput.
  if (BenchRecorder::active())
    for (const CampaignResult& result : results)
      BenchRecorder::active()->note_campaign(
          result, seconds / static_cast<double>(results.size()),
          executor->threads());
  return results;
}

/// Refined-sweep entry point for declarative bench drivers: drives
/// src/refine's adaptive subdivision on the shared thread knob (the result
/// is bit-identical for any pool — see refine/driver.hpp's determinism
/// contract) and accounts the savings into the active BenchRecorder.
inline RefinedSweepResult run_refined_sweep_timed(const SweepSpec& sweep,
                                                  Executor* executor =
                                                      nullptr) {
  std::optional<Executor> owned;
  if (executor == nullptr) {
    owned.emplace(campaign_threads());
    executor = &*owned;
  }
  const auto start = std::chrono::steady_clock::now();
  RefinedSweepResult refined = run_refined_sweep(sweep, executor);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (BenchRecorder::active())
    BenchRecorder::active()->note_refined(refined, seconds);
  return refined;
}

/// Renders a pass/fail verdict cell.
inline std::string verdict(bool ok) { return ok ? "ok" : "VIOLATED"; }

/// Renders "x/y" counts.
inline std::string ratio(int x, int y) {
  return std::to_string(x) + "/" + std::to_string(y);
}

/// Mean/max decision-round cell, "-" when nothing terminated.
inline std::string latency_cell(const CampaignResult& result) {
  if (result.last_decision_rounds.empty()) return "-";
  return format_double(result.last_decision_rounds.mean(), 1) + " (max " +
         format_double(result.last_decision_rounds.max(), 0) + ")";
}

/// A P_alpha-compliant worst-case corruption adversary builder.
inline AdversaryBuilder corruption_builder(
    int alpha, CorruptionStyle style = CorruptionStyle::kRandomValue) {
  return [alpha, style] {
    RandomCorruptionConfig config;
    config.alpha = alpha;
    config.policy.style = style;
    return std::make_shared<RandomCorruptionAdversary>(config);
  };
}

/// Corruption clamped to P^{U,safe} for the given U parameters.
inline AdversaryBuilder usafe_builder(const UteaParams& params) {
  return [params] {
    RandomCorruptionConfig config;
    config.alpha = params.alpha;
    const PUSafe bound(params.n, params.threshold_t, params.threshold_e,
                       params.alpha);
    return std::make_shared<SafetyClampAdversary>(
        std::make_shared<RandomCorruptionAdversary>(config), bound.bound(),
        params.alpha);
  };
}

/// Corruption plus P^{A,live} good rounds every `period`.
inline AdversaryBuilder good_round_builder(int alpha, int period) {
  return [alpha, period] {
    RandomCorruptionConfig config;
    config.alpha = alpha;
    GoodRoundConfig good;
    good.period = period;
    return std::make_shared<GoodRoundScheduler>(
        std::make_shared<RandomCorruptionAdversary>(config), good);
  };
}

/// Clamped corruption plus P^{U,live} clean phases every `period` phases.
inline AdversaryBuilder clean_phase_builder(const UteaParams& params,
                                            int period_phases) {
  return [params, period_phases] {
    CleanPhaseConfig clean;
    clean.period_phases = period_phases;
    return std::make_shared<CleanPhaseScheduler>(usafe_builder(params)(), clean);
  };
}

/// Random initial values over `distinct` possibilities.
inline ValueGenerator random_values_of(int n, int distinct = 3) {
  return [n, distinct](Rng& rng) { return random_values(n, distinct, rng); };
}

inline ValueGenerator unanimous_of(int n, Value v) {
  return [n, v](Rng&) { return unanimous_values(n, v); };
}

inline ValueGenerator split_of(int n, Value lo, Value hi) {
  return [n, lo, hi](Rng&) { return split_values(n, lo, hi); };
}

inline InstanceBuilder ate_instance_builder(const AteParams& params) {
  return [params](const std::vector<Value>& init) {
    return make_ate_instance(params, init);
  };
}

inline InstanceBuilder utea_instance_builder(const UteaParams& params) {
  return [params](const std::vector<Value>& init) {
    return make_utea_instance(params, init);
  };
}

inline InstanceBuilder phase_king_instance_builder(const PhaseKingParams& params) {
  return [params](const std::vector<Value>& init) {
    return make_phase_king_instance(params, init);
  };
}

/// Header line for a harness.
inline void banner(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n\n";
}

}  // namespace hoval::bench
