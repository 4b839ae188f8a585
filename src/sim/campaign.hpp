#pragma once

/// \file campaign.hpp
/// Monte-Carlo campaign driver: runs many independent simulations with
/// derived seeds and aggregates consensus verdicts, decision latencies and
/// predicate verdicts.  This is the engine behind every table/figure
/// harness in bench/.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "predicates/predicate.hpp"
#include "sim/properties.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_retention.hpp"
#include "stats/descriptive.hpp"
#include "stats/interval.hpp"

namespace hoval {

/// Builds the algorithm instance for one run from its initial values.
using InstanceBuilder =
    std::function<ProcessVector(const std::vector<Value>& initial_values)>;

/// Draws the initial values for one run.
using ValueGenerator = std::function<std::vector<Value>(Rng& rng)>;

/// Builds a fresh adversary for one run (so per-run adversary state such
/// as forgery counters starts clean).
using AdversaryBuilder = std::function<std::shared_ptr<Adversary>()>;

/// Snapshot handed to the progress callback.
struct CampaignProgress {
  int completed = 0;  ///< runs finished so far
  int total = 0;      ///< configured campaign size
};

/// Invoked at most once per `progress_batch` completed runs (plus a final
/// flush, unless cancelled) while a campaign executes; may be called from
/// worker threads, serialised by the engine.  Return false to cancel the
/// remaining runs — no further invocations follow a cancellation.
using ProgressCallback = std::function<bool(const CampaignProgress&)>;

/// Campaign parameters.
struct CampaignConfig {
  int runs = 100;
  SimConfig sim;  ///< per-run simulator config; seed is derived per run
  std::uint64_t base_seed = 0xC0FFEE;
  /// Predicates evaluated on every run's trace (hold counts aggregated).
  std::vector<std::shared_ptr<Predicate>> predicates;
  /// Keep at most this many violation descriptions for diagnostics.
  int max_recorded_violations = 5;
  /// Worker threads sharding the runs.  0 = one per hardware thread; 1
  /// reproduces the classic serial path.  Any value yields a bit-identical
  /// CampaignResult: per-run seeds derive from the run index alone and the
  /// reduction merges outcomes in run-index order.
  int threads = 0;
  /// Optional batched progress/cancellation hook for long sweeps.
  ProgressCallback progress;
  /// Completed-run granularity of `progress` invocations.
  int progress_batch = 64;
  /// Contiguous run-index block a worker claims per pool task.  Batching
  /// cuts dispatch overhead on small-per-run campaigns without affecting
  /// the result: outcomes land in per-run slots and the reduction order is
  /// fixed, so any batch size is bit-identical.  0 = auto (sized from the
  /// campaign and pool), 1 = the classic one-run-per-task path.
  int batch_size = 0;
  /// Sequential confidence-interval stopping (stats/interval.hpp).  When
  /// adaptive.enabled, the engine executes runs in deterministic waves and
  /// stops at the first wave boundary where every monitored proportion
  /// (agreement-violation rate, termination rate, each predicate's hold
  /// rate) has a Wilson half-width <= adaptive.ci_epsilon — spending at
  /// most adaptive.cap(runs) and at least min(adaptive.min_runs, cap)
  /// runs.  Boundaries depend only on run outcomes, never on thread
  /// timing, so adaptive campaigns stay bit-identical at any thread
  /// count.  Disabled (the default) reproduces the classic fixed budget.
  StoppingRule adaptive;
  /// Which runs' ground-truth traces to copy into CampaignResult::traces.
  /// The default (kNone) keeps the hot path copy-free: the engine
  /// evaluates predicates against the worker's workspace trace in place
  /// and nothing is deep-copied per run.  kViolations retains the traces
  /// of runs violating agreement/integrity/irrevocability; kAll retains
  /// everything (memory scales with runs × rounds × n — use small
  /// campaigns).  Aggregate statistics are identical under every policy.
  TraceRetention keep_traces = TraceRetention::kNone;

  /// The most runs this campaign may spend: `runs`, or adaptive.cap(runs)
  /// when adaptive sizing is enabled.
  int run_cap() const {
    return adaptive.enabled ? adaptive.cap(runs) : runs;
  }
};

/// One retained ground-truth trace (see CampaignConfig::keep_traces).
struct RetainedTrace {
  int run = 0;  ///< run index within the campaign
  ComputationTrace trace;
};

/// Aggregated campaign outcome.
struct CampaignResult {
  int runs = 0;  ///< runs actually executed (every rate divides by this)
  /// The configured budget (or adaptive cap): runs == runs_requested unless
  /// the campaign stopped early or was cancelled.
  int runs_requested = 0;
  int agreement_violations = 0;
  int integrity_violations = 0;
  int irrevocability_violations = 0;
  int terminated = 0;  ///< runs where all processes decided in the horizon

  /// Decision latency over terminated runs.
  SampleSet last_decision_rounds;   ///< round by which everyone decided
  SampleSet first_decision_rounds;  ///< round of the earliest decision

  /// Per-predicate hold counts, aligned with CampaignConfig::predicates.
  std::vector<int> predicate_holds;
  /// Names of the configured predicates (Predicate::name()), aligned with
  /// predicate_holds, so summaries can say *which* predicate held.
  std::vector<std::string> predicate_names;

  /// Per-predicate Wilson intervals for the hold rates, aligned with
  /// predicate_holds; filled (at ci_confidence) only for adaptive
  /// campaigns.
  std::vector<ConfidenceInterval> predicate_intervals;
  /// Confidence level of predicate_intervals; 0 for fixed-budget
  /// campaigns (no intervals computed).
  double ci_confidence = 0.0;

  /// Sample violation descriptions (capped).
  std::vector<std::string> violations;

  /// Ground-truth traces retained per CampaignConfig::keep_traces, in run
  /// order (empty for the default kNone policy).
  std::vector<RetainedTrace> traces;

  /// True when a progress callback cancelled the campaign; only the runs
  /// counted above were executed.
  bool cancelled = false;
  /// True when the adaptive stopping rule converged before the cap: every
  /// monitored interval reached half-width <= ci_epsilon.
  bool stopped_early = false;

  bool safety_clean() const {
    return agreement_violations == 0 && integrity_violations == 0 &&
           irrevocability_violations == 0;
  }
  double termination_rate() const {
    return runs == 0 ? 0.0 : static_cast<double>(terminated) / runs;
  }
  double agreement_rate() const {
    return runs == 0 ? 1.0
                     : 1.0 - static_cast<double>(agreement_violations) / runs;
  }

  /// One-line summary for harness output.
  std::string summary() const;
};

/// The worker count run_campaign() gives its transient pool:
/// config.threads, with 0 (or a negative value, which submission rejects)
/// mapped to the hardware concurrency, clamped to [1, config.run_cap()].
int campaign_pool_threads(const CampaignConfig& config);

/// Runs the campaign on a transient Executor (sim/executor.hpp) of
/// campaign_pool_threads(config) workers: submit and wait.  Each run gets
/// seeds derived from (base_seed, index) for the initial values and the
/// fault schedule independently, so the result does not depend on
/// config.threads.  \throws PreconditionError on an invalid config, as
/// Executor::submit().
///
/// Since config.threads defaults to all cores, the builders (and any
/// predicates) are invoked concurrently and must be thread-safe — true of
/// every builder in this library, which construct fresh per-run state.  A
/// builder with shared mutable state must set config.threads = 1.
CampaignResult run_campaign(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config);

class Executor;

/// Runs the campaign on a caller-supplied persistent Executor
/// (sim/executor.hpp) instead of a one-shot pool: submit and wait.  The
/// result is bit-identical to the overload above — campaigns do not
/// depend on the pool that ran them — but the pool lifecycle is shared
/// with every other submission, so drivers looping over campaigns should
/// prefer this entry point.  config.threads is ignored (the pool is
/// already sized).
CampaignResult run_campaign(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config, Executor& executor);

}  // namespace hoval
