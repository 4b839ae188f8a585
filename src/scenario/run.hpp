#pragma once

/// \file run.hpp
/// The one build path from a declarative ScenarioSpec to an executed
/// campaign.  resolve_scenario() turns a spec into exactly the builders
/// and CampaignConfig a hand-written harness would have constructed, and
/// run_scenario() executes them on the same Executor-backed path as
/// run_campaign() — the result is bit-identical to the equivalent
/// hand-rolled builders at any thread count.
///
/// Sweeps execute on one persistent worker pool (sim/executor.hpp): every
/// grid point is resolved up front (validate_sweep), then submitted to a
/// single Executor — by default all at once (submit_sweep), so points
/// overlap and an adaptive early-stopper's workers immediately pick up the
/// slower points' runs.
/// Because every point's campaign is bit-identical under any pool and any
/// submission interleaving, overlapping changes wall time only, never a
/// result.

#include <functional>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "sim/campaign.hpp"
#include "sim/executor.hpp"

namespace hoval {

/// A scenario resolved against the registries: ready-to-run builders plus
/// the CampaignConfig equivalent of the spec's campaign knobs.  Callers
/// that need more than run_scenario() offers (progress hooks, single-run
/// tracing, custom timing) resolve first and call run_campaign() — or an
/// Executor — themselves.
struct ResolvedScenario {
  ValueGenerator values;
  InstanceBuilder instance;
  AdversaryBuilder adversary;
  CampaignConfig config;  ///< predicates populated from the spec
  /// n and the algorithm thresholds the components resolved against.
  ResolveContext context;
};

/// Resolves every component of the spec against the registries, fully
/// validating parameters.  \throws ScenarioError on unknown names (with a
/// "did you mean" suggestion) or invalid params.
ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

/// resolve_scenario() + run_campaign().
CampaignResult run_scenario(const ScenarioSpec& spec);

/// resolve_scenario() + submit on a caller-supplied persistent Executor:
/// shares the pool with every other submission instead of paying a pool
/// lifecycle for this one campaign.  Bit-identical to run_scenario(spec);
/// the spec's campaign.threads is ignored (the pool is already sized).
CampaignResult run_scenario(const ScenarioSpec& spec, Executor& executor);

/// Snapshot handed to a sweep progress callback: one point's campaign
/// progress plus the point's identity within the sweep, so drivers can
/// print "point k/N" lines.
struct SweepProgress {
  int point = 0;      ///< 0-based index in expand() order
  int points = 0;     ///< total points in the sweep
  int completed = 0;  ///< runs finished in this point's campaign
  int total = 0;      ///< this point's configured run cap
};

/// Invoked with the batching of CampaignConfig::progress_batch, per
/// point; with overlapping points, callbacks for different points
/// interleave (each point's stream is serialised, as for any campaign).
/// Returning false cancels the *whole sweep*: every in-flight
/// point is cancelled and every not-yet-started point is skipped.
using SweepProgressCallback = std::function<bool(const SweepProgress&)>;

/// How run_sweep() executes the expanded grid.
struct SweepOptions {
  /// Pool to submit the points to; nullptr makes run_sweep() own one for
  /// the duration of the sweep (sized from the points' campaign.threads:
  /// hardware concurrency if any point asks for 0, else their maximum —
  /// so a sweep of threads = 1 points stays effectively serial).
  Executor* executor = nullptr;
  /// Submit every point up front so points overlap on the pool (the
  /// default), or wait for each point before submitting the next.
  /// Results are bit-identical either way; sequential trades the
  /// overlap's wall-time win for strictly ordered progress callbacks.
  bool overlap_points = true;
  /// Optional point-aware progress/cancellation hook.
  SweepProgressCallback progress;
};

/// The validation pass every sweep front end (run_sweep, hovald, the
/// dispatcher) runs before its first campaign: expands and resolves each
/// grid point in turn, so an infeasible substitution or bad parameter
/// fails up front.  Returns the pool size a sweep-owned Executor uses:
/// hardware concurrency (0) as soon as any point asks for it, else the
/// widest explicit campaign.threads — so a sweep of threads = 1 points
/// runs on a single worker.  \throws ScenarioError on an empty axis or
/// an unresolvable point.
int validate_sweep(const SweepSpec& sweep);

/// Builds one point's campaign progress hook from its expand() index and
/// resolved config; an empty callback attaches none.
using PointProgressFactory =
    std::function<ProgressCallback(int point, const CampaignConfig& config)>;

/// The plain-sweep point loop shared by run_sweep() and hovald: per point,
/// in expand() order, expand_point(), resolve, attach `progress`'s hook
/// and submit to `executor`.  Returns the handles in expand() order.  Call
/// validate_sweep() first; a point that still fails to resolve throws
/// after the points already submitted are cancelled.
std::vector<CampaignHandle> submit_sweep(
    const SweepSpec& sweep, Executor& executor,
    const PointProgressFactory& progress = {});

/// Validates the sweep (validate_sweep), then executes the points per
/// `options` on one pool and returns one CampaignResult per point, in
/// expand() order.  Points skipped by a whole-sweep cancellation come back
/// as empty results with CampaignResult::cancelled set.
std::vector<CampaignResult> run_sweep(const SweepSpec& sweep,
                                      const SweepOptions& options = {});

}  // namespace hoval
