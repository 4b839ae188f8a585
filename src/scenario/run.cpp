#include "scenario/run.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "adversary/adversary.hpp"

namespace hoval {

namespace {

/// Mirrors Executor::submit()'s preconditions so an infeasible spec (or
/// sweep substitution) fails at resolve time, before any campaign starts.
void validate_knobs(const CampaignKnobs& knobs) {
  if (knobs.runs <= 0)
    throw ScenarioError("campaign.runs must be >= 1");
  if (knobs.rounds <= 0)
    throw ScenarioError("campaign.rounds must be >= 1");
  if (knobs.threads < 0)
    throw ScenarioError("campaign.threads must be >= 0 (0 = all cores)");
  if (knobs.max_recorded_violations < 0)
    throw ScenarioError("campaign.max_recorded_violations must be >= 0");
  if (knobs.batch_size < 0)
    throw ScenarioError("campaign.batch_size must be >= 0 (0 = auto)");
  if (knobs.adaptive.enabled) {
    if (knobs.adaptive.min_runs <= 0)
      throw ScenarioError("campaign.adaptive.min_runs must be >= 1");
    if (knobs.adaptive.max_runs < 0)
      throw ScenarioError(
          "campaign.adaptive.max_runs must be >= 0 (0 = campaign.runs)");
    if (knobs.adaptive.ci_epsilon <= 0.0)
      throw ScenarioError("campaign.adaptive.ci_epsilon must be > 0");
    if (knobs.adaptive.ci_confidence <= 0.0 ||
        knobs.adaptive.ci_confidence >= 1.0)
      throw ScenarioError(
          "campaign.adaptive.ci_confidence must be in (0, 1)");
  }
}

/// Whole-sweep cancellation fan-out: the first vetoing progress callback
/// flips the flag and cancels every handle submitted so far; handles
/// submitted later are cancelled on arrival.  Safe to drive from inside a
/// point's progress callback (handle cancellation never re-enters the
/// progress path).
struct SweepCancelState {
  std::atomic<bool> flag{false};
  std::mutex mu;
  std::vector<CampaignHandle> handles;  ///< guarded by mu

  void add(CampaignHandle handle) {
    std::lock_guard<std::mutex> lock(mu);
    if (flag.load(std::memory_order_acquire)) handle.cancel();
    handles.push_back(std::move(handle));
  }

  void cancel_all() {
    if (flag.exchange(true, std::memory_order_acq_rel)) return;
    std::lock_guard<std::mutex> lock(mu);
    for (CampaignHandle& handle : handles) handle.cancel();
  }

  /// Drops the handle references once the sweep has settled.  Every
  /// point's progress closure captures this state while the state holds a
  /// handle to every point — a reference cycle that would keep the jobs
  /// (and their outcome buffers) alive forever if never broken.
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    handles.clear();
  }
};

/// Folds one point's thread request into the pool size for a sweep-owned
/// executor: hardware concurrency as soon as any point asks for it
/// (threads = 0), else the widest explicit request — so a sweep of
/// threads = 1 points runs on a single worker and builders with shared
/// mutable state stay safe.
void fold_pool_threads(int point_threads, int& pool_threads) {
  if (point_threads == 0)
    pool_threads = 0;
  else if (pool_threads != 0)
    pool_threads = std::max(pool_threads, point_threads);
}

/// A point skipped outright by whole-sweep cancellation: zero executed
/// runs, cancelled, shaped like a real result (requested budget and
/// predicate names filled) so per-point reporting loops stay uniform.
CampaignResult skipped_point_result(const CampaignConfig& config) {
  CampaignResult result;
  result.cancelled = true;
  result.runs_requested = config.run_cap();
  result.predicate_holds.assign(config.predicates.size(), 0);
  result.predicate_names.reserve(config.predicates.size());
  for (const auto& predicate : config.predicates)
    result.predicate_names.push_back(predicate->name());
  if (config.adaptive.enabled) {
    // Shape-match the executor's reduction of a cancelled-before-start
    // job, so sequential and overlapping sweeps return identical results
    // even for the points a cancellation skipped.
    result.ci_confidence = config.adaptive.ci_confidence;
    result.predicate_intervals.reserve(config.predicates.size());
    for (std::size_t i = 0; i < config.predicates.size(); ++i)
      result.predicate_intervals.push_back(
          wilson_interval(0, 0, config.adaptive.ci_confidence));
  }
  return result;
}

/// Binds one point's campaign-progress stream to the sweep callback,
/// adding the point identity and routing a veto to the whole sweep.
ProgressCallback wrap_point_progress(
    const std::shared_ptr<SweepCancelState>& cancel,
    const SweepProgressCallback& progress, int point, int points) {
  if (!progress) return {};
  return [cancel, progress, point, points](const CampaignProgress& state) {
    if (cancel->flag.load(std::memory_order_acquire)) return false;
    const bool keep_going =
        progress(SweepProgress{point, points, state.completed, state.total});
    if (!keep_going) cancel->cancel_all();
    return keep_going;
  };
}

}  // namespace

ResolvedScenario resolve_scenario(const ScenarioSpec& spec) {
  validate_knobs(spec.campaign);
  ResolvedScenario resolved;

  // The algorithm resolves first: it fills the context the remaining
  // component factories default their parameters from.
  const auto& algorithm =
      AlgorithmRegistry::instance().get(spec.algorithm.name, "algorithm");
  resolved.instance = algorithm.make(spec.algorithm.params, resolved.context);

  resolved.values = ValueGenRegistry::instance()
                        .get(spec.values.name, "value generator")
                        .make(spec.values.params, resolved.context);

  AdversaryBuilder stack;  // built inner-first; null until the first layer
  for (const ComponentSpec& layer : spec.adversaries)
    stack = AdversaryRegistry::instance()
                .get(layer.name, "adversary")
                .make(layer.params, resolved.context, std::move(stack));
  if (!stack)
    stack = [] { return std::make_shared<IdentityAdversary>(); };
  resolved.adversary = std::move(stack);

  for (const ComponentSpec& predicate : spec.predicates)
    resolved.config.predicates.push_back(
        PredicateRegistry::instance()
            .get(predicate.name, "predicate")
            .make(predicate.params, resolved.context));

  resolved.config.runs = spec.campaign.runs;
  resolved.config.sim.max_rounds = spec.campaign.rounds;
  resolved.config.sim.stop_when_all_decided = spec.campaign.stop_when_all_decided;
  resolved.config.base_seed = spec.campaign.seed;
  resolved.config.threads = spec.campaign.threads;
  resolved.config.max_recorded_violations = spec.campaign.max_recorded_violations;
  resolved.config.batch_size = spec.campaign.batch_size;
  resolved.config.adaptive = spec.campaign.adaptive;
  resolved.config.keep_traces = spec.campaign.keep_traces;
  return resolved;
}

CampaignResult run_scenario(const ScenarioSpec& spec) {
  const ResolvedScenario resolved = resolve_scenario(spec);
  return run_campaign(resolved.values, resolved.instance, resolved.adversary,
                      resolved.config);
}

CampaignResult run_scenario(const ScenarioSpec& spec, Executor& executor) {
  ResolvedScenario resolved = resolve_scenario(spec);
  return executor
      .submit(std::move(resolved.values), std::move(resolved.instance),
              std::move(resolved.adversary), std::move(resolved.config))
      .take();
}

int validate_sweep(const SweepSpec& sweep) {
  // One grid point at a time (SweepSpec::expand_point): no O(points)
  // specs or builders are held alive for huge grids.
  const std::size_t count = sweep.point_count();
  if (count == 0) sweep.expand();  // raises the precise empty-axis error
  int pool_threads = 1;
  for (std::size_t i = 0; i < count; ++i) {
    const ResolvedScenario point = resolve_scenario(sweep.expand_point(i));
    fold_pool_threads(point.config.threads, pool_threads);
  }
  return pool_threads;
}

std::vector<CampaignHandle> submit_sweep(const SweepSpec& sweep,
                                         Executor& executor,
                                         const PointProgressFactory& progress) {
  const std::size_t count = sweep.point_count();
  std::vector<CampaignHandle> handles;
  handles.reserve(count);
  try {
    for (std::size_t i = 0; i < count; ++i) {
      ResolvedScenario point = resolve_scenario(sweep.expand_point(i));
      if (progress)
        point.config.progress = progress(static_cast<int>(i), point.config);
      handles.push_back(executor.submit(
          std::move(point.values), std::move(point.instance),
          std::move(point.adversary), std::move(point.config)));
    }
  } catch (...) {
    for (CampaignHandle& handle : handles) handle.cancel();
    throw;
  }
  return handles;
}

std::vector<CampaignResult> run_sweep(const SweepSpec& sweep,
                                      const SweepOptions& options) {
  // Every point resolves before any campaign starts; pool sizing for an
  // owned executor falls out of the same pass.
  const int pool_threads = validate_sweep(sweep);
  const std::size_t count = sweep.point_count();

  // One pool lifecycle for the whole sweep.
  std::optional<Executor> owned;
  Executor* executor = options.executor;
  if (executor == nullptr && count > 0) {
    owned.emplace(pool_threads);
    executor = &*owned;
  }

  const int total_points = static_cast<int>(count);
  auto cancel = std::make_shared<SweepCancelState>();
  std::vector<CampaignResult> results;
  results.reserve(count);

  try {
    if (options.overlap_points) {
      // Submit everything, then collect in expand() order: adaptive
      // early-stoppers hand their workers to the slow points instead of
      // idling through each point's tail.  A veto during submission is
      // not lost: add() cancels handles that arrive after it.
      std::vector<CampaignHandle> handles = submit_sweep(
          sweep, *executor, [&](int point, const CampaignConfig&) {
            return wrap_point_progress(cancel, options.progress, point,
                                       total_points);
          });
      for (const CampaignHandle& handle : handles) cancel->add(handle);
      for (CampaignHandle& handle : handles) results.push_back(handle.take());
    } else {
      for (int i = 0; i < total_points; ++i) {
        ResolvedScenario point =
            resolve_scenario(sweep.expand_point(static_cast<std::size_t>(i)));
        if (cancel->flag.load(std::memory_order_acquire)) {
          results.push_back(skipped_point_result(point.config));
          continue;
        }
        point.config.progress =
            wrap_point_progress(cancel, options.progress, i, total_points);
        CampaignHandle handle = executor->submit(
            std::move(point.values), std::move(point.instance),
            std::move(point.adversary), std::move(point.config));
        cancel->add(handle);
        results.push_back(handle.take());
      }
    }
  } catch (...) {
    // A failing point aborts the sweep: cancel the rest so the pool (and
    // an owned executor's destructor) drains quickly, then propagate.
    cancel->cancel_all();
    cancel->release();
    throw;
  }
  cancel->release();
  return results;
}

}  // namespace hoval
