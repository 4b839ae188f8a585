#include "sim/executor.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "sim/workspace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hoval {

namespace {

int resolve_pool_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

/// submit()'s config validation: every campaign entry point (run_campaign,
/// run_scenario, sweeps) submits, so all reject a config with the same
/// message.
void validate_campaign_config(const CampaignConfig& config) {
  HOVAL_EXPECTS_MSG(config.runs > 0, "campaign needs at least one run");
  HOVAL_EXPECTS_MSG(config.threads >= 0,
                    "threads must be >= 0 (0 = hardware concurrency)");
  HOVAL_EXPECTS_MSG(config.progress_batch > 0,
                    "progress_batch must be positive");
  HOVAL_EXPECTS_MSG(config.batch_size >= 0,
                    "batch_size must be >= 0 (0 = auto)");
  if (config.adaptive.enabled) {
    HOVAL_EXPECTS_MSG(config.adaptive.min_runs > 0,
                      "adaptive.min_runs must be positive");
    HOVAL_EXPECTS_MSG(config.adaptive.max_runs >= 0,
                      "adaptive.max_runs must be >= 0 (0 = campaign runs)");
    HOVAL_EXPECTS_MSG(config.adaptive.ci_epsilon > 0.0,
                      "adaptive.ci_epsilon must be positive");
    HOVAL_EXPECTS_MSG(config.adaptive.ci_confidence > 0.0 &&
                          config.adaptive.ci_confidence < 1.0,
                      "adaptive.ci_confidence must be in (0, 1)");
  }
}

}  // namespace

namespace detail {

/// The pool's scheduling lock, wake signal and completion hook.  Shared
/// between the executor and every job it created, so a handle-side cancel
/// can wake idle workers without racing executor destruction.
struct PoolSignal {
  explicit PoolSignal(std::function<void()> hook)
      : on_campaign_finished(std::move(hook)) {}
  std::mutex mu;
  std::condition_variable cv;
  const std::function<void()> on_campaign_finished;
};

/// Everything one run contributes to the aggregate, in a form that can be
/// merged in run order without losing information.
struct RunOutcome {
  bool executed = false;  ///< false for runs skipped by cancellation
  bool agreement_violation = false;
  bool integrity_violation = false;
  bool irrevocability_violation = false;
  bool terminated = false;
  double first_decision_round = 0.0;
  double last_decision_round = 0.0;
  /// Formatted violation descriptions, at most one per clause; the
  /// reduction applies the global max_recorded_violations cap.
  std::vector<std::string> violations;
  /// 0/1 per configured predicate.
  std::vector<std::uint8_t> predicate_holds;
  /// The run's trace when CampaignConfig::keep_traces retains it.
  std::optional<ComputationTrace> trace;
};

/// One submitted campaign: builders, config, the per-run outcome slots and
/// the wave state machine.  Scheduling fields are guarded by `mu`; outcome
/// slots are written lock-free by the claiming worker (claims are
/// disjoint) and become visible to the closer through the `mu`
/// release/acquire on the inflight decrement.
class CampaignJob {
 public:
  CampaignJob(std::uint64_t id, ValueGenerator values,
              InstanceBuilder instance, AdversaryBuilder adversary,
              CampaignConfig config, int pool_threads,
              std::shared_ptr<PoolSignal> pool)
      : id_(id),
        values_(std::move(values)),
        instance_(std::move(instance)),
        adversary_(std::move(adversary)),
        config_(std::move(config)),
        pool_(std::move(pool)) {
    cap_ = config_.run_cap();
    // Effective parallelism is clamped to the run cap (as
    // campaign_pool_threads() is) so the auto batch size resolves
    // identically for a given pool.
    effective_threads_ = std::min(pool_threads, cap_);
    if (config_.batch_size > 0) {
      batch_ = config_.batch_size;
    } else {
      // Auto: roughly eight tasks per worker so the pool stays balanced
      // even when per-run cost varies, clamped to something worth
      // dispatching.  Never affects results, only dispatch granularity.
      batch_ = std::clamp(cap_ / (effective_threads_ * 8), 1, 64);
    }
    boundaries_ = wave_boundaries();
    outcomes_.resize(static_cast<std::size_t>(cap_));
    wave_end_ = boundaries_.front();
    claim_size_ = wave_claim_size(/*wave_begin=*/0, wave_end_);
  }

  std::uint64_t id() const noexcept { return id_; }
  const CampaignConfig& config() const noexcept { return config_; }

  /// A contiguous block of run indices one worker executes, tagged with
  /// the wave it belongs to (the per-worker violation budget is per wave).
  struct Claim {
    int begin = 0;
    int end = 0;
    std::size_t wave = 0;
  };

  /// Claims the next block of the open wave.  Returns false when the job
  /// has nothing claimable right now (wave exhausted but still closing,
  /// cancelled, or finished).  Caller holds `mu`.
  bool try_claim_locked(Claim* out) {
    if (finished_ || closing_ ||
        cancel_requested_.load(std::memory_order_relaxed) ||
        first_error_ != nullptr)
      return false;
    if (next_run_ >= wave_end_) return false;
    out->begin = next_run_;
    out->end = std::min(wave_end_, next_run_ + claim_size_);
    out->wave = wave_;
    next_run_ = out->end;
    inflight_ += out->end - out->begin;
    return true;
  }

  /// True once the job is finished and its completion hook has returned:
  /// only then may the pool forget it, so ~Executor's drain also waits out
  /// a hook running on a cancelling thread.  Caller holds `mu`.
  bool retired_locked() const { return finished_ && !announcing_; }

  /// True when nobody is executing and the job needs a closing pass: its
  /// wave is exhausted, it was cancelled, or a worker errored.  Caller
  /// holds `mu`.
  bool needs_close_locked() const {
    if (finished_ || closing_ || inflight_ != 0) return false;
    return next_run_ >= wave_end_ ||
           cancel_requested_.load(std::memory_order_relaxed) ||
           first_error_ != nullptr;
  }

  // --- worker-side execution ---------------------------------------------

  /// Per-worker reusable state for this job: one predicate stream per
  /// configured predicate (null where only whole-trace evaluation is
  /// supported) and the wave-scoped violation string budget.  The
  /// RunWorkspace itself lives in the worker, not here: it is
  /// campaign-agnostic and survives job switches.
  struct WorkerJobState {
    std::uint64_t job_id = 0;
    std::size_t wave = 0;
    int violation_budget = 0;
    std::vector<std::unique_ptr<PredicateStream>> streams;
    bool any_stream = false;
  };

  /// (Re)binds a worker's cached per-job state to this job's claim.
  /// Rebuilding on a job switch (or resetting the budget on a wave
  /// switch) can only format *more* violation strings than one engine
  /// worker would, never fewer, so the reduction still sees every string
  /// the serial path keeps.
  void bind_worker_state(WorkerJobState& state, const Claim& claim) const {
    if (state.job_id != id_) {
      state.job_id = id_;
      state.wave = claim.wave;
      state.violation_budget = config_.max_recorded_violations;
      state.streams.clear();
      state.streams.reserve(config_.predicates.size());
      state.any_stream = false;
      for (const auto& predicate : config_.predicates) {
        state.streams.push_back(predicate->make_stream());
        state.any_stream = state.any_stream || state.streams.back() != nullptr;
      }
    } else if (state.wave != claim.wave) {
      state.wave = claim.wave;
      state.violation_budget = config_.max_recorded_violations;
    }
  }

  /// Executes one run into its outcome slot.  Seeds derive from
  /// (base_seed, run) alone, so the outcome is independent of worker,
  /// pool, and whatever else the executor interleaves.  A cancellation
  /// seen between rounds abandons the run: its slot stays unexecuted, so
  /// the reduction leaves it out exactly like a run that never started,
  /// and cancel latency is bounded by one round instead of one run.
  void execute_run(int run, RunWorkspace& workspace, WorkerJobState& state) {
    Rng value_rng(
        mix_seed(config_.base_seed, static_cast<std::uint64_t>(run), 1));
    const std::vector<Value> initial = values_(value_rng);

    ProcessVector processes = instance_(initial);
    HOVAL_EXPECTS_MSG(processes.size() == initial.size(),
                      "instance size must match initial values");
    const int n = static_cast<int>(processes.size());

    SimConfig sim = config_.sim;
    sim.seed = mix_seed(config_.base_seed, static_cast<std::uint64_t>(run), 2);

    Simulator simulator(std::move(processes), adversary_(), sim, &workspace);
    for (const auto& stream : state.streams)
      if (stream) stream->reset(n);
    while (simulator.step()) {
      if (cancel_requested_.load(std::memory_order_relaxed)) return;
      if (!state.any_stream) continue;
      const RoundRecord& round = workspace.trace.last_round();
      for (const auto& stream : state.streams)
        if (stream) stream->on_round(round);
    }

    // Snapshot without the trace copy; retention below copies it only for
    // the runs the policy keeps.
    RunResult run_result = simulator.snapshot(/*include_trace=*/false);
    const ConsensusReport report = check_consensus(initial, run_result);
    const PropertyVerdict irrevocable =
        check_irrevocability(simulator.processes());

    RunOutcome& outcome = outcomes_[static_cast<std::size_t>(run)];
    outcome.executed = true;
    auto record_violation = [&](const std::string& kind,
                                const std::string& detail) {
      // Per-worker, per-wave string budget keeps campaign memory bounded.
      // Claims hand each worker strictly increasing run indices within a
      // wave, so any string among the first max_recorded in global run
      // order has fewer than that many worker-local predecessors and is
      // always formatted — the reduction still sees exactly the strings
      // the serial path would keep.
      if (state.violation_budget <= 0) return;
      --state.violation_budget;
      std::ostringstream os;
      os << "run " << run << " (seed " << sim.seed << "): " << kind << ": "
         << detail;
      outcome.violations.push_back(os.str());
    };

    if (!report.agreement.holds) {
      outcome.agreement_violation = true;
      record_violation("agreement", report.agreement.detail);
    }
    if (!report.integrity.holds) {
      outcome.integrity_violation = true;
      record_violation("integrity", report.integrity.detail);
    }
    if (!irrevocable.holds) {
      outcome.irrevocability_violation = true;
      record_violation("irrevocability", irrevocable.detail);
    }
    if (run_result.all_decided) {
      outcome.terminated = true;
      outcome.first_decision_round =
          static_cast<double>(*run_result.first_decision_round);
      outcome.last_decision_round =
          static_cast<double>(*run_result.last_decision_round);
    }

    outcome.predicate_holds.reserve(config_.predicates.size());
    for (std::size_t i = 0; i < config_.predicates.size(); ++i) {
      // Streamed verdicts are identical to evaluate()'s; the fallback
      // reads the workspace trace in place, so neither path copies it.
      const bool holds =
          state.streams[i]
              ? state.streams[i]->finish().holds
              : config_.predicates[i]->evaluate(workspace.trace).holds;
      outcome.predicate_holds.push_back(holds ? 1 : 0);
    }

    const bool violated = outcome.agreement_violation ||
                          outcome.integrity_violation ||
                          outcome.irrevocability_violation;
    if (config_.keep_traces == TraceRetention::kAll ||
        (config_.keep_traces == TraceRetention::kViolations && violated))
      outcome.trace = workspace.trace;  // deep copy of the prefix

    completed_.fetch_add(1, std::memory_order_acq_rel);
    report_progress(/*final_flush=*/false);
  }

  /// Executes one claim's runs.  Exceptions from builders, predicates or
  /// the progress callback are captured as the job's first error and
  /// cancel the rest of the campaign — result()/take() rethrow.  Returns
  /// with the claim's inflight share released; when that leaves the job
  /// needing a closing pass, performs it.
  void run_claim(const Claim& claim, RunWorkspace& workspace,
                 WorkerJobState& state) {
    bind_worker_state(state, claim);
    for (int run = claim.begin; run < claim.end; ++run) {
      if (cancel_requested_.load(std::memory_order_acquire)) break;
      try {
        execute_run(run, workspace, state);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
        cancel_requested_.store(true, std::memory_order_release);
        break;
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    inflight_ -= claim.end - claim.begin;
    if (needs_close_locked()) close(lock);
  }

  // --- control interface (handles / executor) ----------------------------

  /// Handle-side cancellation.  When nothing is executing, the caller
  /// performs the closing pass itself so a cancelled-before-start job
  /// completes without waiting for a pool worker.
  bool cancel() {
    bool closed_here = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (finished_) return false;
      cancel_requested_.store(true, std::memory_order_release);
      if (needs_close_locked()) {
        close(lock);
        closed_here = true;
      }
    }
    if (closed_here) {
      // Workers idle-waiting on the pool (e.g. a shutting-down executor
      // whose last job this was) must observe the finish and prune it.
      // Briefly taking the pool mutex makes any mid-scan worker reach its
      // wait before the notify; shared ownership keeps the signal alive
      // even if the executor is torn down concurrently.
      { std::lock_guard<std::mutex> pool_lock(pool_->mu); }
      pool_->cv.notify_all();
    }
    return true;
  }

  /// Closing pass invoked by whichever thread observed the job quiescent
  /// (no inflight claims) with its wave exhausted, cancelled, or errored.
  /// `closing_` grants exclusive ownership of the transition; the slow
  /// work (convergence check, final progress flush, reduction) runs with
  /// `mu` released so other jobs — and this job's handle methods — stay
  /// responsive.  Caller holds `lock` on entry and exit.
  void close(std::unique_lock<std::mutex>& lock) {
    closing_ = true;
    for (;;) {
      const bool cancelled =
          cancel_requested_.load(std::memory_order_relaxed) &&
          first_error_ == nullptr;
      const bool errored = first_error_ != nullptr;
      const int boundary = wave_end_;
      const bool at_cap = boundary >= cap_;
      lock.unlock();

      bool converged = false;
      if (!cancelled && !errored && !at_cap && config_.adaptive.enabled)
        converged = converged_at(boundary);
      const bool finish = cancelled || errored || at_cap || converged;

      CampaignResult result;
      bool flush_failed = false;
      if (finish && !errored) {
        if (!cancelled) {
          try {
            report_progress(/*final_flush=*/true);
          } catch (...) {
            // A throwing progress sink surfaces like any worker error.
            std::lock_guard<std::mutex> error_lock(mu_);
            if (!first_error_) first_error_ = std::current_exception();
            flush_failed = true;
          }
        }
        if (!flush_failed) {
          result = reduce();
          result.cancelled = cancelled;
          result.stopped_early = converged;
        }
      }

      lock.lock();
      if (finish && !flush_failed) {
        if (first_error_ == nullptr) result_ = std::move(result);
        finished_ = true;
        closing_ = false;
        done_cv_.notify_all();
        if (pool_->on_campaign_finished) {
          // Fired once, after `finished_` is published (ready() already
          // holds) and outside every lock.
          announcing_ = true;
          lock.unlock();
          pool_->on_campaign_finished();
          lock.lock();
          announcing_ = false;
        }
        return;
      }
      if (flush_failed) continue;  // redo the pass as an errored finish
      // Not finishing: open the next wave.  A cancellation that raced in
      // while we were deciding restarts the pass instead.
      if (cancel_requested_.load(std::memory_order_relaxed)) continue;
      const int wave_begin = wave_end_;
      ++wave_;
      wave_end_ = boundaries_[wave_];
      claim_size_ = wave_claim_size(wave_begin, wave_end_);
      closing_ = false;
      return;
    }
  }

  bool ready() const {
    std::lock_guard<std::mutex> lock(mu_);
    return finished_;
  }

  void wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return finished_; });
  }

  const CampaignResult& result() const {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return finished_; });
    if (first_error_) std::rethrow_exception(first_error_);
    return result_;
  }

  CampaignResult take() {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return finished_; });
    if (first_error_) std::rethrow_exception(first_error_);
    return std::move(result_);
  }

  /// The job's own mutex; the executor's worker loop locks it (after the
  /// pool mutex — that order, never the reverse) to claim work.
  std::mutex& mutex() const { return mu_; }

 private:
  /// Deterministic wave boundaries: {cap} for fixed-budget campaigns;
  /// min_runs doubling up to the cap for adaptive ones.  Depends only on
  /// the config, so every pool schedules the same waves.
  std::vector<int> wave_boundaries() const {
    if (!config_.adaptive.enabled) return {cap_};
    std::vector<int> boundaries;
    int boundary = std::min(cap_, config_.adaptive.min_runs);
    boundaries.push_back(boundary);
    while (boundary < cap_) {
      boundary = boundary > cap_ / 2 ? cap_ : boundary * 2;
      boundaries.push_back(boundary);
    }
    return boundaries;
  }

  /// Early adaptive waves can be much smaller than the cap; clamp the
  /// claim size so every worker gets at least one block per wave (batch
  /// size never affects results, only dispatch granularity).
  int wave_claim_size(int wave_begin, int wave_end) const {
    const int wave_size = wave_end - wave_begin;
    return std::min(batch_, std::max(1, wave_size / effective_threads_));
  }

  /// Stopping-rule check on the fully-executed prefix [0, boundary).
  /// Called only by the closing owner after every run below `boundary`
  /// completed, so it reads a fixed prefix — the stop decision is a pure
  /// function of the config, identical on any pool and any interleaving.
  bool converged_at(int boundary) const {
    long long agreement_violations = 0;
    long long terminated = 0;
    std::vector<long long> predicate_holds(config_.predicates.size(), 0);
    for (int run = 0; run < boundary; ++run) {
      const RunOutcome& outcome = outcomes_[static_cast<std::size_t>(run)];
      agreement_violations += outcome.agreement_violation ? 1 : 0;
      terminated += outcome.terminated ? 1 : 0;
      for (std::size_t i = 0; i < outcome.predicate_holds.size(); ++i)
        predicate_holds[i] += outcome.predicate_holds[i];
    }
    const StoppingRule& rule = config_.adaptive;
    if (!rule.converged(agreement_violations, boundary)) return false;
    if (!rule.converged(terminated, boundary)) return false;
    for (const long long holds : predicate_holds)
      if (!rule.converged(holds, boundary)) return false;
    return true;
  }

  /// Deterministic reduction in run-index order; moves retained traces
  /// out of the outcome slots.
  CampaignResult reduce() {
    CampaignResult result;
    result.runs_requested = cap_;
    result.predicate_holds.assign(config_.predicates.size(), 0);
    result.predicate_names.reserve(config_.predicates.size());
    for (const auto& predicate : config_.predicates)
      result.predicate_names.push_back(predicate->name());

    for (std::size_t run = 0; run < outcomes_.size(); ++run) {
      RunOutcome& outcome = outcomes_[run];
      if (!outcome.executed) continue;
      ++result.runs;
      if (outcome.trace)
        result.traces.push_back(
            RetainedTrace{static_cast<int>(run), std::move(*outcome.trace)});
      result.agreement_violations += outcome.agreement_violation ? 1 : 0;
      result.integrity_violations += outcome.integrity_violation ? 1 : 0;
      result.irrevocability_violations +=
          outcome.irrevocability_violation ? 1 : 0;
      for (const std::string& violation : outcome.violations)
        if (static_cast<int>(result.violations.size()) <
            config_.max_recorded_violations)
          result.violations.push_back(violation);
      if (outcome.terminated) {
        ++result.terminated;
        result.last_decision_rounds.add(outcome.last_decision_round);
        result.first_decision_rounds.add(outcome.first_decision_round);
      }
      for (std::size_t i = 0; i < outcome.predicate_holds.size(); ++i)
        result.predicate_holds[i] += outcome.predicate_holds[i];
    }

    if (config_.adaptive.enabled) {
      result.ci_confidence = config_.adaptive.ci_confidence;
      result.predicate_intervals.reserve(result.predicate_holds.size());
      for (const int holds : result.predicate_holds)
        result.predicate_intervals.push_back(wilson_interval(
            holds, result.runs, config_.adaptive.ci_confidence));
    }
    return result;
  }

  /// Batched progress reporting, serialised per job exactly as the engine
  /// serialised it per campaign.  Never called with `mu_` held, so a
  /// callback may cancel this or any sibling campaign.  A veto on the
  /// final flush has nothing left to cancel.
  void report_progress(bool final_flush) {
    if (!config_.progress) return;
    std::lock_guard<std::mutex> lock(progress_mu_);
    if (cancel_requested_.load(std::memory_order_acquire)) return;
    const int done = completed_.load(std::memory_order_acquire);
    if (!final_flush && done - last_reported_ < config_.progress_batch) return;
    if (final_flush && done == last_reported_) return;
    last_reported_ = done;
    const bool keep_going = config_.progress(CampaignProgress{done, cap_});
    if (!keep_going && !final_flush)
      cancel_requested_.store(true, std::memory_order_release);
  }

  const std::uint64_t id_;
  const ValueGenerator values_;
  const InstanceBuilder instance_;
  const AdversaryBuilder adversary_;
  const CampaignConfig config_;
  const std::shared_ptr<PoolSignal> pool_;
  int cap_ = 0;
  int batch_ = 1;
  int effective_threads_ = 1;
  std::vector<int> boundaries_;
  std::vector<RunOutcome> outcomes_;

  mutable std::mutex mu_;
  mutable std::condition_variable done_cv_;
  std::size_t wave_ = 0;     ///< index into boundaries_
  int wave_end_ = 0;         ///< boundaries_[wave_]
  int next_run_ = 0;         ///< first unclaimed run of the open wave
  int inflight_ = 0;         ///< runs claimed but not yet released
  int claim_size_ = 1;       ///< block size for the open wave
  bool closing_ = false;     ///< a thread owns the wave transition
  bool finished_ = false;
  bool announcing_ = false;  ///< the completion hook is running
  std::exception_ptr first_error_;
  CampaignResult result_;

  std::atomic<bool> cancel_requested_{false};
  std::atomic<int> completed_{0};
  std::mutex progress_mu_;
  int last_reported_ = 0;  ///< guarded by progress_mu_
};

}  // namespace detail

// --- CampaignHandle ---------------------------------------------------------

CampaignHandle::CampaignHandle(std::shared_ptr<detail::CampaignJob> job)
    : job_(std::move(job)) {}

bool CampaignHandle::ready() const {
  HOVAL_EXPECTS_MSG(job_ != nullptr, "empty CampaignHandle");
  return job_->ready();
}

void CampaignHandle::wait() const {
  HOVAL_EXPECTS_MSG(job_ != nullptr, "empty CampaignHandle");
  job_->wait();
}

const CampaignResult& CampaignHandle::result() const {
  HOVAL_EXPECTS_MSG(job_ != nullptr, "empty CampaignHandle");
  return job_->result();
}

CampaignResult CampaignHandle::take() {
  HOVAL_EXPECTS_MSG(job_ != nullptr, "empty CampaignHandle");
  return job_->take();
}

bool CampaignHandle::cancel() {
  HOVAL_EXPECTS_MSG(job_ != nullptr, "empty CampaignHandle");
  return job_->cancel();
}

// --- Executor ---------------------------------------------------------------

struct Executor::Impl {
  explicit Impl(std::function<void()> on_campaign_finished)
      : signal(std::make_shared<detail::PoolSignal>(
            std::move(on_campaign_finished))) {}

  /// Guards `active` and `shutdown` and wakes idle workers; shared with
  /// every job (see PoolSignal).
  std::shared_ptr<detail::PoolSignal> signal;
  /// Submission order; finished jobs are pruned during worker scans.
  std::list<std::shared_ptr<detail::CampaignJob>> active;
  bool shutdown = false;
  std::uint64_t next_job_id = 1;
  std::vector<std::thread> workers;

  void worker_loop() {
    // One workspace per worker for the pool's whole lifetime: reused by
    // every run of every campaign this worker touches (the buffers are
    // size-agnostic).  The per-job predicate streams are cached alongside
    // and rebuilt only when the worker switches campaigns.
    RunWorkspace workspace;
    detail::CampaignJob::WorkerJobState job_state;

    std::unique_lock<std::mutex> lock(signal->mu);
    for (;;) {
      std::shared_ptr<detail::CampaignJob> job;
      detail::CampaignJob::Claim claim;
      bool close_only = false;
      for (auto it = active.begin(); it != active.end();) {
        std::unique_lock<std::mutex> job_lock((*it)->mutex());
        if ((*it)->retired_locked()) {
          job_lock.unlock();
          it = active.erase(it);
          continue;
        }
        if ((*it)->try_claim_locked(&claim)) {
          job = *it;
          break;
        }
        if ((*it)->needs_close_locked()) {
          // E.g. a campaign cancelled before any worker reached it while
          // the canceller raced the scan: finish it here.
          job = *it;
          close_only = true;
          break;
        }
        job_lock.unlock();
        ++it;
      }

      if (!job) {
        if (shutdown && active.empty()) return;
        signal->cv.wait(lock);
        continue;
      }

      lock.unlock();
      if (close_only) {
        std::unique_lock<std::mutex> job_lock(job->mutex());
        if (job->needs_close_locked()) job->close(job_lock);
      } else {
        job->run_claim(claim, workspace, job_state);
      }
      job.reset();
      lock.lock();
      // A finished claim may have opened the next wave or finished the
      // job; idle workers need to re-scan either way.
      signal->cv.notify_all();
    }
  }
};

Executor::Executor(int threads, std::function<void()> on_campaign_finished)
    : impl_(std::make_unique<Impl>(std::move(on_campaign_finished))) {
  HOVAL_EXPECTS_MSG(threads >= 0,
                    "executor threads must be >= 0 (0 = hardware concurrency)");
  threads_ = resolve_pool_threads(threads);
  impl_->workers.reserve(static_cast<std::size_t>(threads_));
  try {
    for (int t = 0; t < threads_; ++t)
      impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(impl_->signal->mu);
      impl_->shutdown = true;
    }
    impl_->signal->cv.notify_all();
    for (std::thread& worker : impl_->workers) worker.join();
    throw;
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(impl_->signal->mu);
    impl_->shutdown = true;
  }
  impl_->signal->cv.notify_all();
  for (std::thread& worker : impl_->workers) worker.join();
}

CampaignHandle Executor::submit(ValueGenerator values,
                                InstanceBuilder instance,
                                AdversaryBuilder adversary,
                                CampaignConfig config) {
  HOVAL_EXPECTS_MSG(values && instance && adversary,
                    "campaign builders must all be set");
  validate_campaign_config(config);
  std::shared_ptr<detail::CampaignJob> job;
  {
    std::lock_guard<std::mutex> lock(impl_->signal->mu);
    HOVAL_EXPECTS_MSG(!impl_->shutdown,
                      "submit() on an Executor being destroyed");
    job = std::make_shared<detail::CampaignJob>(
        impl_->next_job_id++, std::move(values), std::move(instance),
        std::move(adversary), std::move(config), threads_, impl_->signal);
    impl_->active.push_back(job);
  }
  impl_->signal->cv.notify_all();
  return CampaignHandle(job);
}

}  // namespace hoval
