#pragma once

/// \file executor.hpp
/// Executor: the persistent campaign execution service.
///
/// An Executor is a *long-lived* worker pool that campaigns are submitted
/// to asynchronously (run_campaign() is submit-and-wait on a transient
/// one): submit() returns a CampaignHandle immediately, and the campaign's
/// deterministic adaptive waves become schedulable blocks of pool work.  Campaigns from different
/// submissions interleave on the same workers — an adaptive early-stopper
/// frees its workers for whatever else is queued — which is what lets a
/// whole sweep (scenario/run.hpp) share one pool lifecycle instead of
/// paying a pool spin-up and tear-down per grid point.
///
/// Determinism is preserved *by construction*, including under
/// interleaving.  Every run of a campaign derives its RNG streams from
/// (base_seed, run index) alone, outcomes land in per-run slots, and the
/// reduction merges them in run-index order; adaptive stopping decisions
/// are evaluated only on fully-executed wave prefixes.  Nothing a run
/// computes depends on which worker executed it, which pool it ran on, or
/// what other campaigns were in flight — so a campaign's CampaignResult is
/// bit-identical for any executor thread count, any batch size, and any
/// submission interleaving.
///
/// Each worker owns one RunWorkspace (sim/workspace.hpp) for its entire
/// lifetime: the workspace is size-agnostic and reused across *all* the
/// runs the worker executes, across campaigns and submissions.  Predicate
/// streams are rebuilt when a worker switches campaigns (they are
/// campaign-specific) and reused while it stays on one.
///
/// A CampaignHandle is also the natural unit of future cross-process
/// sharding: it names one campaign's (builders, config) pair plus a
/// completion slot, which is exactly what a multi-host dispatcher would
/// serialise per shard.
///
/// Thread-safety: submit() and every CampaignHandle member may be called
/// from any thread, including from inside a progress callback (so a
/// callback can cancel sibling campaigns).  The builders of a submitted
/// campaign are invoked concurrently from the pool and must be safe to
/// call from multiple threads — true of every builder in this library.  A
/// campaign whose builders share mutable state needs a dedicated
/// single-worker Executor (the per-campaign CampaignConfig::threads knob
/// cannot restrict a shared pool).

#include <functional>
#include <memory>

#include "sim/campaign.hpp"

namespace hoval {

namespace detail {
class CampaignJob;
}  // namespace detail

/// Completion handle for one submitted campaign.  Cheap to copy (all
/// copies address the same campaign) and safe to outlive the Executor: the
/// executor's destructor drains every submitted campaign first.
class CampaignHandle {
 public:
  /// An empty handle; valid() is false and every other member is UB.
  CampaignHandle() = default;

  bool valid() const noexcept { return job_ != nullptr; }

  /// True once the campaign has finished (completed, cancelled, or failed
  /// with a stored exception).  Never blocks.
  bool ready() const;

  /// Blocks until the campaign has finished.  Does not throw stored
  /// campaign errors — result()/take() do.
  void wait() const;

  /// Blocks until finished and returns the merged result.  \throws the
  /// first exception a builder, predicate or progress callback raised
  /// while the campaign executed.
  const CampaignResult& result() const;

  /// Blocks until finished and *moves* the result out — the zero-copy way
  /// to collect a campaign that retained traces.  Call at most once per
  /// campaign; afterwards result() views a moved-from value.  \throws like
  /// result().
  CampaignResult take();

  /// Requests cancellation: no further runs of this campaign start, runs
  /// already executing stop at their next round and are left out like
  /// runs that never started, and the result is reduced over the completed
  /// runs with CampaignResult::cancelled set (the same semantics as a
  /// progress-callback veto).  Cancelling before the first run starts
  /// yields an empty cancelled result.  Returns true when the request
  /// landed before the campaign finished; false when there was nothing
  /// left to cancel.  Idempotent.
  bool cancel();

 private:
  friend class Executor;
  explicit CampaignHandle(std::shared_ptr<detail::CampaignJob> job);

  std::shared_ptr<detail::CampaignJob> job_;
};

/// Persistent worker pool with an async campaign-submission API.
class Executor {
 public:
  /// Spins up the pool.  `threads` = 0 means one worker per hardware
  /// thread; 1 gives a serial (but still async) executor.
  ///
  /// `on_campaign_finished`, when set, is called exactly once per submitted
  /// campaign, whichever way it finishes: full budget, adaptive early
  /// stop, error, or cancellation before or during its runs.  It runs after
  /// the campaign's handle reports ready(), with no executor lock held, on
  /// the thread that finished the campaign: a pool worker, or the thread
  /// calling CampaignHandle::cancel() when nothing was executing.  It lets
  /// an event loop sleep until work completes instead of polling ready().
  /// Keep it to a non-blocking wakeup (a pipe write, a condition-variable
  /// notify).  It must not throw and must not block — in particular it
  /// must not wait on a handle (wait(), result(), take()) or submit work —
  /// since it may run on a worker the pool needs or inside a cancel()
  /// call; a ready() check is fine.  ~Executor's drain waits for every
  /// call to return.
  /// \throws PreconditionError on threads < 0.
  explicit Executor(int threads = 0,
                    std::function<void()> on_campaign_finished = {});

  /// Drains: blocks until every submitted campaign has finished (cancel
  /// handles first for a fast exit), then joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues a campaign and returns immediately.  \throws
  /// PreconditionError on runs <= 0, threads < 0, progress_batch <= 0,
  /// batch_size < 0, or invalid adaptive knobs (min_runs <= 0, max_runs
  /// < 0, ci_epsilon <= 0, ci_confidence outside (0, 1)).  The config's
  /// `threads` field is otherwise ignored — the pool is shared and its
  /// size fixed — which never changes the result, since campaigns are
  /// bit-identical at any thread count.
  CampaignHandle submit(ValueGenerator values, InstanceBuilder instance,
                        AdversaryBuilder adversary, CampaignConfig config);

  /// The fixed worker count of this pool.
  int threads() const noexcept { return threads_; }

 private:
  struct Impl;

  int threads_ = 1;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hoval
