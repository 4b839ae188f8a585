#pragma once

/// \file interval.hpp
/// Binomial confidence intervals and the sequential stopping rule built on
/// them.  Every headline number this repository produces — violation rates,
/// termination rates, predicate hold rates — is an estimated proportion
/// from a Monte-Carlo campaign; the Wilson score interval quantifies how
/// converged such an estimate is, and StoppingRule turns that into the
/// "stop sampling once every monitored proportion is pinned down to
/// +/- ci_epsilon" policy the campaign Executor applies at deterministic
/// batch boundaries (sim/executor.hpp).
///
/// Wilson is the standard choice for campaign-sized data: unlike the
/// normal (Wald) interval it never escapes [0, 1], and it stays honest at
/// the p-hat = 0 / p-hat = 1 extremes that dominate safety experiments
/// (where the violation count is usually exactly zero).

#include <string>

namespace hoval {

/// A two-sided confidence interval for a proportion, in [0, 1].
struct ConfidenceInterval {
  double lower = 0.0;
  double upper = 1.0;

  double half_width() const noexcept { return (upper - lower) / 2.0; }
  double center() const noexcept { return (upper + lower) / 2.0; }

  /// "[0.9313, 0.9871]" rendering.
  std::string to_string(int precision = 4) const;
};

/// Quantile function (inverse CDF) of the standard normal distribution,
/// for p in (0, 1).  Acklam's rational approximation with one Halley
/// refinement step: |error| well below 1e-12 everywhere we evaluate it —
/// far tighter than any stopping decision depends on.
/// \throws PreconditionError outside (0, 1).
double normal_quantile(double p);

/// The z-score for a two-sided interval at `confidence` (e.g. 0.95 ->
/// 1.9599...).  \throws PreconditionError unless confidence is in (0, 1).
double two_sided_z(double confidence);

/// Wilson score interval for `successes` out of `trials` Bernoulli trials
/// at two-sided `confidence`.  trials == 0 yields the vacuous [0, 1].
/// \throws PreconditionError on successes < 0, successes > trials, or
/// confidence outside (0, 1).
ConfidenceInterval wilson_interval(long long successes, long long trials,
                                   double confidence);

/// True when the two intervals are separated by a gap larger than
/// `epsilon` — i.e. the underlying proportions are distinguishable at the
/// intervals' confidence level.  This is the disagreement test of the
/// adaptive refinement layer (src/refine/): an axis interval whose
/// endpoint statistics disagree is worth subdividing.  Overlapping or
/// touching intervals never disagree; with epsilon > 0 the gap must
/// additionally exceed epsilon, which lets callers ignore transitions
/// shallower than a chosen effect size.
bool intervals_disagree(const ConfidenceInterval& a,
                        const ConfidenceInterval& b, double epsilon) noexcept;

/// Sequential stopping policy for adaptive campaigns: keep sampling until
/// every monitored proportion's Wilson interval has half-width at most
/// ci_epsilon (at ci_confidence), but never stop before min_runs and never
/// exceed the campaign budget.  Checked only at deterministic run-count
/// boundaries so a campaign's executed prefix — and therefore its result —
/// is bit-identical at any thread count (see sim/executor.hpp).
struct StoppingRule {
  bool enabled = false;
  /// Never evaluate convergence before this many runs (guards against
  /// stopping on the noise of a tiny sample).
  int min_runs = 50;
  /// Hard cap on runs for an adaptive campaign; 0 means "use the
  /// campaign's configured runs as the cap".
  int max_runs = 0;
  /// Target half-width: stop once every monitored interval is at least
  /// this tight.
  double ci_epsilon = 0.02;
  /// Two-sided confidence level of the monitored intervals.
  double ci_confidence = 0.95;

  /// True when the interval for (successes, trials) is tight enough.
  bool converged(long long successes, long long trials) const;

  /// The run-count cap this rule imposes given the campaign budget.
  int cap(int campaign_runs) const noexcept {
    return max_runs > 0 ? max_runs : campaign_runs;
  }
};

bool operator==(const StoppingRule& a, const StoppingRule& b) noexcept;
inline bool operator!=(const StoppingRule& a, const StoppingRule& b) noexcept {
  return !(a == b);
}

}  // namespace hoval
