#include "sim/campaign.hpp"

#include <algorithm>
#include <sstream>
#include <thread>

#include "sim/executor.hpp"
#include "util/format.hpp"

namespace hoval {

std::string CampaignResult::summary() const {
  if (runs == 0) return "empty campaign (0 runs)";
  const bool adaptive = ci_confidence > 0.0;
  std::ostringstream os;
  // Every rate below divides by `runs` — the runs actually executed — so
  // an early-stopped campaign reports correct rates, not rates diluted by
  // the requested budget.
  if (adaptive) {
    os << runs << "/" << runs_requested << " runs (adaptive"
       << (stopped_early ? ", stopped early" : "") << ")";
  } else {
    os << runs << " runs";
  }
  os << ": agreement "
     << (agreement_violations == 0
             ? "ok"
             : std::to_string(agreement_violations) + " violations")
     << ", integrity "
     << (integrity_violations == 0
             ? "ok"
             : std::to_string(integrity_violations) + " violations");
  if (terminated == 0) {
    os << ", none terminated within the horizon";
  } else {
    os << ", terminated " << format_percent(termination_rate(), 1);
    if (!last_decision_rounds.empty())
      os << ", decided by round "
         << format_double(last_decision_rounds.mean(), 2) << " (median "
         << format_double(last_decision_rounds.median(), 1) << ", max "
         << format_double(last_decision_rounds.max(), 0) << ")";
  }
  if (!predicate_holds.empty()) {
    os << ", predicates:";
    for (std::size_t i = 0; i < predicate_holds.size(); ++i) {
      const std::string name = i < predicate_names.size() &&
                                       !predicate_names[i].empty()
                                   ? predicate_names[i]
                                   : "#" + std::to_string(i);
      os << (i == 0 ? " " : "; ") << name << " " << predicate_holds[i] << "/"
         << runs;
      if (i < predicate_intervals.size())
        os << " " << predicate_intervals[i].to_string();
    }
  }
  if (cancelled) os << " [cancelled]";
  return os.str();
}

int campaign_pool_threads(const CampaignConfig& config) {
  int threads = config.threads;
  if (threads <= 0) {
    const unsigned hardware = std::thread::hardware_concurrency();
    threads = hardware == 0 ? 1 : static_cast<int>(hardware);
  }
  // More workers than runs would idle.
  return std::max(1, std::min(threads, config.run_cap()));
}

CampaignResult run_campaign(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config) {
  // Submit-and-wait on a transient pool: one pool lifecycle per call.
  // Code running more than one campaign should share an Executor instead.
  Executor executor(campaign_pool_threads(config));
  return executor.submit(values, instance, adversary, config).take();
}

CampaignResult run_campaign(const ValueGenerator& values,
                            const InstanceBuilder& instance,
                            const AdversaryBuilder& adversary,
                            const CampaignConfig& config, Executor& executor) {
  return executor.submit(values, instance, adversary, config).take();
}

}  // namespace hoval
