#pragma once

/// \file stepper.hpp
/// A benchmark-local replay of Simulator::step through the library's
/// public calls, so each phase of a round can be timed from outside:
/// sending functions (core), faithful delivery and ground truth (model),
/// the adversary, streaming predicates and transitions.  Runs derive their
/// seeds exactly as an Executor campaign does, so the stepper must
/// reproduce Simulator::run's decisions and rounds for the same run index;
/// check_against_simulator() verifies that, and a mismatch voids the
/// per-phase numbers.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "scenario/run.hpp"
#include "sim/workspace.hpp"

namespace perfbench {

/// Accumulated phase times (ns) and counts over stepped runs.
struct PhaseTotals {
  std::int64_t message_for_ns = 0;
  std::int64_t assign_faithful_ns = 0;
  std::int64_t apply_ns = 0;
  std::int64_t ground_truth_ns = 0;
  std::int64_t stream_ns = 0;
  std::int64_t transition_ns = 0;
  std::int64_t run_ns = 0;  ///< whole runs, set-up included
  long long runs = 0;
  long long rounds = 0;
  long long altered_links = 0;

  void add(const PhaseTotals& other);
};

/// Decisions and rounds of one run — what the replay must reproduce.
struct RunOutline {
  std::vector<std::optional<hoval::Value>> decisions;
  hoval::Round rounds = 0;
  bool operator==(const RunOutline& other) const {
    return decisions == other.decisions && rounds == other.rounds;
  }
};

class Stepper {
 public:
  explicit Stepper(const hoval::ResolvedScenario& scenario);

  /// Replays run `run` of the scenario's campaign.  With `totals`, every
  /// phase is timed into it; without, the replay runs untimed.
  RunOutline step_run(int run, PhaseTotals* totals);

  /// The same run through hoval::Simulator::run, the reference.
  RunOutline simulator_run(int run) const;

 private:
  const hoval::ResolvedScenario& scenario_;
  hoval::RunWorkspace workspace_;
  std::vector<std::unique_ptr<hoval::PredicateStream>> streams_;
};

}  // namespace perfbench
