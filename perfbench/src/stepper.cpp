#include "stepper.hpp"

#include "bench.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace hoval;

void PhaseTotals::add(const PhaseTotals& other) {
  message_for_ns += other.message_for_ns;
  assign_faithful_ns += other.assign_faithful_ns;
  apply_ns += other.apply_ns;
  ground_truth_ns += other.ground_truth_ns;
  stream_ns += other.stream_ns;
  transition_ns += other.transition_ns;
  run_ns += other.run_ns;
  runs += other.runs;
  rounds += other.rounds;
  altered_links += other.altered_links;
}

Stepper::Stepper(const ResolvedScenario& scenario) : scenario_(scenario) {
  for (const auto& predicate : scenario_.config.predicates)
    streams_.push_back(predicate->make_stream());
}

namespace {

/// Adds the nanoseconds since `mark` to `slot` and advances `mark`; a
/// no-op without totals.
inline void lap(PhaseTotals* totals, std::int64_t PhaseTotals::*slot,
                std::int64_t& mark) {
  if (totals == nullptr) return;
  const std::int64_t t = now_ns();
  totals->*slot += t - mark;
  mark = t;
}

bool everyone_decided(const ProcessVector& processes) {
  for (const auto& p : processes)
    if (!p->decision()) return false;
  return true;
}

}  // namespace

RunOutline Stepper::step_run(int run, PhaseTotals* totals) {
  const CampaignConfig& config = scenario_.config;
  const std::int64_t run_start = totals ? now_ns() : 0;

  Rng value_rng(mix_seed(config.base_seed, static_cast<std::uint64_t>(run), 1));
  const std::vector<Value> initial = scenario_.values(value_rng);
  ProcessVector processes = scenario_.instance(initial);
  const int n = static_cast<int>(processes.size());
  std::shared_ptr<Adversary> adversary = scenario_.adversary();
  Rng rng(mix_seed(config.base_seed, static_cast<std::uint64_t>(run), 2));

  workspace_.reset(n);
  adversary->reset(n, rng);
  for (const auto& stream : streams_)
    if (stream) stream->reset(n);

  IntendedRound& intended = workspace_.intended;
  DeliveredRound& delivered = workspace_.delivered;
  for (Round r = 1; r <= config.sim.max_rounds; ++r) {
    if (config.sim.stop_when_all_decided && everyone_decided(processes)) break;
    std::int64_t mark = totals ? now_ns() : 0;

    intended.round = r;
    bool uniform = true;
    for (ProcessId q = 0; q < n; ++q) {
      const HoProcess& sender = *processes[static_cast<std::size_t>(q)];
      auto& row = intended.by_sender[static_cast<std::size_t>(q)];
      if (sender.broadcasts()) {
        const Msg m = sender.message_for(r, 0);
        for (ProcessId p = 0; p < n; ++p) row[static_cast<std::size_t>(p)] = m;
      } else {
        uniform = false;
        for (ProcessId p = 0; p < n; ++p)
          row[static_cast<std::size_t>(p)] = sender.message_for(r, p);
      }
    }
    intended.uniform_rows = uniform;
    lap(totals, &PhaseTotals::message_for_ns, mark);

    delivered.assign_faithful(intended);
    lap(totals, &PhaseTotals::assign_faithful_ns, mark);
    adversary->apply(intended, delivered, rng);
    lap(totals, &PhaseTotals::apply_ns, mark);

    std::vector<HoRecord>& records = workspace_.trace.begin_round();
    for (ProcessId p = 0; p < n; ++p) {
      HoRecord& rec = records[static_cast<std::size_t>(p)];
      delivered.ground_truth_into(p, rec.ho, rec.sho);
    }
    lap(totals, &PhaseTotals::ground_truth_ns, mark);

    const RoundRecord& round = workspace_.trace.last_round();
    for (const auto& stream : streams_)
      if (stream) stream->on_round(round);
    lap(totals, &PhaseTotals::stream_ns, mark);

    for (ProcessId p = 0; p < n; ++p)
      processes[static_cast<std::size_t>(p)]->transition(
          r, delivered.by_receiver[static_cast<std::size_t>(p)]);
    lap(totals, &PhaseTotals::transition_ns, mark);

    if (totals) {
      for (ProcessId p = 0; p < n; ++p)
        totals->altered_links += delivered.altered(p).count();
    }
  }
  for (const auto& stream : streams_)
    if (stream) stream->finish();

  RunOutline outline;
  outline.rounds = workspace_.trace.round_count();
  for (const auto& p : processes) outline.decisions.push_back(p->decision());
  if (totals) {
    totals->run_ns += now_ns() - run_start;
    totals->runs += 1;
    totals->rounds += outline.rounds;
  }
  return outline;
}

RunOutline Stepper::simulator_run(int run) const {
  const CampaignConfig& config = scenario_.config;
  Rng value_rng(mix_seed(config.base_seed, static_cast<std::uint64_t>(run), 1));
  const std::vector<Value> initial = scenario_.values(value_rng);
  SimConfig sim = config.sim;
  sim.seed = mix_seed(config.base_seed, static_cast<std::uint64_t>(run), 2);
  Simulator simulator(scenario_.instance(initial), scenario_.adversary(), sim);
  const RunResult result = simulator.run();
  RunOutline outline;
  outline.rounds = result.rounds_executed;
  outline.decisions = result.decisions;
  return outline;
}

}  // namespace perfbench
