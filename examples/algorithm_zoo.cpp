/// The algorithm zoo on one hostile scenario.
///
/// Four consensus algorithms — the paper's two corruption-tolerant ones,
/// plus two classical baselines (the coordinator-based LastVoting of the
/// benign HO model, and the static-fault Phase King) — run the *same*
/// environment: per-round dynamic corruption of one message per receiver,
/// with a clean round every 6 (for A) / clean phases (for U).
///
/// The point of the exercise is the paper's introduction in miniature:
/// algorithms designed against *static* or *benign* fault models lose to
/// dynamic value faults that any of them would shrug off in their home
/// model, while A_{T,E} and U_{T,E,alpha} — whose thresholds budget for
/// alpha corrupted receipts per round — decide correctly and fast.

#include <iostream>

#include "adversary/corruption.hpp"
#include "adversary/wrappers.hpp"
#include "core/factories.hpp"
#include "core/last_voting.hpp"
#include "sim/campaign.hpp"
#include "sim/initial_values.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main() {
  using namespace hoval;
  const int n = 9;
  const int alpha = 1;
  const int runs = 200;

  auto corruption_stack = [alpha](bool with_good_rounds) -> AdversaryBuilder {
    return [alpha, with_good_rounds]() -> std::shared_ptr<Adversary> {
      RandomCorruptionConfig corruption;
      corruption.alpha = alpha;
      corruption.policy.pool_lo = 0;
      corruption.policy.pool_hi = 3;
      auto inner = std::make_shared<RandomCorruptionAdversary>(corruption);
      if (!with_good_rounds) return inner;
      GoodRoundConfig good;
      good.period = 6;
      return std::make_shared<GoodRoundScheduler>(inner, good);
    };
  };

  struct Contender {
    std::string name;
    InstanceBuilder instance;
    bool needs_good_rounds;
  };
  const std::vector<Contender> contenders{
      {"A_{T,E}  (this paper)",
       [](const std::vector<Value>& init) {
         return make_ate_instance(AteParams::canonical(9, 1), init);
       },
       true},
      {"U_{T,E,a} (this paper)",
       [](const std::vector<Value>& init) {
         return make_utea_instance(UteaParams::canonical(9, 1), init);
       },
       true},
      {"LastVoting (benign HO)",
       [](const std::vector<Value>& init) {
         return make_last_voting_instance(9, init);
       },
       true},
      {"PhaseKing (static byz)",
       [](const std::vector<Value>& init) {
         return make_phase_king_instance(PhaseKingParams{9, 2}, init);
       },
       false},
  };

  std::cout << "environment: alpha=" << alpha
            << " dynamic corruption per receiver per round, n=" << n << ", "
            << runs << " runs each\n\n";

  TablePrinter table({"algorithm", "agreement violations",
                      "integrity violations", "terminated",
                      "mean decision round"},
                     {Align::kLeft, Align::kRight, Align::kRight, Align::kRight,
                      Align::kRight});
  for (const auto& contender : contenders) {
    CampaignConfig config;
    config.runs = runs;
    config.sim.max_rounds = 40;
    config.sim.stop_when_all_decided = false;
    config.base_seed = 0x200;
    // run_campaign shards runs across all cores; seeds derive from the run
    // index, so the table below is identical at any thread count.
    config.threads = 0;
    const auto result = run_campaign(
        [](Rng& rng) { return random_values(9, 3, rng); }, contender.instance,
        corruption_stack(contender.needs_good_rounds), config);
    table.add_row(
        {contender.name, std::to_string(result.agreement_violations),
         std::to_string(result.integrity_violations),
         std::to_string(result.terminated) + "/" + std::to_string(result.runs),
         result.last_decision_rounds.empty()
             ? "-"
             : format_double(result.last_decision_rounds.mean(), 1)});
  }
  table.print(std::cout);

  std::cout << "\nThe same per-round budget that A and U absorb by design\n"
               "concentrates on LastVoting's coordinator and PhaseKing's\n"
               "king, where a single corrupted message at the wrong moment\n"
               "splits the decision — the motivation for re-deriving\n"
               "consensus algorithms under the transmission-fault model.\n";
  return 0;
}
