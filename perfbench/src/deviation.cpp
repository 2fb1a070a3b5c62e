// The UR deviation table of perfbench/NOTES.md: RAID-5 reliability,
// G in {20, 40}, t in {1e3, 1e4} h, eps = 1e-12, value of RR, RRL and
// Krylov minus SR at eps 1e-13, in absolute terms and in units of eps.
//
//   python3 perfbench/run.py --workload paper_rrl --deviation-table
#include <cstdio>

#include "harness.hpp"
#include "rrl.hpp"

namespace bench {

int print_ur_deviation_table() {
  constexpr double kEps = 1e-12;
  std::printf("UR deviation from SR (eps %g): G, t, solver, value - sr, "
              "(value - sr) / eps\n", kEps);
  for (const int groups : {20, 40}) {
    rrl::Raid5Params params;
    params.groups = groups;
    const rrl::Raid5Model model = rrl::build_raid5_reliability(params);
    const auto rewards = model.failure_rewards();
    const auto alpha = model.initial_distribution();
    const std::vector<double> ts = {1e3, 1e4};
    rrl::SolverConfig sr_config;
    sr_config.epsilon = 1e-13;
    const auto sr = rrl::make_solver("sr", model.chain, rewards, alpha,
                                     sr_config)
                        ->solve_grid(rrl::SolveRequest::trr(ts));
    for (const char* name : {"rr", "rrl", "krylov"}) {
      rrl::SolverConfig config;
      config.epsilon = kEps;
      config.regenerative = model.initial_state;
      const auto solver =
          rrl::make_solver(name, model.chain, rewards, alpha, config);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const double v =
            solver->solve_point(ts[i], rrl::MeasureKind::kTrr).value;
        const double d = v - sr.points[i].value;
        std::printf("G=%d t=%g %-6s %+.3e %+.1f\n", groups, ts[i], name, d,
                    d / kEps);
      }
    }
  }
  return 0;
}

}  // namespace bench
