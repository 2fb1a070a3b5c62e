// Million-state scaling: the generator + lumping + Krylov pipeline on
// models far beyond the paper's RAID-5 sizes.
//
// Phase A (lumping): a symmetric k-of-n family is expanded once and lumped
// (lump_model on the expanded chain, timed on its own), and the bench
// ASSERTS (exit 1) that the exact lumping shrinks the chain by
// >= --min-reduction (default 10x), then cross-checks TRR on the lumped
// chain (krylov and rr) against the unlumped chain (sr) point by point
// within 2x the solve tolerance: the reduction must be free of error, not
// just large.
//
// Phase B (Krylov): a stiff M/M/c/K breakdown queue (service rate orders
// of magnitude above the failure rate, so standard randomization burns
// Lambda*t steps on a slowly-varying answer). Both solvers answer the
// same TRR grid; the bench checks agreement and ASSERTS the Krylov
// backend is >= --min-speedup (default 1.5x) faster in wall-clock.
//
// Usage:
//   large_model [--eps 1e-8] [--min-reduction 10] [--min-speedup 1.5]
//               [--json-out BENCH_large.json]
// Environment: RRL_BENCH_QUICK=1 shrinks phase A to ~1e5 states and
// phase B to ~1.5e5 states (CI smoke); the full run expands ~1e6 states
// in each phase.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "markov/generator.hpp"
#include "rrl.hpp"
#include "support/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace rrl;
  const CliArgs args(argc, argv);
  const bool quick = env_flag("RRL_BENCH_QUICK");
  const double eps = args.get_double("eps", 1e-8);
  const double min_reduction = args.get_double("min-reduction", 10.0);
  const double min_speedup = args.get_double("min-speedup", 1.5);
  bench::BenchJson json(args, "large_model", "BENCH_large.json");
  bool failed = false;

  // ---- Phase A: exact lumping on a symmetric k-of-n family ----------
  // (n+1)^groups ordered tuples collapse to C(n+groups, groups)
  // multisets: 10^5 -> 2002 (quick) or 10^6 -> 5005 (full).
  const std::string groups = quick ? "5" : "6";
  const GeneratorParams base = {{"n", "9"},
                                {"k", "8"},
                                {"groups", groups},
                                {"lambda", "1e-3"},
                                {"mu", "1"}};
  Stopwatch expand_watch;
  const ModelFile full = generate_model("k_of_n", base);
  const double expand_seconds = expand_watch.seconds();
  Stopwatch lump_watch;
  const ModelFile lumped = lump_model(full).lumped;
  const double lump_seconds = lump_watch.seconds();
  const double reduction = static_cast<double>(full.chain.num_states()) /
                           static_cast<double>(lumped.chain.num_states());
  std::printf(
      "phase A: k_of_n groups=%s  %d states (%.2fs expand) -> %d lumped "
      "(%.2fs), %.0fx reduction\n",
      groups.c_str(), full.chain.num_states(), expand_seconds,
      lumped.chain.num_states(), lump_seconds, reduction);
  if (reduction < min_reduction) {
    std::printf("FAIL: reduction %.1fx < required %.1fx\n", reduction,
                min_reduction);
    failed = true;
  }

  // Cross-check: the lumped chain must answer exactly like the original.
  const std::vector<double> grid{1.0, 10.0, 100.0};
  SolverConfig config;
  config.epsilon = eps;
  double max_abs_diff = 0.0;
  {
    const auto reference = make_solver("sr", full.chain, full.rewards,
                                       full.initial, config);
    const SolveReport ref = reference->solve_grid(SolveRequest::trr(grid));
    for (const std::string name : {"krylov", "rr"}) {
      SolverConfig lumped_config = config;
      lumped_config.regenerative = lumped.regenerative;
      const auto solver = make_solver(name, lumped.chain, lumped.rewards,
                                      lumped.initial, lumped_config);
      const SolveReport got = solver->solve_grid(SolveRequest::trr(grid));
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const double diff =
            std::abs(got.points[i].value - ref.points[i].value);
        max_abs_diff = std::max(max_abs_diff, diff);
        if (diff > 2.0 * eps) {
          std::printf("FAIL: lumped %s deviates by %.3e at t=%g\n",
                      name.c_str(), diff, grid[i]);
          failed = true;
        }
      }
    }
  }
  std::printf("phase A: lumped-vs-unlumped max |diff| = %.3e (tol %.0e)\n",
              max_abs_diff, 2.0 * eps);

  // ---- Phase B: uniformized Krylov vs SR on a stiff queue -----------
  // Service is 5000x the failure rate: the uniformization rate is set by
  // the fast service dynamics, so SR pays Lambda*t steps while the
  // Krylov backend takes long adaptive substeps.
  const std::string capacity = quick ? "49999" : "333332";
  const ModelFile queue = generate_model("queue", {{"capacity", capacity},
                                                   {"servers", "2"},
                                                   {"arrival", "2"},
                                                   {"service", "50"},
                                                   {"fail", "0.01"},
                                                   {"repair", "1"}});
  const std::vector<double> stiff_grid{5.0, 20.0, 80.0};
  std::printf("phase B: queue capacity=%s  %d states, Lambda=%.1f\n",
              capacity.c_str(), queue.chain.num_states(),
              queue.chain.max_exit_rate());

  const auto sr = make_solver("sr", queue.chain, queue.rewards,
                              queue.initial, config);
  // Direct construction to tune the Krylov dimension: at this nnz/row the
  // MGS orthogonalization (O(m) n-vectors per matvec) dominates the SpMV,
  // so a slimmer basis trades a few extra substeps for much cheaper ones.
  KrylovOptions krylov_options;
  krylov_options.epsilon = eps;
  krylov_options.max_dim =
      static_cast<int>(args.get_long("krylov-dim", 12));
  const auto krylov = std::make_unique<KrylovSolver>(
      queue.chain, queue.rewards, queue.initial, krylov_options);
  Stopwatch sr_watch;
  const SolveReport sr_report = sr->solve_grid(SolveRequest::trr(stiff_grid));
  const double sr_seconds = sr_watch.seconds();
  Stopwatch krylov_watch;
  const SolveReport krylov_report =
      krylov->solve_grid(SolveRequest::trr(stiff_grid));
  const double krylov_seconds = krylov_watch.seconds();
  double stiff_diff = 0.0;
  for (std::size_t i = 0; i < stiff_grid.size(); ++i) {
    stiff_diff = std::max(stiff_diff,
                          std::abs(sr_report.points[i].value -
                                   krylov_report.points[i].value));
  }
  const double speedup = sr_seconds / krylov_seconds;
  std::printf(
      "phase B: SR %.2fs (%lld steps)  Krylov %.2fs (%lld matvecs)  "
      "speedup %.2fx  max |diff| = %.3e\n",
      sr_seconds, static_cast<long long>(sr_report.total.dtmc_steps),
      krylov_seconds,
      static_cast<long long>(krylov_report.total.dtmc_steps), speedup,
      stiff_diff);
  if (stiff_diff > 2.0 * eps) {
    std::printf("FAIL: Krylov deviates from SR by %.3e\n", stiff_diff);
    failed = true;
  }
  if (speedup < min_speedup) {
    std::printf("FAIL: speedup %.2fx < required %.2fx\n", speedup,
                min_speedup);
    failed = true;
  }

  if (json) {
    json.field("states", static_cast<std::int64_t>(full.chain.num_states()))
        .field("lumped_states",
               static_cast<std::int64_t>(lumped.chain.num_states()))
        .field("reduction", reduction)
        .field("expand_seconds", expand_seconds)
        .field("lump_seconds", lump_seconds)
        .field("lump_max_abs_diff", max_abs_diff)
        .field("queue_states",
               static_cast<std::int64_t>(queue.chain.num_states()))
        .field("sr_seconds", sr_seconds)
        .field("sr_steps", sr_report.total.dtmc_steps)
        .field("krylov_seconds", krylov_seconds)
        .field("krylov_matvecs", krylov_report.total.dtmc_steps)
        .field("krylov_speedup", speedup)
        .field("stiff_max_abs_diff", stiff_diff)
        .field("passed", !failed);
  }
  return failed ? 1 : 0;
}
