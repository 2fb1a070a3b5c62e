#include "phases.hpp"

#include <algorithm>
#include <memory>

#include "harness.hpp"

namespace bench {

PhaseTotals& phase_totals() {
  static PhaseTotals totals;
  return totals;
}

rrl::TransientValue rrl_by_phases(const rrl::Ctmc& chain,
                                  std::span<const double> rewards,
                                  std::span<const double> initial,
                                  rrl::index_t regenerative, double t,
                                  rrl::MeasureKind kind, double eps) {
  const double cell_start = now_s();
  const rrl::RrlOptions defaults;
  rrl::RegenerativeOptions opts;
  opts.epsilon = eps;
  opts.rate_factor = defaults.rate_factor;
  opts.step_cap = defaults.schema_step_cap;
  rrl::RegenerativeSchema schema;
  {
    const Scope s("core.schema");
    schema = rrl::compute_regenerative_schema(chain, rewards, initial,
                                              regenerative, t, opts);
    layers().add("core.schema_s", s.seconds());
  }
  layers().add("core.schema_steps", static_cast<double>(schema.dtmc_steps()));
  std::unique_ptr<const rrl::TrrTransform> transform;
  {
    const Scope s("core.transform_build");
    transform = std::make_unique<const rrl::TrrTransform>(schema);
  }

  // Section 2.2 of the paper, as RegenerativeRandomizationLaplace applies
  // it: period T = 8t, damping from the measure's bound, eps/100 series
  // tolerance (t * eps / 100 for the cumulative transform of MRR).
  const double r_max = rrl::max_reward(rewards);
  const double period = defaults.t_multiplier * t;
  rrl::CrumpOptions crump;
  crump.t_multiplier = defaults.t_multiplier;
  crump.max_terms = defaults.max_terms;
  crump.required_hits = defaults.required_hits;
  const bool trr = kind == rrl::MeasureKind::kTrr;
  crump.damping = trr ? rrl::damping_for_bounded(r_max, eps, period)
                      : rrl::damping_for_time_linear(r_max, eps, t, period);
  crump.tolerance = trr ? eps / 100.0 : t * eps / 100.0;
  PhaseTotals& totals = phase_totals();
  rrl::CrumpResult res;
  double invert_s = 0.0;
  {
    const Scope s("laplace.invert");
    res = rrl::crump_invert(
        [&](std::complex<double> z) {
          const double t0 = now_s();
          const std::complex<double> f =
              trr ? transform->trr(z) : transform->cumulative(z);
          totals.eval_s += now_s() - t0;
          ++totals.evals;
          return f;
        },
        t, crump);
    invert_s = s.seconds();
  }
  layers().add("laplace.invert_s", invert_s);
  layers().add("laplace.abscissae", res.abscissae);

  rrl::TransientValue v;
  v.value = trr ? res.value : res.value / t;
  v.stats.abscissae = res.abscissae;
  v.stats.inversion_converged = res.converged;
  v.stats.laplace_seconds = invert_s;
  v.stats.dtmc_steps = schema.dtmc_steps();
  v.stats.capped = schema.capped;
  v.stats.lambda = schema.lambda;
  v.stats.seconds = now_s() - cell_start;
  totals.rrl_cell_s += v.stats.seconds;
  return v;
}

rrl::TransientValue rr_by_phases(const rrl::TransientSolver& rr_solver,
                                 double t, rrl::MeasureKind kind,
                                 double eps) {
  const auto& rr =
      dynamic_cast<const rrl::RegenerativeRandomization&>(rr_solver);
  std::shared_ptr<const rrl::CompiledSchema> compiled;
  double compile_s = 0.0;
  {
    const Scope s("core.rr_compile");
    compiled = rr.compiled_for(t, eps);
    compile_s = s.seconds();
  }
  double vbuild_s = 0.0;
  {
    const Scope s("core.vmodel_build");
    const rrl::VModel side = rrl::build_vmodel(compiled->schema);
    vbuild_s = s.seconds();
  }
  layers().add("core.schema_s", std::max(0.0, compile_s - vbuild_s));
  layers().add("core.schema_steps",
               static_cast<double>(compiled->schema.dtmc_steps()));
  const Scope s("core.vpass");
  rrl::TransientValue v = rr_solver.solve_point(t, kind, eps);
  layers().add("core.vsolve_s", vbuild_s + s.seconds());
  layers().add("core.vmodel_steps", static_cast<double>(v.stats.vmodel_steps));
  return v;
}

rrl::TransientValue krylov_traced(const rrl::TransientSolver& solver,
                                  double t, rrl::MeasureKind kind) {
  const Scope s("core.krylov");
  rrl::TransientValue v = solver.solve_point(t, kind);
  layers().add("core.krylov_s", s.seconds());
  layers().add("core.krylov_matvecs", static_cast<double>(v.stats.dtmc_steps));
  return v;
}

}  // namespace bench
