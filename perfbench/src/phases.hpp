// Traced decompositions of single solver cells into the public phase
// functions of their layers. Each returns the value the solver's own
// solve_point returns, bit for bit, and books the phase times into the
// per-layer metrics.
#pragma once

#include <cstdint>
#include <span>

#include "rrl.hpp"

namespace bench {

/// Totals the traced pass accumulates beyond what Layers holds directly;
/// main turns them into laplace.share and core.transform_eval_us.
struct PhaseTotals {
  double rrl_cell_s = 0.0;  // wall time of the RRL cells, all phases
  double eval_s = 0.0;      // time inside TrrTransform evaluations
  std::int64_t evals = 0;
};

PhaseTotals& phase_totals();

/// One RRL cell as schema -> TrrTransform -> crump_invert, with the
/// options the registry's "rrl" solver uses (default RrlOptions).
[[nodiscard]] rrl::TransientValue rrl_by_phases(
    const rrl::Ctmc& chain, std::span<const double> rewards,
    std::span<const double> initial, rrl::index_t regenerative, double t,
    rrl::MeasureKind kind, double eps);

/// One RR cell: the compile through the solver's memo (schema + V-model),
/// then the V-pass on the warm memo. build_vmodel is timed once more on
/// the side, so core.vsolve_s covers V-model build + V-pass and
/// core.schema_s the rest of the compile.
[[nodiscard]] rrl::TransientValue rr_by_phases(
    const rrl::TransientSolver& rr_solver, double t, rrl::MeasureKind kind,
    double eps);

/// One Krylov cell (the solver has no public phases of its own).
[[nodiscard]] rrl::TransientValue krylov_traced(
    const rrl::TransientSolver& solver, double t, rrl::MeasureKind kind);

}  // namespace bench
