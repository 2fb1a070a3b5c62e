// Tests of the regenerative schema computation (Section 2 core).
#include "core/regenerative.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <utility>

#include "core/rr_solver.hpp"
#include "core/rrl_solver.hpp"
#include "markov/poisson.hpp"
#include "models/raid5.hpp"
#include "models/simple.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"

namespace rrl {
namespace {

RegenerativeSchema two_state_schema(double t, double eps = 1e-12) {
  static const TwoStateModel m = make_two_state(1e-3, 1.0);
  static const std::vector<double> rewards = {0.0, 1.0};
  static const std::vector<double> alpha = {1.0, 0.0};
  RegenerativeOptions opt;
  opt.epsilon = eps;
  return compute_regenerative_schema(m.chain, rewards, alpha, 0, t, opt);
}

TEST(Schema, BasicShapeTwoState) {
  const auto s = two_state_schema(100.0);
  EXPECT_DOUBLE_EQ(s.alpha_r, 1.0);
  EXPECT_FALSE(s.has_primed);
  EXPECT_DOUBLE_EQ(s.lambda, 1.0);  // max exit rate = mu
  EXPECT_GE(s.K(), 1);
  EXPECT_DOUBLE_EQ(s.main.a[0], 1.0);
  EXPECT_DOUBLE_EQ(s.r_max, 1.0);
}

TEST(Schema, TwoStateAtMaxExitRateIsExact) {
  // At Lambda = mu the down state has no self-loop, so every excursion
  // returns after exactly two randomization steps: the schema is exact with
  // K = 2 for every horizon — regenerative randomization nails two-state
  // availability models in O(1) steps.
  for (const double t : {1.0, 1e3, 1e6}) {
    const auto s = two_state_schema(t);
    EXPECT_EQ(s.K(), 2) << "t=" << t;
    EXPECT_TRUE(s.main.exact) << "t=" << t;
    EXPECT_DOUBLE_EQ(s.main.a.back(), 0.0) << "t=" << t;
  }
}

TEST(Schema, SurvivalMassIsNonIncreasing) {
  const auto s = two_state_schema(1000.0);
  for (std::size_t k = 1; k < s.main.a.size(); ++k) {
    EXPECT_LE(s.main.a[k], s.main.a[k - 1] * (1.0 + 1e-14)) << "k=" << k;
  }
}

TEST(Schema, MassConservationPerStep) {
  // a(k) = a(k+1) + qa(k) + sum_i va_i(k): every step's mass must be fully
  // accounted for (survive, regenerate, or absorb).
  const auto c = make_random_ctmc(
      {.num_states = 20, .num_absorbing = 2, .seed = 11});
  std::vector<double> rewards(20, 0.0);
  rewards[18] = 1.0;  // one absorbing state rewarded
  std::vector<double> alpha(20, 0.0);
  alpha[0] = 1.0;
  const auto s =
      compute_regenerative_schema(c, rewards, alpha, 0, 50.0, {});
  ASSERT_EQ(s.absorbing.size(), 2u);
  for (std::size_t k = 0; k + 1 < s.main.a.size(); ++k) {
    double out = s.main.a[k + 1] + s.main.qa[k];
    for (const auto& va : s.main.va) out += va[k];
    EXPECT_NEAR(out, s.main.a[k], 1e-14) << "k=" << k;
  }
}

TEST(Schema, TwoStateExcursionIsExactlyGeometric) {
  // With rate slack (Lambda = 2*mu) the down state keeps a self-loop of
  // probability 1/2: a(1) = lambda/L and a(k) decays geometrically.
  static const TwoStateModel m = make_two_state(1e-3, 1.0);
  static const std::vector<double> rewards = {0.0, 1.0};
  static const std::vector<double> alpha = {1.0, 0.0};
  RegenerativeOptions opt;
  opt.rate_factor = 2.0;
  const auto s =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 10.0, opt);
  const double L = 2.0;
  EXPECT_NEAR(s.main.a[1], 1e-3 / L, 1e-16);
  const double stay = 1.0 - 1.0 / L;
  for (std::size_t k = 2; k < s.main.a.size(); ++k) {
    EXPECT_NEAR(s.main.a[k], s.main.a[k - 1] * stay,
                1e-15 * s.main.a[k - 1])
        << "k=" << k;
  }
}

TEST(Schema, RewardMassMatchesDownStateProbability) {
  // c(k) = P[excursion alive at age k and in the rewarded state]; for the
  // two-state model every surviving excursion of age >= 1 sits in `down`.
  const auto s = two_state_schema(10.0);
  EXPECT_DOUBLE_EQ(s.main.c[0], 0.0);  // at r, reward 0
  for (std::size_t k = 1; k < s.main.c.size(); ++k) {
    EXPECT_NEAR(s.main.c[k], s.main.a[k], 1e-18);
  }
}

RegenerativeSchema three_state_schema(double t) {
  // 3-state repairable system (the quickstart model): excursions linger in
  // the degraded/down states with genuine self-loops, so the truncation
  // point exhibits the paper's two regimes.
  static const Ctmc chain = Ctmc::from_transitions(3, {{0, 1, 2e-3},
                                                       {1, 0, 1.0},
                                                       {1, 2, 1e-3},
                                                       {2, 0, 0.5}});
  static const std::vector<double> rewards = {0.0, 0.0, 1.0};
  static const std::vector<double> alpha = {1.0, 0.0, 0.0};
  RegenerativeOptions opt;
  opt.epsilon = 1e-12;
  return compute_regenerative_schema(chain, rewards, alpha, 0, t, opt);
}

TEST(Schema, TruncationGrowsLogarithmicallyInTime) {
  const auto k1 = three_state_schema(1e2).K();
  const auto k2 = three_state_schema(1e4).K();
  const auto k3 = three_state_schema(1e6).K();
  EXPECT_GT(k2, k1);
  EXPECT_GT(k3, k2);
  // Two decades of t add a constant number of steps in the log regime.
  const auto d1 = k2 - k1;
  const auto d2 = k3 - k2;
  EXPECT_NEAR(static_cast<double>(d2), static_cast<double>(d1),
              0.5 * static_cast<double>(d1) + 4.0);
}

TEST(Schema, TruncationMeetsTheErrorBound) {
  const double t = 1e4;
  const auto s = three_state_schema(t);
  // Recompute the bound at K: r_max * a(K) * E[(N - K)^+] <= eps/2.
  const PoissonDistribution poisson(s.lambda * t);
  const double bound =
      s.r_max * s.main.a.back() * poisson.expected_excess(s.K());
  EXPECT_LE(bound, 1e-12 / 2.0);
  // And K is minimal: the bound one step earlier must exceed the budget.
  const double bound_before =
      s.r_max * s.main.a[static_cast<std::size_t>(s.K()) - 1] *
      poisson.expected_excess(s.K() - 1);
  EXPECT_GT(bound_before, 1e-12 / 2.0);
}

TEST(Schema, ErlangChainTerminatesExactly) {
  // From state 0 of an Erlang absorption chain every excursion is absorbed
  // after exactly `stages` steps (all exit rates equal => no self-loops), so
  // a(stages) == 0 and the schema is exact regardless of t.
  const auto m = make_erlang(5, 2.0);
  std::vector<double> rewards(6, 0.0);
  rewards[5] = 1.0;
  std::vector<double> alpha(6, 0.0);
  alpha[0] = 1.0;
  const auto s =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 1e9, {});
  EXPECT_TRUE(s.main.exact);
  EXPECT_EQ(s.K(), 5);
  EXPECT_DOUBLE_EQ(s.main.a.back(), 0.0);
  // All absorption happens at the last step.
  EXPECT_NEAR(s.main.va[0][4], 1.0, 1e-15);
}

TEST(Schema, PrimedChainAppearsWhenInitialMassOffR) {
  const auto m = make_two_state(1e-3, 1.0);
  const std::vector<double> rewards = {0.0, 1.0};
  const std::vector<double> alpha = {0.25, 0.75};
  const auto s =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 100.0, {});
  EXPECT_TRUE(s.has_primed);
  EXPECT_DOUBLE_EQ(s.alpha_r, 0.25);
  EXPECT_DOUBLE_EQ(s.primed.a[0], 0.75);
  EXPECT_GE(s.L(), 1);
  EXPECT_EQ(s.dtmc_steps(), s.K() + s.L());
  // The primed excursion (started in `down`) also decays geometrically.
  for (std::size_t k = 1; k < s.primed.a.size(); ++k) {
    EXPECT_LE(s.primed.a[k], s.primed.a[k - 1]);
  }
}

TEST(Schema, StepCountMatchesPaperAccounting) {
  const auto s = two_state_schema(1000.0);
  EXPECT_EQ(s.dtmc_steps(), s.K());
  EXPECT_EQ(static_cast<std::int64_t>(s.main.a.size()) - 1, s.K());
  EXPECT_EQ(s.main.qa.size(), s.main.a.size() - 1);
}

TEST(Schema, SmallTimeReducesToPoissonRegime) {
  // For tiny t the criterion stops as soon as the Poisson mass is covered,
  // like standard randomization.
  const auto s = two_state_schema(0.1);
  // lambda*t ~ 0.1: a handful of steps suffices.
  EXPECT_LE(s.K(), 20);
}

TEST(Schema, CapFlagsTheResult) {
  RegenerativeOptions opt;
  opt.epsilon = 1e-12;
  opt.step_cap = 3;
  const Ctmc chain = Ctmc::from_transitions(
      3, {{0, 1, 2e-3}, {1, 0, 1.0}, {1, 2, 1e-3}, {2, 0, 0.5}});
  const std::vector<double> rewards = {0.0, 0.0, 1.0};
  const std::vector<double> alpha = {1.0, 0.0, 0.0};
  const auto s =
      compute_regenerative_schema(chain, rewards, alpha, 0, 1e6, opt);
  EXPECT_TRUE(s.capped);
  EXPECT_EQ(s.K(), 3);
}

TEST(Schema, RejectsAbsorbingRegenerativeState) {
  const auto m = make_erlang(2, 1.0);
  std::vector<double> rewards(3, 0.0);
  std::vector<double> alpha = {1.0, 0.0, 0.0};
  EXPECT_THROW((void)compute_regenerative_schema(m.chain, rewards, alpha, 2,
                                                 1.0, {}),
               contract_error);
}

TEST(Schema, RejectsInitialMassOnAbsorbingStates) {
  const auto m = make_erlang(2, 1.0);
  std::vector<double> rewards(3, 0.0);
  std::vector<double> alpha = {0.5, 0.0, 0.5};
  EXPECT_THROW((void)compute_regenerative_schema(m.chain, rewards, alpha, 0,
                                                 1.0, {}),
               contract_error);
}

TEST(Schema, ZeroRewardsTruncateImmediately) {
  const auto m = make_two_state(1e-3, 1.0);
  const std::vector<double> rewards = {0.0, 0.0};
  const std::vector<double> alpha = {1.0, 0.0};
  const auto s =
      compute_regenerative_schema(m.chain, rewards, alpha, 0, 1e6, {});
  EXPECT_EQ(s.K(), 0);  // r_max == 0 => bound is identically zero
}

// ---------------------------------------------------------------------------
// RegenerativeSeries: a grown series serves every (t, eps) as an exact
// prefix, bitwise equal to a fresh compute_regenerative_schema.

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void expect_same_series(const ExcursionSeries& got,
                        const ExcursionSeries& want) {
  EXPECT_TRUE(same_bits(got.a, want.a));
  EXPECT_TRUE(same_bits(got.c, want.c));
  EXPECT_TRUE(same_bits(got.qa, want.qa));
  ASSERT_EQ(got.va.size(), want.va.size());
  for (std::size_t i = 0; i < got.va.size(); ++i) {
    EXPECT_TRUE(same_bits(got.va[i], want.va[i])) << "va[" << i << "]";
  }
  EXPECT_EQ(got.exact, want.exact);
}

void expect_same_schema(const RegenerativeSchema& got,
                        const RegenerativeSchema& want) {
  EXPECT_TRUE(same_bits(got.lambda, want.lambda));
  EXPECT_TRUE(same_bits(got.alpha_r, want.alpha_r));
  EXPECT_TRUE(same_bits(got.r_max, want.r_max));
  EXPECT_TRUE(same_bits(got.t, want.t));
  EXPECT_EQ(got.regenerative, want.regenerative);
  EXPECT_EQ(got.absorbing, want.absorbing);
  EXPECT_TRUE(same_bits(got.f_rewards, want.f_rewards));
  EXPECT_EQ(got.has_primed, want.has_primed);
  EXPECT_EQ(got.capped, want.capped);
  EXPECT_EQ(got.K(), want.K());
  EXPECT_EQ(got.L(), want.L());
  expect_same_series(got.main, want.main);
  expect_same_series(got.primed, want.primed);
}

/// One model for the series tests; the chain is owned so the fixture can
/// hold several.
struct SeriesCase {
  std::string label;
  Ctmc chain;
  std::vector<double> rewards;
  std::vector<double> initial;
  index_t regenerative = 0;
  RegenerativeOptions options;
};

const Ctmc& three_state_chain() {
  static const Ctmc chain = Ctmc::from_transitions(
      3, {{0, 1, 2e-3}, {1, 0, 1.0}, {1, 2, 1e-3}, {2, 0, 0.5}});
  return chain;
}

std::vector<SeriesCase> series_cases() {
  std::vector<SeriesCase> cases;
  Raid5Params params;
  params.groups = 2;
  {
    // RAID-5 availability: unit mass on r, so no primed chain.
    Raid5Model ua = build_raid5_availability(params);
    SeriesCase c{"raid5_ua", ua.chain, ua.failure_rewards(),
                 ua.initial_distribution(), ua.initial_state, {}};
    cases.push_back(std::move(c));
  }
  {
    // RAID-5 reliability: absorbing failure states.
    Raid5Model ur = build_raid5_reliability(params);
    SeriesCase c{"raid5_ur", ur.chain, ur.failure_rewards(),
                 ur.initial_distribution(), ur.initial_state, {}};
    cases.push_back(std::move(c));
  }
  {
    // alpha_r < 1 with absorbing states: both chains stepped.
    Ctmc chain = make_random_ctmc(
        {.num_states = 20, .num_absorbing = 2, .seed = 7});
    std::vector<double> rewards(20, 0.0);
    rewards[3] = 1.0;
    rewards[19] = 0.5;
    std::vector<double> alpha(20, 0.0);
    alpha[0] = 0.4;
    alpha[1] = 0.35;
    alpha[5] = 0.25;
    cases.push_back({"primed", std::move(chain), rewards, alpha, 0, {}});
  }
  {
    // Exact termination: every excursion is absorbed after 5 steps, so
    // a(K) == 0 and every horizon past the Poisson regime stops at K = 5.
    ErlangModel m = make_erlang(5, 2.0);
    std::vector<double> rewards(6, 0.0);
    rewards[5] = 1.0;
    std::vector<double> alpha(6, 0.0);
    alpha[0] = 1.0;
    cases.push_back({"erlang_exact", m.chain, rewards, alpha, 0, {}});
  }
  {
    // A step cap that fires for the long horizons only, on both chains.
    RegenerativeOptions capped;
    capped.step_cap = 40;
    cases.push_back({"step_cap", three_state_chain(), {0.0, 0.0, 1.0},
                     {0.7, 0.2, 0.1}, 0, capped});
  }
  return cases;
}

/// The (t, eps) requests of the shuffle tests.
std::vector<std::pair<double, double>> series_requests() {
  std::vector<std::pair<double, double>> out;
  for (const double t : {0.0, 0.5, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5}) {
    for (const double eps : {1e-6, 1e-9, 1e-12}) out.emplace_back(t, eps);
  }
  return out;
}

TEST(RegenerativeSeries, PrefixesMatchFreshSchemasInEveryOrder) {
  const std::vector<std::pair<double, double>> requests = series_requests();
  for (const SeriesCase& c : series_cases()) {
    SCOPED_TRACE(c.label);
    std::map<std::pair<double, double>, RegenerativeSchema> fresh;
    std::int64_t max_k = 0;
    std::int64_t max_l = 0;
    for (const auto& [t, eps] : requests) {
      RegenerativeOptions opt = c.options;
      opt.epsilon = eps;
      RegenerativeSchema s = compute_regenerative_schema(
          c.chain, c.rewards, c.initial, c.regenerative, t, opt);
      max_k = std::max(max_k, s.K());
      max_l = std::max(max_l, s.L());
      fresh.emplace(std::make_pair(t, eps), std::move(s));
    }

    std::vector<std::vector<std::pair<double, double>>> orders;
    orders.push_back(requests);  // ascending t
    orders.emplace_back(requests.rbegin(), requests.rend());  // descending
    std::vector<std::pair<double, double>> repeated;
    for (const auto& r : requests) {
      repeated.push_back(r);
      repeated.push_back(r);
    }
    orders.push_back(repeated);
    for (const unsigned seed : {1u, 2u, 3u}) {
      std::vector<std::pair<double, double>> shuffled = requests;
      std::mt19937 rng(seed);
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      orders.push_back(std::move(shuffled));
    }

    const metrics::Counter& steps = metrics::counter("rrl_schema_steps_total");
    for (std::size_t o = 0; o < orders.size(); ++o) {
      SCOPED_TRACE("order " + std::to_string(o));
      const std::uint64_t before = steps.value();
      RegenerativeSeries series(c.chain, c.rewards, c.initial,
                                c.regenerative, c.options.rate_factor,
                                c.options.step_cap);
      for (const auto& [t, eps] : orders[o]) {
        SCOPED_TRACE("t=" + std::to_string(t) + " eps=" +
                     std::to_string(eps));
        expect_same_schema(series.schema(t, eps), fresh.at({t, eps}));
      }
      // The series stepped each chain exactly to the longest truncation.
      EXPECT_EQ(static_cast<std::int64_t>(steps.value() - before),
                max_k + max_l);
    }
  }
}

TEST(RegenerativeSeries, CasesCoverTheirRegimes) {
  // Guards the fixture: each model exercises what its label claims.
  const auto cases = series_cases();
  const auto schema_of = [](const SeriesCase& c, double t) {
    RegenerativeOptions opt = c.options;
    return compute_regenerative_schema(c.chain, c.rewards, c.initial,
                                       c.regenerative, t, opt);
  };
  EXPECT_FALSE(schema_of(cases[0], 1e3).has_primed);
  EXPECT_FALSE(schema_of(cases[1], 1e3).absorbing.empty());
  EXPECT_TRUE(schema_of(cases[2], 1e3).has_primed);
  EXPECT_TRUE(schema_of(cases[3], 1e5).main.exact);
  EXPECT_TRUE(schema_of(cases[4], 1e5).capped);
  EXPECT_FALSE(schema_of(cases[4], 0.5).capped);
}

TEST(RegenerativeSeries, RejectsBadRequests) {
  const auto m = make_erlang(2, 1.0);
  const std::vector<double> rewards(3, 0.0);
  const std::vector<double> alpha = {1.0, 0.0, 0.0};
  EXPECT_THROW(RegenerativeSeries(m.chain, rewards, alpha, 2),
               contract_error);
  RegenerativeSeries series(m.chain, rewards, alpha, 0);
  EXPECT_THROW((void)series.schema(-1.0, 1e-9), contract_error);
  EXPECT_THROW((void)series.schema(1.0, 0.0), contract_error);
}

// Solver level: RR and RRL answer from one grown series per solver, in any
// request order, bitwise as fresh solvers do.

/// The three-state chain with either unit mass on r or a primed chain.
struct SolverCase {
  std::string label;
  std::vector<double> initial;
};

std::vector<SolverCase> solver_cases() {
  return {{"unit_r", {1.0, 0.0, 0.0}}, {"primed", {0.6, 0.3, 0.1}}};
}

const std::vector<double>& solver_rewards() {
  static const std::vector<double> rewards = {0.0, 0.0, 1.0};
  return rewards;
}

constexpr double kSolverTimes[] = {1e5, 1.0, 1e3, 10.0};

template <typename Solver>
void expect_shared_solver_matches_fresh(const SolverCase& c) {
  std::map<double, TransientValue> fresh;
  for (const double t : kSolverTimes) {
    const Solver solver(three_state_chain(), solver_rewards(), c.initial, 0);
    fresh[t] = solver.solve_point(t, MeasureKind::kTrr);
  }
  std::vector<double> order(std::begin(kSolverTimes), std::end(kSolverTimes));
  for (const unsigned seed : {0u, 1u, 2u}) {
    if (seed > 0) {
      std::mt19937 rng(seed);
      std::shuffle(order.begin(), order.end(), rng);
    }
    const Solver shared(three_state_chain(), solver_rewards(), c.initial, 0);
    for (const double t : order) {
      const TransientValue v = shared.solve_point(t, MeasureKind::kTrr);
      EXPECT_TRUE(same_bits(v.value, fresh.at(t).value))
          << c.label << " seed " << seed << " t=" << t;
      EXPECT_EQ(v.stats.dtmc_steps, fresh.at(t).stats.dtmc_steps);
      EXPECT_EQ(v.stats.vmodel_steps, fresh.at(t).stats.vmodel_steps);
    }
  }
}

TEST(RegenerativeSeries, RrSolvesMatchFreshSolversInAnyOrder) {
  for (const SolverCase& c : solver_cases()) {
    expect_shared_solver_matches_fresh<RegenerativeRandomization>(c);
  }
}

TEST(RegenerativeSeries, RrlSolvesMatchFreshSolversInAnyOrder) {
  for (const SolverCase& c : solver_cases()) {
    expect_shared_solver_matches_fresh<RegenerativeRandomizationLaplace>(c);
  }
}

template <typename Solver>
void expect_steps_are_max_not_sum(const SolverCase& c) {
  std::int64_t max_k = 0;
  std::int64_t max_l = 0;
  std::int64_t sum = 0;
  for (const double t : kSolverTimes) {
    const RegenerativeSchema s = compute_regenerative_schema(
        three_state_chain(), solver_rewards(), c.initial, 0, t, {});
    max_k = std::max(max_k, s.K());
    max_l = std::max(max_l, s.L());
    sum += s.dtmc_steps();
  }
  const metrics::Counter& steps = metrics::counter("rrl_schema_steps_total");
  const Solver solver(three_state_chain(), solver_rewards(), c.initial, 0);
  const std::uint64_t before = steps.value();
  for (const double t : kSolverTimes) {
    (void)solver.solve_point(t, MeasureKind::kTrr);
  }
  const auto taken = static_cast<std::int64_t>(steps.value() - before);
  EXPECT_EQ(taken, max_k + max_l) << c.label;
  EXPECT_LT(taken, sum) << c.label;
}

TEST(RegenerativeSeries, StepCounterCountsMaxKPlusMaxLPerSolver) {
  for (const SolverCase& c : solver_cases()) {
    expect_steps_are_max_not_sum<RegenerativeRandomization>(c);
    expect_steps_are_max_not_sum<RegenerativeRandomizationLaplace>(c);
  }
}

}  // namespace
}  // namespace rrl
