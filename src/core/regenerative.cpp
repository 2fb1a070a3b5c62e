#include "core/regenerative.hpp"

#include <cmath>

#include "markov/poisson.hpp"
#include "sparse/vector_ops.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {

double ExcursionSeries::va_total(std::size_t k) const {
  double total = 0.0;
  for (const auto& series : va) total += series[k];
  return total;
}

double ExcursionSeries::va_rewarded(std::size_t k,
                                    std::span<const double> f_rewards) const {
  RRL_EXPECTS(f_rewards.size() == va.size());
  double total = 0.0;
  for (std::size_t i = 0; i < va.size(); ++i) {
    total += f_rewards[i] * va[i][k];
  }
  return total;
}

namespace {

metrics::Counter& schema_steps_counter() {
  static metrics::Counter& c = metrics::counter("rrl_schema_steps_total");
  return c;
}

/// The first k + 1 entries of a stored series (k + 1 for a and c, k for the
/// per-step series): exactly the series a run stopping at K = k stores.
ExcursionSeries series_prefix(const ExcursionSeries& stored, std::int64_t k,
                              bool exact) {
  const auto n = static_cast<std::ptrdiff_t>(k);
  ExcursionSeries out;
  out.a.assign(stored.a.begin(), stored.a.begin() + n + 1);
  out.c.assign(stored.c.begin(), stored.c.begin() + n + 1);
  out.qa.assign(stored.qa.begin(), stored.qa.begin() + n);
  out.va.reserve(stored.va.size());
  for (const auto& series : stored.va) {
    out.va.emplace_back(series.begin(), series.begin() + n);
  }
  out.exact = exact;
  return out;
}

}  // namespace

RegenerativeSeries::RegenerativeSeries(const Ctmc& chain,
                                       std::span<const double> rewards,
                                       std::span<const double> initial,
                                       index_t regenerative_state,
                                       double rate_factor,
                                       std::int64_t step_cap)
    : chain_(chain),
      rewards_(rewards),
      regenerative_(regenerative_state),
      rate_factor_(rate_factor),
      step_cap_(step_cap) {
  RRL_EXPECTS(static_cast<index_t>(rewards.size()) == chain.num_states());
  RRL_EXPECTS(regenerative_state >= 0 &&
              regenerative_state < chain.num_states());
  RRL_EXPECTS(!chain.is_absorbing(regenerative_state));
  check_distribution(initial, chain.num_states());
  // RandomizedDtmc's own preconditions, checked now because the DTMC is
  // only built at the first step; lambda is its exact expression.
  RRL_EXPECTS(chain.max_exit_rate() > 0.0);
  RRL_EXPECTS(rate_factor >= 1.0);
  lambda_ = rate_factor * chain.max_exit_rate();

  absorbing_ = chain.absorbing_states();
  r_max_ = max_reward(rewards);
  for (const index_t f : absorbing_) {
    // The paper assumes P[X(0) = f_i] = 0.
    RRL_EXPECTS(initial[static_cast<std::size_t>(f)] == 0.0);
    f_rewards_.push_back(rewards[static_cast<std::size_t>(f)]);
  }
  reward_idx_ = nonzero_reward_states(rewards);

  const auto ur = static_cast<std::size_t>(regenerative_state);
  alpha_r_ = initial[ur];
  has_primed_ = alpha_r_ < 1.0;
  // The main chain starts at r; the primed chain from the initial
  // distribution restricted to S \ {r}.
  std::vector<double> mu(static_cast<std::size_t>(chain.num_states()), 0.0);
  mu[ur] = 1.0;
  start(main_, std::move(mu));
  if (has_primed_) {
    std::vector<double> mu_primed(initial.begin(), initial.end());
    mu_primed[ur] = 0.0;
    start(primed_, std::move(mu_primed));
  }
}

void RegenerativeSeries::start(Chain& chain, std::vector<double> mu) const {
  chain.series.va.resize(absorbing_.size());
  chain.series.a.push_back(sum(mu));
  chain.series.c.push_back(sparse_reward_dot(reward_idx_, rewards_, mu));
  chain.mu = std::move(mu);
}

void RegenerativeSeries::step(Chain& chain) {
  if (!stepper_) {
    stepper_.emplace(RandomizedDtmc(chain_, rate_factor_),
                     std::vector<double>(chain.mu.size(), 0.0));
  }
  std::vector<double>& mu = chain.mu;
  stepper_->dtmc.step(mu, stepper_->next);
  mu.swap(stepper_->next);
  // Collect regeneration and absorption mass, then mask those states so
  // mu keeps tracking only the surviving excursion.
  const auto ur = static_cast<std::size_t>(regenerative_);
  chain.series.qa.push_back(mu[ur]);
  mu[ur] = 0.0;
  for (std::size_t i = 0; i < absorbing_.size(); ++i) {
    const auto uf = static_cast<std::size_t>(absorbing_[i]);
    chain.series.va[i].push_back(mu[uf]);
    mu[uf] = 0.0;
  }
  // Recompute the surviving mass from the vector itself: maintaining it
  // incrementally (mass -= returned - absorbed) leaves a constant rounding
  // residue ~1e-17 that would put a floor under a(k) and stall the
  // truncation criterion for large t.
  chain.series.a.push_back(sum(mu));
  chain.series.c.push_back(sparse_reward_dot(reward_idx_, rewards_, mu));
}

std::int64_t RegenerativeSeries::truncation(Chain& chain,
                                            const PoissonDistribution& poisson,
                                            double eps_budget, bool& exact,
                                            bool& capped) {
  // Stop at the first k whose truncation bound
  // r_max * a(k) * E[(N(Lambda t) - k)^+] meets the budget (r_max == 0
  // means every reward is zero and the measure is trivially exact), or at
  // the step cap.
  const auto stops_at = [&](std::int64_t k) {
    const double mass = chain.series.a[static_cast<std::size_t>(k)];
    const double bound =
        r_max_ == 0.0 ? 0.0 : r_max_ * mass * poisson.expected_excess(k);
    if (bound <= eps_budget) {
      exact = (mass == 0.0);
      return true;
    }
    if (step_cap_ >= 0 && k >= step_cap_) {
      capped = true;
      return true;
    }
    return false;
  };
  const std::int64_t end = chain.series.truncation();
  for (std::int64_t k = 0; k <= end; ++k) {
    if (stops_at(k)) return k;
  }
  // Every stored index misses the budget: extend the chain.
  trace::Span span("schema.extend");
  std::int64_t k = end;
  do {
    step(chain);
    ++k;
  } while (!stops_at(k));
  const auto taken = static_cast<std::uint64_t>(k - end);
  span.set_arg(taken);
  schema_steps_counter().add(taken);
  return k;
}

RegenerativeSchema RegenerativeSeries::schema(double t, double eps) {
  RRL_EXPECTS(t >= 0.0);
  RRL_EXPECTS(eps > 0.0);

  RegenerativeSchema schema;
  schema.t = t;
  schema.lambda = lambda_;
  schema.alpha_r = alpha_r_;
  schema.r_max = r_max_;
  schema.regenerative = regenerative_;
  schema.absorbing = absorbing_;
  schema.f_rewards = f_rewards_;
  schema.has_primed = has_primed_;

  const PoissonDistribution poisson(lambda_ * t);
  // eps/2 for model truncation, split in half again when both chains exist.
  const double eps_model = eps / (has_primed_ ? 4.0 : 2.0);
  const auto serve = [&](Chain& chain) {
    bool exact = false;
    const std::int64_t k =
        truncation(chain, poisson, eps_model, exact, schema.capped);
    return series_prefix(chain.series, k, exact);
  };
  schema.main = serve(main_);
  if (has_primed_) schema.primed = serve(primed_);
  stepper_.reset();
  return schema;
}

RegenerativeSchema compute_regenerative_schema(
    const Ctmc& chain, std::span<const double> rewards,
    std::span<const double> initial, index_t regenerative_state, double t,
    const RegenerativeOptions& options) {
  RRL_EXPECTS(t >= 0.0);
  RRL_EXPECTS(options.epsilon > 0.0);
  RegenerativeSeries series(chain, rewards, initial, regenerative_state,
                            options.rate_factor, options.step_cap);
  return series.schema(t, options.epsilon);
}

index_t suggest_regenerative_state(const Ctmc& chain, int iterations) {
  RRL_EXPECTS(iterations >= 1);
  RRL_EXPECTS(chain.max_exit_rate() > 0.0);
  const RandomizedDtmc dtmc(chain);
  const std::vector<index_t> absorbing = chain.absorbing_states();
  const std::size_t n = static_cast<std::size_t>(chain.num_states());
  RRL_EXPECTS(absorbing.size() < n);

  std::vector<double> mu(n, 1.0 / static_cast<double>(n));
  for (const index_t f : absorbing) mu[static_cast<std::size_t>(f)] = 0.0;
  std::vector<double> next(n, 0.0);
  for (int it = 0; it < iterations; ++it) {
    dtmc.step(mu, next);
    mu.swap(next);
    // Mask absorbed mass and renormalize: the iteration then tracks the
    // occupancy of the chain conditioned on staying in S.
    for (const index_t f : absorbing) mu[static_cast<std::size_t>(f)] = 0.0;
    const double total = sum(mu);
    RRL_ENSURES(total > 0.0);
    for (double& p : mu) p /= total;
  }
  index_t best = -1;
  double best_mass = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (chain.is_absorbing(static_cast<index_t>(i))) continue;
    if (mu[i] > best_mass) {
      best_mass = mu[i];
      best = static_cast<index_t>(i);
    }
  }
  RRL_ENSURES(best >= 0);
  return best;
}

}  // namespace rrl
