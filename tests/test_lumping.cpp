// Exact ordinary lumping: reduction on symmetric chains, no-op on
// asymmetric ones, determinism, bitwise agreement with a plain fixpoint
// refinement, and the invariance that justifies the pass — every solver
// answers the same transient questions on the lumped chain as on the
// original, within the requested tolerance.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/model_format.hpp"
#include "markov/lumping.hpp"
#include "rrl.hpp"
#include "support/fnv.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

ModelFile parse(const std::string& text) {
  std::istringstream in(text);
  return read_model(in);
}

/// Two exchangeable components (states coded as 2*a + b, a,b in {0,1}
/// failed-flags): failure rate 0.1, repair rate 1 per component. States
/// 01 and 10 are equivalent; 4 states lump to 3.
ModelFile two_component_model() {
  return parse(
      "states 4\n"
      "transition 0 1 0.1\n"
      "transition 0 2 0.1\n"
      "transition 1 0 1\n"
      "transition 1 3 0.1\n"
      "transition 2 0 1\n"
      "transition 2 3 0.1\n"
      "transition 3 1 1\n"
      "transition 3 2 1\n"
      "reward 0 1\n"
      "reward 1 1\n"
      "reward 2 1\n"
      "initial 0 1\n");
}

TEST(Lumping, MergesExchangeableStates) {
  const ModelFile model = two_component_model();
  const LumpResult result = lump_model(model);
  EXPECT_EQ(result.original_states, 4);
  EXPECT_EQ(result.lumped_states(), 3);
  EXPECT_EQ(result.lumped.pre_lump_states, 4);
  ASSERT_EQ(result.block_of.size(), 4u);
  EXPECT_EQ(result.block_of[1], result.block_of[2]);
  EXPECT_NE(result.block_of[0], result.block_of[1]);
  EXPECT_NE(result.block_of[0], result.block_of[3]);
  // Initial mass is summed per block; rewards are constant per block.
  double mass = 0.0;
  for (const double p : result.lumped.initial) mass += p;
  EXPECT_NEAR(mass, 1.0, 1e-15);
  for (index_t s = 0; s < result.original_states; ++s) {
    EXPECT_EQ(model.rewards[s],
              result.lumped.rewards[result.block_of[s]]);
  }
}

TEST(Lumping, AsymmetricChainDoesNotShrink) {
  // Same structure but distinguishable components (different rates):
  // nothing is ordinarily lumpable.
  const ModelFile model = parse(
      "states 4\n"
      "transition 0 1 0.1\n"
      "transition 0 2 0.2\n"
      "transition 1 0 1\n"
      "transition 1 3 0.2\n"
      "transition 2 0 2\n"
      "transition 2 3 0.1\n"
      "transition 3 1 2\n"
      "transition 3 2 1\n"
      "reward 0 1\n"
      "reward 1 1\n"
      "reward 2 1\n"
      "initial 0 1\n");
  const LumpResult result = lump_model(model);
  EXPECT_EQ(result.lumped_states(), 4);
}

TEST(Lumping, RegenerativeStateMapsToItsBlock) {
  ModelFile model = two_component_model();
  model.regenerative = 3;
  const LumpResult result = lump_model(model);
  EXPECT_EQ(result.lumped.regenerative, result.block_of[3]);
}

TEST(Lumping, Deterministic) {
  const ModelFile model =
      parse("generator k_of_n n=3 k=2 groups=3 lambda=0.01 mu=1\n");
  const LumpResult a = lump_model(model);
  const LumpResult b = lump_model(model);
  EXPECT_EQ(a.block_of, b.block_of);
  ASSERT_EQ(a.lumped.chain.num_states(), b.lumped.chain.num_states());
  const auto av = a.lumped.chain.rates().values();
  const auto bv = b.lumped.chain.rates().values();
  ASSERT_EQ(av.size(), bv.size());
  for (std::size_t i = 0; i < av.size(); ++i) {
    EXPECT_EQ(av[i], bv[i]);  // bitwise, not approximately
  }
}

/// The load-bearing property: solving on the lumped chain is
/// indistinguishable (within solver tolerance) from solving on the
/// original, for every solver and both measures.
void expect_invariant(const ModelFile& original, double tolerance) {
  const LumpResult lumped = lump_model(original);
  ASSERT_LT(lumped.lumped_states(), original.chain.num_states());
  const std::vector<double> grid{0.5, 5.0, 50.0};
  for (const std::string name : {"sr", "rsd", "rr", "rrl", "krylov"}) {
    SolverConfig config;
    // Solve well below the comparison tolerance: RRL's inversion error is
    // heuristic near its bound (see test_rrl_solver.cpp), so the solver
    // budget must not be the quantity under test here — the lumping is.
    config.epsilon = 1e-12;
    config.regenerative = original.regenerative;
    const auto full = make_solver(name, original.chain, original.rewards,
                                  original.initial, config);
    SolverConfig lumped_config = config;
    lumped_config.regenerative = lumped.lumped.regenerative;
    const auto small =
        make_solver(name, lumped.lumped.chain, lumped.lumped.rewards,
                    lumped.lumped.initial, lumped_config);
    for (const MeasureKind measure :
         {MeasureKind::kTrr, MeasureKind::kMrr}) {
      const SolveReport a = full->solve_grid({measure, grid, -1.0});
      const SolveReport b = small->solve_grid({measure, grid, -1.0});
      ASSERT_EQ(a.points.size(), b.points.size());
      for (std::size_t i = 0; i < a.points.size(); ++i) {
        EXPECT_NEAR(a.points[i].value, b.points[i].value, tolerance)
            << name << " " << measure_name(measure) << " t=" << grid[i];
      }
    }
  }
}

TEST(Lumping, TransientMeasuresInvariantKOfN) {
  // 64 ordered tuples -> 20 multisets.
  expect_invariant(
      parse("generator k_of_n n=3 k=2 groups=3 lambda=0.01 mu=1\n"), 2e-10);
}

TEST(Lumping, TransientMeasuresInvariantTieredRepair) {
  // scale=1 makes the tiers exchangeable up to the reward/repair
  // structure; the pass finds whatever symmetry survives.
  expect_invariant(
      parse("generator tiered_repair tiers=3 n=2 k=1 lambda=0.1 mu=1 "
            "scale=1 repairmen=6\n"),
      2e-10);
}

// ---- Reference: the plain fixpoint refinement -----------------------
//
// Every round re-signs every state: P_{i+1} = classes of (own block,
// per-block sums of the rates into every other block, each sum taken over
// that block's rates in ascending order). Blocks are numbered by first
// occurrence. lump_model must reproduce its partition, and the chain
// assembled from it, bit for bit.

struct OracleSignature {
  index_t own = 0;
  std::vector<std::pair<index_t, double>> rates;

  bool operator==(const OracleSignature& other) const {
    return own == other.own && rates == other.rates;
  }
};

struct OracleSignatureHash {
  std::size_t operator()(const OracleSignature& s) const {
    std::uint64_t h = kFnv1aOffset;
    fnv1a_mix(h, &s.own, sizeof(s.own));
    for (const auto& [block, rate] : s.rates) {
      fnv1a_mix(h, &block, sizeof(block));
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(rate);
      fnv1a_mix(h, &bits, sizeof(bits));
    }
    return static_cast<std::size_t>(h);
  }
};

void oracle_aggregate(std::vector<std::pair<index_t, double>>& pairs,
                      index_t own,
                      std::vector<std::pair<index_t, double>>& out) {
  std::sort(pairs.begin(), pairs.end());
  out.clear();
  for (std::size_t i = 0; i < pairs.size();) {
    const index_t block = pairs[i].first;
    double sum = 0.0;
    for (; i < pairs.size() && pairs[i].first == block; ++i) {
      sum += pairs[i].second;
    }
    if (block != own) out.emplace_back(block, sum);
  }
}

struct OracleLump {
  LumpResult result;
  int rounds = 0;  ///< refinement rounds, the final unchanged one included
};

void oracle_row(const CsrMatrix& rates, const std::vector<index_t>& block_of,
                index_t s, std::vector<std::pair<index_t, double>>& pairs) {
  const auto row_ptr = rates.row_ptr();
  pairs.clear();
  for (std::int64_t k = row_ptr[static_cast<std::size_t>(s)];
       k < row_ptr[static_cast<std::size_t>(s) + 1]; ++k) {
    pairs.emplace_back(
        block_of[static_cast<std::size_t>(
            rates.col_idx()[static_cast<std::size_t>(k)])],
        rates.values()[static_cast<std::size_t>(k)]);
  }
}

OracleLump oracle_lump(const ModelFile& model) {
  const index_t n = model.chain.num_states();
  const CsrMatrix& rates = model.chain.rates();
  OracleLump oracle;
  LumpResult& result = oracle.result;
  result.original_states = n;
  result.block_of.assign(static_cast<std::size_t>(n), 0);

  index_t num_blocks = 0;
  {
    std::unordered_map<std::uint64_t, index_t> by_reward;
    for (index_t s = 0; s < n; ++s) {
      const std::uint64_t key = std::bit_cast<std::uint64_t>(
          model.rewards[static_cast<std::size_t>(s)]);
      const auto [it, inserted] = by_reward.emplace(key, num_blocks);
      if (inserted) ++num_blocks;
      result.block_of[static_cast<std::size_t>(s)] = it->second;
    }
  }

  std::vector<index_t> next_block(static_cast<std::size_t>(n));
  std::vector<std::pair<index_t, double>> scratch;
  for (;;) {
    ++oracle.rounds;
    std::unordered_map<OracleSignature, index_t, OracleSignatureHash>
        by_signature;
    index_t next_count = 0;
    for (index_t s = 0; s < n; ++s) {
      OracleSignature sig;
      sig.own = result.block_of[static_cast<std::size_t>(s)];
      oracle_row(rates, result.block_of, s, scratch);
      oracle_aggregate(scratch, sig.own, sig.rates);
      const auto [it, inserted] =
          by_signature.emplace(std::move(sig), next_count);
      if (inserted) ++next_count;
      next_block[static_cast<std::size_t>(s)] = it->second;
    }
    if (next_count == num_blocks) break;
    result.block_of.swap(next_block);
    num_blocks = next_count;
  }

  std::vector<index_t> representative(static_cast<std::size_t>(num_blocks),
                                      -1);
  for (index_t s = 0; s < n; ++s) {
    index_t& rep = representative[static_cast<std::size_t>(
        result.block_of[static_cast<std::size_t>(s)])];
    if (rep < 0) rep = s;
  }
  std::vector<Triplet> lumped_rates;
  std::vector<std::pair<index_t, double>> out;
  for (index_t b = 0; b < num_blocks; ++b) {
    oracle_row(rates, result.block_of,
               representative[static_cast<std::size_t>(b)], scratch);
    oracle_aggregate(scratch, b, out);
    for (const auto& [target, sum] : out) {
      lumped_rates.push_back({b, target, sum});
    }
  }
  ModelFile& lumped = result.lumped;
  lumped.chain = Ctmc::from_transitions(num_blocks, std::move(lumped_rates));
  for (index_t b = 0; b < num_blocks; ++b) {
    lumped.rewards.push_back(model.rewards[static_cast<std::size_t>(
        representative[static_cast<std::size_t>(b)])]);
  }
  lumped.initial.assign(static_cast<std::size_t>(num_blocks), 0.0);
  for (index_t s = 0; s < n; ++s) {
    lumped.initial[static_cast<std::size_t>(
        result.block_of[static_cast<std::size_t>(s)])] +=
        model.initial[static_cast<std::size_t>(s)];
  }
  if (model.regenerative >= 0) {
    lumped.regenerative =
        result.block_of[static_cast<std::size_t>(model.regenerative)];
  }
  lumped.pre_lump_states = n;
  return oracle;
}

template <typename T>
std::vector<std::uint64_t> bits_of(std::span<const T> values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (const T v : values) {
    if constexpr (std::is_same_v<T, double>) {
      out.push_back(std::bit_cast<std::uint64_t>(v));
    } else {
      out.push_back(static_cast<std::uint64_t>(v));
    }
  }
  return out;
}

/// lump_model against the oracle: same partition, same lumped chain, bit
/// for bit. Returns the oracle's round count.
int expect_matches_oracle(const ModelFile& model, const std::string& what) {
  const OracleLump want = oracle_lump(model);
  const LumpResult got = lump_model(model);
  EXPECT_EQ(got.original_states, want.result.original_states) << what;
  EXPECT_EQ(got.block_of, want.result.block_of) << what;
  const ModelFile& a = got.lumped;
  const ModelFile& b = want.result.lumped;
  EXPECT_EQ(a.chain.num_states(), b.chain.num_states()) << what;
  const CsrMatrix& ar = a.chain.rates();
  const CsrMatrix& br = b.chain.rates();
  EXPECT_EQ(bits_of(ar.row_ptr()), bits_of(br.row_ptr())) << what;
  EXPECT_EQ(bits_of(ar.col_idx()), bits_of(br.col_idx())) << what;
  EXPECT_EQ(bits_of(ar.values()), bits_of(br.values())) << what;
  EXPECT_EQ(bits_of(std::span<const double>(a.rewards)),
            bits_of(std::span<const double>(b.rewards)))
      << what;
  EXPECT_EQ(bits_of(std::span<const double>(a.initial)),
            bits_of(std::span<const double>(b.initial)))
      << what;
  EXPECT_EQ(a.regenerative, b.regenerative) << what;
  EXPECT_EQ(a.pre_lump_states, b.pre_lump_states) << what;
  return want.rounds;
}

ModelFile make_model(index_t n, std::vector<Triplet> rates,
                     std::vector<double> rewards, std::mt19937_64& rng) {
  ModelFile model;
  model.chain = Ctmc::from_transitions(n, std::move(rates));
  model.rewards = std::move(rewards);
  model.initial.assign(static_cast<std::size_t>(n), 0.0);
  std::uniform_int_distribution<index_t> state(0, n - 1);
  model.initial[static_cast<std::size_t>(state(rng))] += 0.25;
  model.initial[static_cast<std::size_t>(state(rng))] += 0.75;
  model.regenerative = state(rng);
  return model;
}

// Rates whose sums depend on the order they are added in:
// 0.1 + 0.2 != 0.3, and (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1.
constexpr double kRates[] = {0.1, 0.2, 0.3, 0.5, 1.0};

/// A chain with no built-in symmetry: each state gets a few random
/// successors with rates from kRates; some states are absorbing.
ModelFile random_chain(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const index_t n = std::uniform_int_distribution<index_t>(2, 60)(rng);
  const int levels = std::uniform_int_distribution<int>(1, 4)(rng);
  std::uniform_int_distribution<index_t> state(0, n - 1);
  std::uniform_int_distribution<int> rate(0, 4);
  std::uniform_int_distribution<int> degree(0, 5);
  std::uniform_int_distribution<int> level(0, levels - 1);
  std::vector<Triplet> rates;
  std::vector<double> rewards;
  for (index_t s = 0; s < n; ++s) {
    rewards.push_back(static_cast<double>(level(rng)));
    const int d = degree(rng);
    std::vector<index_t> targets;
    for (int e = 0; e < d; ++e) {
      const index_t t = state(rng);
      if (t == s || std::count(targets.begin(), targets.end(), t) != 0) {
        continue;
      }
      targets.push_back(t);
      rates.push_back({s, t, kRates[rate(rng)]});
    }
  }
  return make_model(n, std::move(rates), std::move(rewards), rng);
}

/// A chain built to lump: `copies` copies of each state of a random base
/// chain, a base edge i -> j realized from every copy of i as rates into
/// distinct copies of j. Each copy draws its rate multiset from
/// {0.3}, {0.1, 0.2}, {0.1, 0.1, 0.1}, {0.2, 0.1, 0.3}: the second and third
/// sum to the same double, the first does not, so lumping hinges on exact
/// sorted sums. States are then relabeled by a random permutation.
ModelFile replicated_chain(std::uint64_t seed) {
  static const std::vector<std::vector<double>> kPatterns = {
      {0.3}, {0.1, 0.2}, {0.1, 0.1, 0.1}, {0.2, 0.1, 0.3}};
  std::mt19937_64 rng(seed);
  const index_t base = std::uniform_int_distribution<index_t>(2, 12)(rng);
  const index_t copies = std::uniform_int_distribution<index_t>(4, 7)(rng);
  const index_t n = base * copies;
  const int levels = std::uniform_int_distribution<int>(1, 3)(rng);
  std::vector<index_t> relabel(static_cast<std::size_t>(n));
  for (index_t s = 0; s < n; ++s) relabel[static_cast<std::size_t>(s)] = s;
  std::shuffle(relabel.begin(), relabel.end(), rng);
  auto id = [&](index_t i, index_t c) {
    return relabel[static_cast<std::size_t>(i * copies + c)];
  };
  std::uniform_int_distribution<index_t> base_state(0, base - 1);
  std::uniform_int_distribution<int> level(0, levels - 1);
  // Mostly the two equal-sum patterns, so blocks survive; sometimes the
  // others, so they split.
  std::discrete_distribution<int> pattern({1, 4, 4, 1});
  std::vector<Triplet> rates;
  std::vector<double> rewards(static_cast<std::size_t>(n));
  for (index_t i = 0; i < base; ++i) {
    const double r = static_cast<double>(level(rng));
    for (index_t c = 0; c < copies; ++c) {
      rewards[static_cast<std::size_t>(id(i, c))] = r;
    }
    // Base state 0 is absorbing.
    const int out_edges =
        i == 0 ? 0 : std::uniform_int_distribution<int>(1, 3)(rng);
    std::vector<index_t> done;
    for (int e = 0; e < out_edges; ++e) {
      const index_t j = base_state(rng);
      if (std::count(done.begin(), done.end(), j) != 0) continue;
      done.push_back(j);
      for (index_t c = 0; c < copies; ++c) {
        const auto& rates_of = kPatterns[static_cast<std::size_t>(
            pattern(rng))];
        std::vector<index_t> targets;
        for (index_t t = 0; t < copies; ++t) {
          if (!(j == i && t == c)) targets.push_back(t);
        }
        std::shuffle(targets.begin(), targets.end(), rng);
        for (std::size_t k = 0; k < rates_of.size(); ++k) {
          rates.push_back({id(i, c), id(j, targets[k]), rates_of[k]});
        }
      }
    }
  }
  return make_model(n, std::move(rates), std::move(rewards), rng);
}

TEST(LumpingOracle, RandomChains) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    expect_matches_oracle(random_chain(seed),
                          "random_chain seed " + std::to_string(seed));
  }
}

TEST(LumpingOracle, ReplicatedChains) {
  int reduced = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ModelFile model = replicated_chain(seed);
    expect_matches_oracle(model,
                          "replicated_chain seed " + std::to_string(seed));
    if (lump_model(model).lumped_states() < model.chain.num_states()) {
      ++reduced;
    }
  }
  // The family must actually exercise merging, not only splitting.
  EXPECT_GT(reduced, 100);
}

TEST(LumpingOracle, SingleStateAndAbsorbing) {
  std::mt19937_64 rng(7);
  expect_matches_oracle(make_model(1, {}, {1.0}, rng), "one state");
  expect_matches_oracle(make_model(3, {}, {0.0, 0.0, 1.0}, rng),
                        "three absorbing states");
  expect_matches_oracle(
      make_model(4, {{0, 1, 0.1}, {0, 2, 0.1}, {3, 1, 0.2}},
                 {1.0, 0.0, 0.0, 1.0}, rng),
      "two absorbing targets");
}

TEST(LumpingOracle, HighDegreeRows) {
  // A hub with a rate into every other state: its signature spans more
  // blocks than the short-row path handles.
  std::mt19937_64 rng(11);
  const index_t n = 80;
  std::vector<Triplet> rates;
  std::vector<double> rewards;
  for (index_t s = 1; s < n; ++s) {
    rates.push_back({0, s, kRates[s % 5]});
    rates.push_back({s, 0, kRates[(s * 7) % 5]});
    if (s + 1 < n) rates.push_back({s, s + 1, kRates[(s * 3) % 5]});
    rewards.push_back(static_cast<double>(s % 3));
  }
  rewards.push_back(1.0);
  expect_matches_oracle(make_model(n, std::move(rates), std::move(rewards), rng),
                        "hub");
}

TEST(LumpingOracle, GeneratorFamilies) {
  for (const std::string spec : {
           "k_of_n n=3 k=2 groups=3 lambda=0.01 mu=1",
           "k_of_n n=4 k=3 groups=4 lambda=0.1 mu=0.3",
           "tiered_repair tiers=3 n=2 k=1 lambda=0.1 mu=1 scale=1 "
           "repairmen=6",
           "tiered_repair tiers=3 n=3 k=2 lambda=0.1 mu=0.2 scale=2 "
           "repairmen=2",
           "queue capacity=20 servers=3 arrival=0.3 service=0.1 fail=0.1 "
           "repair=0.2",
       }) {
    expect_matches_oracle(parse("generator " + spec + "\n"), spec);
  }
}

TEST(LumpingOracle, SignsFewerStatesThanTheFixpoint) {
  const ModelFile model =
      parse("generator k_of_n n=9 k=8 groups=3 lambda=1e-3 mu=1\n");
  const int rounds = expect_matches_oracle(model, "k_of_n n=9 k=8 groups=3");
  metrics::Counter& signatures =
      metrics::counter("rrl_lump_signatures_total");
  const std::uint64_t before = signatures.value();
  const LumpResult result = lump_model(model);
  const std::uint64_t signed_states = signatures.value() - before;
  EXPECT_EQ(result.lumped_states(), 220);  // C(12, 3) multisets
  EXPECT_GT(signed_states, 0u);
  EXPECT_LT(signed_states, static_cast<std::uint64_t>(rounds) *
                               static_cast<std::uint64_t>(
                                   model.chain.num_states()));
}

TEST(LumpingOracle, ExpandAndLumpSpans) {
  trace::reset();
  trace::enable();
  (void)parse("generator k_of_n n=3 k=2 groups=3 lambda=0.01 mu=1 lump=1\n");
  trace::disable();
  std::ostringstream out;
  EXPECT_EQ(trace::write_chrome_trace(out), 2u);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"generator.expand\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"lump\""), std::string::npos) << json;
  trace::reset();
}

}  // namespace
}  // namespace rrl
