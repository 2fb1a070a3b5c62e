// SchemaCache behavior at the eviction boundaries (capacity 0, 1,
// exactly-full, re-insert after evict), the hit/miss/seed accounting, and
// the seed/snapshot round trip that carries compiled schemas across
// processes (core of the artifact warm-start path). Then the solvers'
// SchemaStore: laziness (an imported solver never steps a chain) and
// concurrent requests on one shared series.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/compiled_artifact.hpp"
#include "core/rr_solver.hpp"
#include "core/rrl_solver.hpp"
#include "core/schema_cache.hpp"
#include "markov/ctmc.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace rrl {
namespace {

/// Synthetic builder with a call counter: LRU behavior is observable as
/// "how often was the expensive compile invoked for this key".
struct CountingBuilder {
  int builds = 0;
  RegenerativeSchema operator()() {
    ++builds;
    RegenerativeSchema schema;
    schema.lambda = static_cast<double>(builds);  // marks the build
    return schema;
  }
};

TEST(SchemaCache, CapacityZeroNeverRetains) {
  const SchemaCache cache(0);
  CountingBuilder builder;
  const auto build = [&] { return builder(); };
  (void)cache.get(1.0, 1e-8, false, false, build);
  (void)cache.get(1.0, 1e-8, false, false, build);
  EXPECT_EQ(builder.builds, 2);  // same key, both computed
  EXPECT_EQ(cache.size(), 0u);
  const SchemaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);

  // Seeding a degenerate cache is a no-op.
  cache.seed(1.0, 1e-8, RegenerativeSchema{}, false, false);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().seeded, 0u);
}

TEST(SchemaCache, CapacityOneEvictsOnSecondKey) {
  const SchemaCache cache(1);
  CountingBuilder builder;
  const auto build = [&] { return builder(); };

  (void)cache.get(1.0, 1e-8, false, false, build);  // miss, retained
  (void)cache.get(1.0, 1e-8, false, false, build);  // hit
  EXPECT_EQ(builder.builds, 1);
  EXPECT_EQ(cache.size(), 1u);

  (void)cache.get(2.0, 1e-8, false, false, build);  // miss, evicts (1.0)
  EXPECT_EQ(builder.builds, 2);
  EXPECT_EQ(cache.size(), 1u);

  (void)cache.get(1.0, 1e-8, false, false, build);  // re-insert after evict
  EXPECT_EQ(builder.builds, 3);
  (void)cache.get(1.0, 1e-8, false, false, build);  // and it is retained
  EXPECT_EQ(builder.builds, 3);

  const SchemaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(SchemaCache, ExactlyFullStaysResident) {
  constexpr std::size_t kCapacity = 3;
  const SchemaCache cache(kCapacity);
  CountingBuilder builder;
  const auto build = [&] { return builder(); };

  for (int k = 0; k < static_cast<int>(kCapacity); ++k) {
    (void)cache.get(static_cast<double>(k), 1e-8, false, false, build);
  }
  EXPECT_EQ(builder.builds, 3);
  EXPECT_EQ(cache.size(), kCapacity);

  // At exact capacity every key still hits — nothing was evicted early.
  for (int k = 0; k < static_cast<int>(kCapacity); ++k) {
    (void)cache.get(static_cast<double>(k), 1e-8, false, false, build);
  }
  EXPECT_EQ(builder.builds, 3);
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST(SchemaCache, EvictsLeastRecentlyUsed) {
  const SchemaCache cache(2);
  CountingBuilder builder;
  const auto build = [&] { return builder(); };

  (void)cache.get(1.0, 1e-8, false, false, build);  // A
  (void)cache.get(2.0, 1e-8, false, false, build);  // B
  (void)cache.get(1.0, 1e-8, false, false, build);  // touch A: B is LRU
  (void)cache.get(3.0, 1e-8, false, false, build);  // C evicts B, not A
  EXPECT_EQ(builder.builds, 3);

  (void)cache.get(1.0, 1e-8, false, false, build);  // A still resident
  EXPECT_EQ(builder.builds, 3);
  (void)cache.get(2.0, 1e-8, false, false, build);  // B was evicted
  EXPECT_EQ(builder.builds, 4);
}

TEST(SchemaCache, SeedPopulatesWithoutBuilding) {
  const SchemaCache cache(4);
  RegenerativeSchema schema;
  schema.lambda = 42.0;
  schema.t = 10.0;
  cache.seed(10.0, 1e-8, schema, false, false);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().seeded, 1u);

  // A get for the seeded key must not invoke the builder.
  CountingBuilder builder;
  const auto compiled =
      cache.get(10.0, 1e-8, false, false, [&] { return builder(); });
  EXPECT_EQ(builder.builds, 0);
  EXPECT_EQ(compiled->schema.lambda, 42.0);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Seeding an existing key keeps the resident entry (both are identical
  // in real use; the marker shows which one survived).
  RegenerativeSchema other = schema;
  other.lambda = 7.0;
  cache.seed(10.0, 1e-8, other, false, false);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().seeded, 1u);  // not counted again
  const auto again =
      cache.get(10.0, 1e-8, false, false, [&] { return builder(); });
  EXPECT_EQ(again->schema.lambda, 42.0);
}

TEST(SchemaCache, SnapshotRoundTripsThroughSeed) {
  // Build a REAL schema on a small irreducible chain so the derived
  // objects (V-model, transform) can be materialized from the seeded copy.
  std::vector<Triplet> rates = {{0, 1, 2.0}, {1, 0, 5.0}, {1, 2, 1.0},
                                {2, 0, 4.0}};
  const Ctmc chain = Ctmc::from_transitions(3, std::move(rates));
  const std::vector<double> rewards = {1.0, 0.5, 0.0};
  const std::vector<double> initial = {1.0, 0.0, 0.0};
  const RegenerativeSchema schema = compute_regenerative_schema(
      chain, rewards, initial, 0, 50.0, RegenerativeOptions{1e-10, 1.0, -1});

  const SchemaCache source(4);
  source.seed(50.0, 1e-10, schema, /*want_transform=*/true,
              /*want_vmodel=*/true);
  const std::vector<SchemaCache::Entry> entries = source.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].t, 50.0);
  EXPECT_EQ(entries[0].eps, 1e-10);
  ASSERT_NE(entries[0].compiled, nullptr);
  EXPECT_NE(entries[0].compiled->transform, nullptr);
  EXPECT_NE(entries[0].compiled->vmodel, nullptr);

  // Seed a second cache from the snapshot (the import path) and verify
  // the schema series survive bit-exactly.
  const SchemaCache target(4);
  target.seed(entries[0].t, entries[0].eps, entries[0].compiled->schema,
              true, true);
  CountingBuilder builder;
  const auto compiled =
      target.get(50.0, 1e-10, true, true, [&] { return builder(); });
  EXPECT_EQ(builder.builds, 0);
  EXPECT_EQ(compiled->schema.main.a, schema.main.a);
  EXPECT_EQ(compiled->schema.main.c, schema.main.c);
  EXPECT_EQ(compiled->schema.lambda, schema.lambda);
  ASSERT_NE(compiled->vmodel, nullptr);
  EXPECT_EQ(compiled->vmodel->chain.num_states(),
            entries[0].compiled->vmodel->chain.num_states());
}

// ---------------------------------------------------------------------------
// SchemaStore inside the RR/RRL solvers.

const Ctmc& store_chain() {
  static const Ctmc chain = Ctmc::from_transitions(
      3, {{0, 1, 2e-3}, {1, 0, 1.0}, {1, 2, 1e-3}, {2, 0, 0.5}});
  return chain;
}
const std::vector<double> kStoreRewards = {0.0, 0.0, 1.0};
// Mass off r, so both the main and the primed chain are stepped.
const std::vector<double> kStoreInitial = {0.6, 0.3, 0.1};

bool same_value(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

std::uint64_t schema_steps() {
  return metrics::counter("rrl_schema_steps_total").value();
}

template <typename Solver>
void expect_imported_solver_never_steps() {
  const Solver donor(store_chain(), kStoreRewards, kStoreInitial, 0);
  const double ts[] = {10.0, 1e3, 1e4};
  for (const double t : ts) (void)donor.solve_point(t, MeasureKind::kTrr);
  CompiledArtifact artifact;
  donor.export_compiled(artifact);
  ASSERT_EQ(artifact.schemas.size(), 3u);

  Solver warm(store_chain(), kStoreRewards, kStoreInitial, 0);
  warm.import_compiled(artifact);
  const std::uint64_t before = schema_steps();
  for (const double t : ts) {
    const TransientValue got = warm.solve_point(t, MeasureKind::kTrr);
    const TransientValue want = donor.solve_point(t, MeasureKind::kTrr);
    EXPECT_TRUE(same_value(got.value, want.value)) << "t=" << t;
    EXPECT_EQ(got.stats.dtmc_steps, want.stats.dtmc_steps);
  }
  EXPECT_EQ(schema_steps() - before, 0u);
  EXPECT_EQ(warm.schema_cache_stats().misses, 0u);
  EXPECT_EQ(warm.schema_cache_stats().seeded, 3u);
}

TEST(SchemaStore, ImportedRrSolverTakesNoSchemaSteps) {
  expect_imported_solver_never_steps<RegenerativeRandomization>();
}

TEST(SchemaStore, ImportedRrlSolverTakesNoSchemaSteps) {
  expect_imported_solver_never_steps<RegenerativeRandomizationLaplace>();
}

template <typename Solver>
void expect_concurrent_requests_match_fresh() {
  // Pairs of different (t, eps) requested at once from two pool threads;
  // the later pairs extend the series the earlier ones grew.
  struct Request {
    double t;
    double eps;
  };
  const Request pairs[][2] = {{{10.0, 1e-9}, {1e3, 1e-12}},
                              {{1e4, 1e-10}, {100.0, 1e-12}},
                              {{1e5, 1e-12}, {1e5, 1e-8}}};
  ThreadPool pool(2);
  const Solver shared(store_chain(), kStoreRewards, kStoreInitial, 0);
  for (const auto& pair : pairs) {
    TransientValue got[2];
    pool.parallel_for(2, [&](std::size_t i) {
      got[i] = shared.solve_point(pair[i].t, MeasureKind::kTrr, pair[i].eps);
    });
    for (std::size_t i = 0; i < 2; ++i) {
      const Solver fresh(store_chain(), kStoreRewards, kStoreInitial, 0);
      const TransientValue want =
          fresh.solve_point(pair[i].t, MeasureKind::kTrr, pair[i].eps);
      EXPECT_TRUE(same_value(got[i].value, want.value))
          << "t=" << pair[i].t << " eps=" << pair[i].eps;
      EXPECT_EQ(got[i].stats.dtmc_steps, want.stats.dtmc_steps);
    }
  }
}

TEST(SchemaStore, ConcurrentRrRequestsMatchFreshSolvers) {
  expect_concurrent_requests_match_fresh<RegenerativeRandomization>();
}

TEST(SchemaStore, ConcurrentRrlRequestsMatchFreshSolvers) {
  expect_concurrent_requests_match_fresh<RegenerativeRandomizationLaplace>();
}

}  // namespace
}  // namespace rrl
