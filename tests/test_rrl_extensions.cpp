// Tests of the RRL extensions: rigorous bounds (the flavour of the paper's
// reference [2]), the batch multi-time-point API, and the grid loop's
// thread budget (the per-point inversions run on a lent pool or serially,
// with identical bits and exceptions surfacing as the API promises).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/rrl_solver.hpp"
#include "core/standard_randomization.hpp"
#include "models/raid5.hpp"
#include "models/simple.hpp"
#include "sparse/workspace.hpp"
#include "support/contracts.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace rrl {
namespace {

TEST(RrlBounds, BracketTheTrueValue) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {1.0, 100.0, 1e4}) {
    const auto b = solver.trr_bounds(t);
    const double truth = m.unavailability(t);
    EXPECT_LE(b.lower, truth) << "t=" << t;
    EXPECT_GE(b.upper, truth) << "t=" << t;
    EXPECT_LE(b.lower, b.value);
    EXPECT_GE(b.upper, b.value);
    // The bracket is tight: within a few eps of the point estimate.
    EXPECT_LE(b.upper - b.lower, 5e-12) << "t=" << t;
  }
}

TEST(RrlBounds, MrrBracket) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  for (const double t : {10.0, 1e3}) {
    const auto b = solver.mrr_bounds(t);
    const double truth = m.interval_unavailability(t);
    EXPECT_LE(b.lower, truth + 1e-15) << "t=" << t;
    EXPECT_GE(b.upper, truth - 1e-15) << "t=" << t;
  }
}

TEST(RrlBounds, RespectRewardRange) {
  const auto m = make_erlang(3, 2.0);
  std::vector<double> reward(4, 0.0);
  reward[3] = 1.0;
  std::vector<double> alpha(4, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomizationLaplace solver(m.chain, reward, alpha, 0);
  const auto b = solver.trr_bounds(50.0);  // UR(50) ~ 1
  EXPECT_GE(b.lower, 0.0);
  EXPECT_LE(b.upper, 1.0);  // clipped at r_max
}

TEST(RrlBatch, MatchesPerPointSolves) {
  const auto c = make_random_ctmc(
      {.num_states = 14, .num_absorbing = 1, .seed = 8});
  std::vector<double> rewards(14, 0.0);
  rewards[13] = 1.0;
  std::vector<double> alpha(14, 0.0);
  alpha[0] = 1.0;
  const RegenerativeRandomizationLaplace solver(c, rewards, alpha, 0);
  const std::vector<double> ts = {0.5, 2.0, 8.0, 32.0, 128.0};
  const auto batch_trr = solver.trr_many(ts);
  const auto batch_mrr = solver.mrr_many(ts);
  ASSERT_EQ(batch_trr.size(), ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(batch_trr[i].value, solver.trr(ts[i]).value, 2e-12)
        << "t=" << ts[i];
    EXPECT_NEAR(batch_mrr[i].value, solver.mrr(ts[i]).value, 2e-12)
        << "t=" << ts[i];
  }
}

TEST(RrlBatch, UnsortedSweepIsFine) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  const std::vector<double> ts = {1e4, 1.0, 100.0};
  const auto batch = solver.trr_many(ts);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(batch[i].value, m.unavailability(ts[i]), 1e-11);
  }
}

TEST(RrlBatch, SchemaIsPaidOnce) {
  // The first entry carries the shared schema step count; the rest only
  // pay inversions.
  const auto model = [] {
    Raid5Params p;
    p.groups = 3;
    return build_raid5_availability(p);
  }();
  const RegenerativeRandomizationLaplace solver(
      model.chain, model.failure_rewards(), model.initial_distribution(),
      model.initial_state);
  const std::vector<double> ts = {1.0, 10.0, 100.0, 1000.0};
  const auto batch = solver.trr_many(ts);
  EXPECT_GT(batch[0].stats.dtmc_steps, 0);
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].stats.dtmc_steps, 0);
    EXPECT_GT(batch[i].stats.abscissae, 0);
  }
  // Batch matches the per-point values on the RAID model too.
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(batch[i].value, solver.trr(ts[i]).value, 2e-12);
  }
}

TEST(RrlBatch, RejectsEmptyAndNonPositive) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  EXPECT_THROW((void)solver.trr_many({}), contract_error);
  const std::vector<double> bad = {1.0, 0.0};
  EXPECT_THROW((void)solver.trr_many(bad), contract_error);
}

TEST(RrlBounds, RejectsNonPositiveTime) {
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  EXPECT_THROW((void)solver.trr_bounds(0.0), contract_error);
}

// --- Thread budget of the grid loop -------------------------------------

RegenerativeRandomizationLaplace raid_rrl(const Raid5Model& model) {
  return RegenerativeRandomizationLaplace(
      model.chain, model.failure_rewards(), model.initial_distribution(),
      model.initial_state);
}

Raid5Model small_raid() {
  Raid5Params p;
  p.groups = 3;
  return build_raid5_availability(p);
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Values and every deterministic stat (everything but the timers) must
/// match bit for bit.
void expect_same_report(const SolveReport& a, const SolveReport& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const TransientValue& x = a.points[i];
    const TransientValue& y = b.points[i];
    EXPECT_TRUE(bitwise_equal(x.value, y.value)) << "point " << i;
    EXPECT_EQ(x.stats.abscissae, y.stats.abscissae) << "point " << i;
    EXPECT_EQ(x.stats.inversion_converged, y.stats.inversion_converged);
    EXPECT_EQ(x.stats.dtmc_steps, y.stats.dtmc_steps);
    EXPECT_TRUE(bitwise_equal(x.stats.lambda, y.stats.lambda));
    EXPECT_EQ(x.stats.capped, y.stats.capped);
  }
  EXPECT_EQ(a.total.abscissae, b.total.abscissae);
  EXPECT_EQ(a.total.dtmc_steps, b.total.dtmc_steps);
  EXPECT_EQ(a.total.inversion_converged, b.total.inversion_converged);
}

std::vector<SolveRequest> both_measures() {
  // TRR's grid includes t = 0, answered without a transform.
  return {SolveRequest::trr({0.0, 1.0, 10.0, 100.0, 1000.0, 1e4}),
          SolveRequest::mrr({1.0, 10.0, 100.0, 1000.0, 1e4})};
}

TEST(RrlThreadBudget, PooledSerialAndNestedReportsAreBitwiseEqual) {
  const auto model = small_raid();
  const auto solver = raid_rrl(model);
  ThreadPool pool(4);
  ThreadPool outer(2);
  for (const SolveRequest& request : both_measures()) {
    SolveWorkspace serial_ws;
    const SolveReport serial = solver.solve_grid(request, serial_ws);

    SolveWorkspace pooled_ws;
    pooled_ws.pool = &pool;
    const SolveReport pooled = solver.solve_grid(request, pooled_ws);
    expect_same_report(serial, pooled);

    // Called from inside another pool's parallel_for, the lent pool's
    // fan-out runs inline on each outer worker.
    std::vector<SolveReport> nested(2);
    std::vector<SolveWorkspace> nested_ws(2);
    outer.parallel_for(nested.size(), [&](std::size_t k) {
      nested_ws[k].pool = &pool;
      nested[k] = solver.solve_grid(request, nested_ws[k]);
    });
    for (const SolveReport& r : nested) expect_same_report(serial, r);
  }
}

/// Threads of this process, or -1 when /proc is not mounted.
long thread_count() {
  const std::filesystem::path tasks = "/proc/self/task";
  std::error_code ec;
  if (!std::filesystem::is_directory(tasks, ec)) return -1;
  return static_cast<long>(std::distance(
      std::filesystem::directory_iterator(tasks, ec),
      std::filesystem::directory_iterator()));
}

void solve_both_unpooled(const RegenerativeRandomizationLaplace& solver) {
  for (const SolveRequest& request : both_measures()) {
    SolveWorkspace workspace;
    (void)solver.solve_grid(request, workspace);
  }
}

TEST(RrlThreadBudget, NoLentPoolRunsNoPoolLoop) {
  const auto model = small_raid();
  const auto solver = raid_rrl(model);
  auto& loops = metrics::counter("rrl_pool_loops_total");
  const std::uint64_t loops_before = loops.value();
  solve_both_unpooled(solver);
  EXPECT_EQ(loops.value(), loops_before);
}

TEST(RrlThreadBudget, NoLentPoolStartsNoThread) {
  if (thread_count() < 0) GTEST_SKIP() << "/proc/self/task not available";
  const auto model = small_raid();
  const auto solver = raid_rrl(model);
  // Threads are counted in a fresh process (the threadsafe death-test
  // style re-executes the binary and runs only this test): a runtime that
  // keeps its workers alive after its first parallel region, as OpenMP's
  // did, would otherwise be hidden by any earlier solve in this one.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const long before = thread_count();
        solve_both_unpooled(solver);
        std::exit(thread_count() == before ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(RrlThreadBudget, LentPoolRunsOneLoopPerGrid) {
  const auto model = small_raid();
  const auto solver = raid_rrl(model);
  ThreadPool pool(4);
  SolveWorkspace workspace;
  workspace.pool = &pool;
  auto& loops = metrics::counter("rrl_pool_loops_total");
  auto& indices = metrics::counter("rrl_pool_indices_total");
  const std::uint64_t loops_before = loops.value();
  const std::uint64_t indices_before = indices.value();
  (void)solver.solve_grid(SolveRequest::trr({1.0, 10.0, 100.0}), workspace);
  EXPECT_EQ(loops.value() - loops_before, 1u);
  EXPECT_EQ(indices.value() - indices_before, 3u);
}

TEST(RrlThreadBudget, OneInvertSpanPerGridWithPointCount) {
  const auto model = small_raid();
  const auto solver = raid_rrl(model);
  ThreadPool pool(4);
  SolveWorkspace workspace;
  workspace.pool = &pool;
  trace::reset();
  trace::enable();
  (void)solver.solve_grid(
      SolveRequest::mrr({1.0, 10.0, 100.0, 1000.0, 1e4}), workspace);
  trace::disable();
  std::ostringstream out;
  (void)trace::write_chrome_trace(out);
  trace::reset();
  const std::string json = out.str();
  const std::string name = "\"name\":\"laplace.invert\"";
  const std::size_t at = json.find(name);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(json.find(name, at + 1), std::string::npos) << json;
  const std::size_t end = json.find('}', json.find("\"args\":", at));
  EXPECT_NE(json.substr(at, end - at).find("\"v\":5"), std::string::npos)
      << json;
}

TEST(RrlOptionsCheck, RejectsCrumpBoundsAtConstruction) {
  // max_terms = 1 used to reach the inversions and throw inside the grid
  // loop; it is now rejected up front, as is a non-positive hit count.
  const auto m = make_two_state(1e-3, 1.0);
  const auto build = [&](RrlOptions opt) {
    return RegenerativeRandomizationLaplace(m.chain, {0.0, 1.0}, {1.0, 0.0},
                                            0, opt);
  };
  EXPECT_THROW((void)build({.max_terms = 1}), contract_error);
  EXPECT_THROW((void)build({.max_terms = CrumpOptions{}.min_terms}),
               contract_error);
  EXPECT_THROW((void)build({.required_hits = 0}), contract_error);
  EXPECT_NO_THROW((void)build({.max_terms = CrumpOptions{}.min_terms + 1}));
}

TEST(RrlThreadBudget, FailingInversionThrowsFromEveryLoop) {
  // At eps = 1e-322 Crump's series tolerance eps/100 underflows to zero,
  // which crump_invert rejects: every TRR inversion throws inside the grid
  // loop. The error must surface as contract_error from solve_grid —
  // serially, across a lent pool and nested — never end the process.
  const auto m = make_two_state(1e-3, 1.0);
  const RegenerativeRandomizationLaplace solver(m.chain, {0.0, 1.0},
                                                {1.0, 0.0}, 0);
  SolveRequest request = SolveRequest::trr({1.0, 10.0, 100.0});
  request.epsilon = 1e-322;
  ThreadPool pool(4);
  SolveWorkspace serial_ws;
  EXPECT_THROW((void)solver.solve_grid(request, serial_ws), contract_error);
  SolveWorkspace pooled_ws;
  pooled_ws.pool = &pool;
  EXPECT_THROW((void)solver.solve_grid(request, pooled_ws), contract_error);
  ThreadPool outer(2);
  EXPECT_THROW(outer.parallel_for(2,
                                  [&](std::size_t) {
                                    SolveWorkspace ws;
                                    ws.pool = &pool;
                                    (void)solver.solve_grid(request, ws);
                                  }),
               contract_error);
}

}  // namespace
}  // namespace rrl
