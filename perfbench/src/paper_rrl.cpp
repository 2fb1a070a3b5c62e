// paper_rrl: the paper's Figs. 3-4 / Tables 1-2 cells at eps = 1e-12 on the
// RAID-5 G=40 models (Carrasco, IPPS 2000), one thread, one solve_point per
// cell on solvers built in setup.
//
// UA (availability) is solved with RRL and RSD, UR (reliability) with RRL,
// at t in {1, ..., 1e5} h; RR runs at t <= 1e3 only (one t = 1e5 RR cell
// costs minutes). Schema, transform and inversion do the work, over
// single-vector SpMV on a cache-resident chain.
#include <cmath>
#include <cstdio>
#include <map>

#include "harness.hpp"
#include "phases.hpp"
#include "rrl.hpp"

namespace bench {
namespace {

constexpr double kEps = 1e-12;
constexpr int kGroups = 40;
const std::vector<double> kTimes = {1.0, 1e1, 1e2, 1e3, 1e4, 1e5};
constexpr double kRrMaxTime = 1e3;

// The paper's Tables 1-2, G = 40 columns: RR/RRL steps, and RSD (UA) or SR
// (UR) steps.
struct PaperSteps {
  double t;
  long rr_ua, rsd_ua, rr_ur, sr_ur;
};
const PaperSteps kPaper[] = {
    {1e0, 86, 99, 86, 98},           {1e1, 554, 594, 554, 593},
    {1e2, 4187, 4823, 4186, 4849},   {1e3, 5123, 4823, 5122, 45234},
    {1e4, 5549, 4823, 5547, 442203}, {1e5, 5957, 4823, 5955, 4390141},
};

struct Model {
  std::string name;  // "raid5_G40_ua" | "raid5_G40_ur"
  rrl::Raid5Model raid;
  std::vector<double> rewards;
  std::vector<double> alpha;
  double r_max = 1.0;
};

struct Cell {
  int model = 0;  // 0 = UA, 1 = UR
  std::string solver;
  double t = 0.0;
};

// What the last pass measured per cell, for the paper-shape notes.
struct CellStats {
  double seconds = 0.0;
  double laplace_seconds = 0.0;
  std::int64_t steps = 0;
};

class PaperRrl final : public Workload {
 public:
  explicit PaperRrl(const Options& options) : options_(options) {
    for (int m = 0; m < 2; ++m) {
      for (const double t : kTimes) {
        cells_.push_back({m, "rrl", t});
        if (m == 0) cells_.push_back({m, "rsd", t});
        if (t <= kRrMaxTime) cells_.push_back({m, "rr", t});
      }
    }
    if (options_.reduced) {  // smoke: one cell per solver and model
      std::vector<Cell> few;
      for (const Cell& c : cells_) {
        if (c.t == 10.0) few.push_back(c);
      }
      cells_ = few;
    }
  }

  void setup() override {
    const CpuRotation rotation;
    solvers_.clear();
    models_.clear();
    rrl::Raid5Params params;  // defaults are the paper's values
    params.groups = kGroups;
    {
      const Scope s("markov.generate");
      models_.push_back(make_model("raid5_G40_ua",
                                   rrl::build_raid5_availability(params)));
      models_.push_back(make_model("raid5_G40_ur",
                                   rrl::build_raid5_reliability(params)));
      layers().add("markov.generate_s", s.seconds());
    }
    const Scope s("core.compile");
    for (const Cell& c : cells_) {
      const std::string id = solver_id(c);
      if (solvers_.count(id) != 0) continue;
      const Model& m = *models_[static_cast<std::size_t>(c.model)];
      rrl::SolverConfig config;
      config.epsilon = kEps;
      config.regenerative = m.raid.initial_state;
      solvers_[id] = rrl::make_solver(c.solver, m.raid.chain, m.rewards,
                                      m.alpha, config);
    }
    layers().add("core.compile_s", s.seconds());
  }

  PassOutput pass(Gate& gate, bool traced) override {
    std::map<std::string, std::string> rows;  // canonical report order
    const CpuRotation rotation;
    for (const std::size_t i : permutation(cells_.size(), options_.seed)) {
      const Cell& c = cells_[i];
      const Model& m = *models_[static_cast<std::size_t>(c.model)];
      const rrl::TransientSolver& solver = *solvers_.at(solver_id(c));
      const Scope cell("scenario");
      rrl::TransientValue v;
      if (traced && c.solver == "rrl") {
        v = rrl_by_phases(m.raid.chain, m.rewards, m.alpha,
                          m.raid.initial_state, c.t, rrl::MeasureKind::kTrr,
                          kEps);
      } else if (traced && c.solver == "rr") {
        v = rr_by_phases(solver, c.t, rrl::MeasureKind::kTrr, kEps);
      } else {
        const Scope pass_scope(c.solver == "rsd" ? "core.rsd_pass"
                                                 : "core.solve_point");
        v = solver.solve_point(c.t, rrl::MeasureKind::kTrr);
      }
      const double seconds = cell.seconds();
      last_[solver_id(c) + "@" + fmt17(c.t)] =
          CellStats{seconds, v.stats.laplace_seconds, v.stats.dtmc_steps};
      Point p;
      p.key = PointKey{m.name, "trr", c.solver, kEps, c.t};
      p.value = v.value;
      p.r_max = m.r_max;
      p.capped = v.stats.capped;
      p.converged = v.stats.inversion_converged;
      gate.check({p});
      rows[p.key.str()] = p.key.str() + "," + fmt17(v.value) + "," +
                          std::to_string(v.stats.dtmc_steps) + "\n";
    }
    PassOutput out;
    for (const auto& [key, row] : rows) out.report += row;
    return out;
  }

  // t = 10 only: UA rrl, rsd, rr and UR rrl, rr.
  [[nodiscard]] std::size_t reduced_points() const override { return 5; }

  void probe_layers() override {
    const rrl::RandomizedDtmc dtmc(models_.front()->raid.chain);
    probe_spmv(dtmc.transition_transposed());
  }

  std::map<std::string, Reference> references(
      const std::map<std::string, Point>& points) override {
    // One SR grid pass per model at eps 1e-13 over every recorded time.
    std::map<std::string, Reference> refs;
    for (const auto& model : models_) {
      std::vector<double> ts;
      for (const auto& [key, p] : points) {
        if (p.key.model == model->name) ts.push_back(p.key.t);
      }
      if (ts.empty()) continue;
      rrl::SolverConfig config;
      config.epsilon = 1e-13;
      const auto sr = rrl::make_solver("sr", model->raid.chain,
                                       model->rewards, model->alpha, config);
      const auto report = sr->solve_grid(rrl::SolveRequest::trr(ts));
      std::map<double, double> by_t;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        by_t[ts[i]] = report.points[i].value;
      }
      for (const auto& [key, p] : points) {
        if (p.key.model == model->name) {
          refs[key] = Reference{p.value, by_t.at(p.key.t), "sr"};
        }
      }
    }
    return refs;
  }

  void print_notes() const override {
    const auto stat = [&](const char* id, double t) {
      const auto it = last_.find(std::string(id) + "@" + fmt17(t));
      return it == last_.end() ? CellStats{} : it->second;
    };
    const CellStats rrl3 = stat("ua/rrl", 1e3);
    const CellStats rsd3 = stat("ua/rsd", 1e3);
    const CellStats rr3 = stat("ua/rr", 1e3);
    if (rrl3.seconds > 0.0) {
      std::printf(
          "paper shape: UA t=1e3 time ratio RRL:RSD:RR = 1 : %.3g : %.3g "
          "(paper: RRL ~ RSD << RR at large t)\n",
          rsd3.seconds / rrl3.seconds, rr3.seconds / rrl3.seconds);
    }
    for (const char* id : {"ua/rrl", "ur/rrl"}) {
      double lap = 0.0;
      double total = 0.0;
      for (const double t : kTimes) {
        lap += stat(id, t).laplace_seconds;
        total += stat(id, t).seconds;
      }
      if (total > 0.0) {
        std::printf("paper shape: %s laplace share %.3g%% of RRL time "
                    "(paper: a few %%)\n", id, 100.0 * lap / total);
      }
    }
    std::printf("paper shape: steps  t | RR/RRL UA [paper] | RSD UA [paper]"
                " | RR/RRL UR [paper]\n");
    for (const PaperSteps& row : kPaper) {
      const CellStats ua = stat("ua/rrl", row.t);
      if (ua.steps == 0) continue;
      std::printf("paper shape: %6g | %6lld [%5ld] | %6lld [%5ld] | "
                  "%6lld [%5ld]\n",
                  row.t, static_cast<long long>(ua.steps), row.rr_ua,
                  static_cast<long long>(stat("ua/rsd", row.t).steps),
                  row.rsd_ua,
                  static_cast<long long>(stat("ur/rrl", row.t).steps),
                  row.rr_ur);
    }
  }

 private:
  static std::unique_ptr<Model> make_model(std::string name,
                                           rrl::Raid5Model raid) {
    auto m = std::make_unique<Model>();
    m->name = std::move(name);
    m->raid = std::move(raid);
    m->rewards = m->raid.failure_rewards();
    m->alpha = m->raid.initial_distribution();
    m->r_max = rrl::max_reward(m->rewards);
    return m;
  }

  static std::string solver_id(const Cell& c) {
    return std::string(c.model == 0 ? "ua/" : "ur/") + c.solver;
  }

  Options options_;
  std::vector<Cell> cells_;
  std::vector<std::unique_ptr<Model>> models_;
  std::map<std::string, std::unique_ptr<rrl::TransientSolver>> solvers_;
  std::map<std::string, CellStats> last_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_rrl(const Options& options) {
  return std::make_unique<PaperRrl>(options);
}

}  // namespace bench
