// large_lumped: generator expansion and exact lumping in set-up, Krylov and
// SELL SpMV on the largest working set in the timed pass.
//
// k_of_n n=9 k=8 groups=5 (10^5 ordered states, lumped to 2002) solved by
// krylov and rrl, plus the stiff queue capacity=49999 servers=2
// (1.5 x 10^5 states) solved by krylov; eps 1e-8, t in {1, 10, 100}, both
// measures, one solve_point per cell on solvers built in set-up.
#include <map>

#include "harness.hpp"
#include "phases.hpp"
#include "rrl.hpp"

namespace bench {
namespace {

constexpr double kEps = 1e-8;
const std::vector<double> kTimes = {1.0, 10.0, 100.0};

const rrl::GeneratorParams kKofN = {{"n", "9"},       {"k", "8"},
                                    {"groups", "5"},  {"lambda", "1e-3"},
                                    {"mu", "1"},      {"lump", "0"}};
const rrl::GeneratorParams kQueue = {
    {"capacity", "49999"}, {"servers", "2"}, {"arrival", "2"},
    {"service", "50"},     {"fail", "0.01"}, {"repair", "1"}};

struct Cell {
  int model = 0;  // 0 = lumped k_of_n, 1 = queue
  std::string solver;
  rrl::MeasureKind measure = rrl::MeasureKind::kTrr;
  double t = 0.0;
};

class LargeLumped final : public Workload {
 public:
  explicit LargeLumped(const Options& options) : options_(options) {
    for (const auto measure :
         {rrl::MeasureKind::kTrr, rrl::MeasureKind::kMrr}) {
      for (const double t : kTimes) {
        if (options_.reduced && t != 10.0) continue;
        cells_.push_back({0, "krylov", measure, t});
        cells_.push_back({0, "rrl", measure, t});
        cells_.push_back({1, "krylov", measure, t});
      }
    }
  }

  void setup() override {
    const CpuRotation rotation;
    solvers_.clear();
    models_.clear();
    models_.resize(2);
    {
      rrl::ModelFile full;
      {
        const Scope s("markov.generate");
        full = rrl::generate_model("k_of_n", kKofN);
        layers().add("markov.generate_s", s.seconds());
      }
      const Scope s("markov.lump");
      rrl::LumpResult lumped = rrl::lump_model(full);
      layers().add("markov.lump_s", s.seconds());
      layers().set("markov.lump_states_in", lumped.original_states);
      layers().set("markov.lump_states_out", lumped.lumped_states());
      models_[0] = std::make_unique<rrl::ModelFile>(std::move(lumped.lumped));
    }
    {
      const Scope s("markov.generate");
      models_[1] = std::make_unique<rrl::ModelFile>(
          rrl::generate_model("queue", kQueue));
      layers().add("markov.generate_s", s.seconds());
    }
    const Scope s("core.compile");
    for (const Cell& c : cells_) {
      const std::string id = solver_id(c);
      if (solvers_.count(id) != 0) continue;
      rrl::SolverConfig config;
      config.epsilon = kEps;
      solvers_[id] = rrl::make_solver(c.solver, model(c.model), config);
    }
    layers().add("core.compile_s", s.seconds());
  }

  PassOutput pass(Gate& gate, bool traced) override {
    std::map<std::string, std::string> rows;
    const CpuRotation rotation;
    for (const std::size_t i : permutation(cells_.size(), options_.seed)) {
      const Cell& c = cells_[i];
      const rrl::ModelFile& m = model(c.model);
      const rrl::TransientSolver& solver = *solvers_.at(solver_id(c));
      const Scope cell("scenario");
      rrl::TransientValue v;
      if (traced && c.solver == "rrl") {
        // The registry's choice of regenerative state: the model's hint,
        // else suggest_regenerative_state.
        const rrl::index_t hint = rrl::resolved_config(m, {}).regenerative;
        v = rrl_by_phases(m.chain, m.rewards, m.initial,
                          hint >= 0 ? hint
                                    : rrl::suggest_regenerative_state(m.chain),
                          c.t, c.measure, kEps);
      } else if (traced) {
        v = krylov_traced(solver, c.t, c.measure);
      } else {
        v = solver.solve_point(c.t, c.measure);
      }
      Point p;
      p.key = PointKey{model_name(c.model), rrl::measure_name(c.measure),
                       c.solver, kEps, c.t};
      p.value = v.value;
      p.r_max = rrl::max_reward(m.rewards);
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

  // 2 models' solvers x 2 measures at t = 10: k_of_n krylov and rrl, queue
  // krylov.
  [[nodiscard]] std::size_t reduced_points() const override { return 6; }

  void probe_layers() override {
    const rrl::RandomizedDtmc dtmc(models_[1]->chain);  // the larger chain
    probe_spmv(dtmc.transition_transposed());
  }

  std::map<std::string, Reference> references(
      const std::map<std::string, Point>& points) override {
    std::map<std::string, Reference> refs;
    for (int which = 0; which < 2; ++which) {
      for (const auto measure :
           {rrl::MeasureKind::kTrr, rrl::MeasureKind::kMrr}) {
        rrl::SolverConfig config;
        config.epsilon = 1e-13;
        const auto sr = rrl::make_solver("sr", model(which), config);
        rrl::SolveRequest request;
        request.measure = measure;
        request.times = kTimes;
        const auto report = sr->solve_grid(request);
        for (const auto& [key, p] : points) {
          if (p.key.model != model_name(which) ||
              p.key.measure != rrl::measure_name(measure)) {
            continue;
          }
          for (std::size_t i = 0; i < kTimes.size(); ++i) {
            if (kTimes[i] == p.key.t) {
              refs[key] = Reference{p.value, report.points[i].value, "sr"};
            }
          }
        }
      }
    }
    return refs;
  }

 private:
  static std::string solver_id(const Cell& c) {
    return std::to_string(c.model) + "/" + c.solver;
  }
  static std::string model_name(int which) {
    return which == 0 ? "kofn_n9_k8_g5_lumped" : "queue_c49999_s2";
  }
  [[nodiscard]] const rrl::ModelFile& model(int which) const {
    return *models_[static_cast<std::size_t>(which)];
  }

  Options options_;
  std::vector<Cell> cells_;
  std::vector<std::unique_ptr<rrl::ModelFile>> models_;
  std::map<std::string, std::unique_ptr<rrl::TransientSolver>> solvers_;
};

}  // namespace

std::unique_ptr<Workload> make_large_lumped(const Options& options) {
  return std::make_unique<LargeLumped>(options);
}

}  // namespace bench
