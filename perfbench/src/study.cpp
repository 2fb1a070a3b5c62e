// The two study-layer workloads.
//
// study_sweep: in-process run_study with a cold in-memory solver cache,
// jobs = 2, over two generated models x {sr, rsd, rr, rrl} x both measures
// x eps {1e-6, 1e-8, 1e-10, 1e-12} x grid 1:1e3:5 = 64 scenarios. Each
// SR/RSD solver feeds 8 scenarios, so the shared-pass SpMM batch, the
// batched RR V-solve, the solver cache and the pool do the work.
//
// fleet_warm: dispatch_study over 2 local pipe workers (jobs = 1 each)
// against an artifact store warmed in set-up; 30 small lumped k_of_n
// models x {sr, rsd, rr, rrl} = 120 work units, 960 scenarios. Per-unit
// dispatch, wire codec, reduce and artifact load make up most of the cost.
// The fleet report must be byte-identical to the in-process run_study
// report of the same study.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "harness.hpp"
#include "rrl.hpp"

namespace bench {
namespace {

namespace fs = std::filesystem;

struct ModelSpec {
  std::string file;       // label in the study and the report
  std::string generator;  // the model file's single line
};

// The study text; model lines in the seed's request order.
std::string study_text(const std::vector<ModelSpec>& models,
                       std::uint64_t seed, const std::string& axes) {
  std::string text;
  for (const std::size_t i : permutation(models.size(), seed)) {
    text += "model " + models[i].file + "\n";
  }
  return text + axes;
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

/// Inputs shared by both study workloads: the model and study files in the
/// work directory, the parsed spec, and a repository holding the expanded
/// models (so generator expansion is set-up, not timed work).
class StudyInputs {
 public:
  StudyInputs(const Options& options, std::vector<ModelSpec> models,
              std::string axes, const std::string& subdir)
      : options_(options),
        models_(std::move(models)),
        axes_(std::move(axes)),
        dir_(fs::path(options.work_dir) / subdir) {}

  void prepare() {
    fs::create_directories(dir_);
    for (const ModelSpec& m : models_) {
      write_file(dir_ / m.file, m.generator + "\n");
    }
    write_file(study_path(), study_text(models_, options_.seed, axes_));
    {
      const Scope s("io.parse");
      spec_ = rrl::read_study_file(study_path());
      layers().add("io.parse_s", s.seconds());
    }
    repository_ = std::make_unique<rrl::ModelRepository>();
    r_max_.clear();
    const Scope s("markov.generate");
    for (std::size_t i = 0; i < spec_.models.size(); ++i) {
      const auto model = repository_->load(spec_.models[i]);
      r_max_[spec_.model_labels[i]] = rrl::max_reward(model->file.rewards);
    }
    layers().add("markov.generate_s", s.seconds());
  }

  [[nodiscard]] std::string study_path() const {
    return (dir_ / "bench.study").string();
  }
  [[nodiscard]] const fs::path& dir() const { return dir_; }
  [[nodiscard]] const rrl::StudySpec& spec() const { return spec_; }
  [[nodiscard]] rrl::ModelRepository& repository() { return *repository_; }
  [[nodiscard]] double r_max(const std::string& label) const {
    return r_max_.at(label);
  }

  /// Every model x measure of the spec solved by SR at eps 1e-13 over the
  /// spec's grids: the independent reference of each recorded point.
  std::map<std::string, Reference> sr_references(
      const std::map<std::string, Point>& points) {
    std::map<std::string, Reference> refs;
    for (std::size_t i = 0; i < spec_.models.size(); ++i) {
      const auto model = repository_->load(spec_.models[i]);
      rrl::SolverConfig config;
      config.epsilon = 1e-13;
      const auto sr = rrl::make_solver("sr", model->file, config);
      for (const auto measure : spec_.measures) {
        for (const auto& grid : spec_.grids) {
          rrl::SolveRequest request;
          request.measure = measure;
          request.times = grid;
          const auto report = sr->solve_grid(request);
          for (std::size_t j = 0; j < grid.size(); ++j) {
            for (const auto& [key, p] : points) {
              if (p.key.model == spec_.model_labels[i] &&
                  p.key.measure == rrl::measure_name(measure) &&
                  p.key.t == grid[j]) {
                refs[key] = Reference{p.value, report.points[j].value, "sr"};
              }
            }
          }
        }
      }
    }
    return refs;
  }

 private:
  Options options_;
  std::vector<ModelSpec> models_;
  std::string axes_;
  fs::path dir_;
  rrl::StudySpec spec_;
  std::unique_ptr<rrl::ModelRepository> repository_;
  std::map<std::string, double> r_max_;
};

/// Gate every scenario of an executed slice (flags from the solver stats).
void gate_slice(Gate& gate, const StudyInputs& in,
                const std::vector<rrl::StudyScenario>& scenarios,
                const rrl::SweepReport& sweep,
                const std::vector<std::vector<double>>& grids) {
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const rrl::StudyScenario& s = scenarios[i];
    const rrl::ScenarioResult& r = sweep.results[i];
    const std::vector<double>& grid = grids[s.grid];
    std::vector<Point> points;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      Point p;
      p.key = PointKey{s.model, rrl::measure_name(s.measure), s.solver,
                       s.epsilon, grid[j]};
      p.r_max = in.r_max(s.model);
      p.error = r.error;
      if (r.ok()) {
        const rrl::TransientValue& v = r.report.points[j];
        p.value = v.value;
        p.capped = v.stats.capped;
        p.converged = v.stats.inversion_converged;
      }
      points.push_back(p);
    }
    gate.check(points);
  }
}

std::string report_bytes(std::uint64_t total,
                         std::vector<rrl::ReportRow> rows) {
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return std::tie(a.scenario, a.point) < std::tie(b.scenario, b.point);
  });
  std::ostringstream out;
  rrl::write_report_csv(out, total, rows);
  return out.str();
}

// ---------------------------------------------------------------------------

class StudySweep final : public Workload {
 public:
  explicit StudySweep(const Options& options)
      : inputs_(options,
                {{"tiered.rrlm",
                  "generator tiered_repair tiers=4 n=12 k=9 lambda=1e-3 "
                  "mu=0.5 scale=2 repairmen=2"},
                 {"queue.rrlm",
                  "generator queue capacity=4999 servers=4 arrival=3 "
                  "service=1 fail=1e-3 repair=0.1"}},
                options.reduced
                    ? "solvers sr rsd rr rrl\nmeasures trr\nepsilons 1e-8\n"
                      "grid 1:1e3:5\njobs 2\n"
                    : "solvers sr rsd rr rrl\nmeasures both\n"
                      "epsilons 1e-6 1e-8 1e-10 1e-12\ngrid 1:1e3:5\n"
                      "jobs 2\n",
                "study_sweep") {}

  void setup() override {
    const CpuRotation rotation;  // prepare() starts no threads
    inputs_.prepare();
    cache_ = std::make_unique<rrl::SolverCache>();  // cold every pass
  }

  PassOutput pass(Gate& gate, bool traced) override {
    return traced ? pass_by_phases(gate) : pass_run_study(gate);
  }

  // 2 models x 4 solvers x trr x eps 1e-8 x 5 times.
  [[nodiscard]] std::size_t reduced_points() const override { return 40; }

  void probe_layers() override {
    const auto model = inputs_.repository().load(inputs_.spec().models[0]);
    const rrl::RandomizedDtmc dtmc(model->file.chain);
    probe_spmv(dtmc.transition_transposed());
  }

  std::map<std::string, Reference> references(
      const std::map<std::string, Point>& points) override {
    return inputs_.sr_references(points);
  }

 private:
  PassOutput pass_run_study(Gate& gate) {
    rrl::StudyOptions options;
    options.jobs = 2;
    const rrl::StudyRun run = rrl::run_study(
        inputs_.spec(), inputs_.repository(), *cache_, options);
    PassOutput out;
    out.report = report_bytes(run.total_scenarios, run.rows());
    gate_slice(gate, inputs_, run.scenarios, run.sweep, run.grids);
    return out;
  }

  // The same study through the pipeline's public stages: plan, solver
  // compile, one execute_scenarios per sweep route (the shared-pass
  // SR/RSD batch, the batched RR V-solve, solo RRL), reduce to rows, write.
  PassOutput pass_by_phases(Gate& gate) {
    rrl::StudyPlan plan;
    {
      const Scope s("study.plan");
      plan = rrl::build_study_plan(inputs_.spec(), inputs_.repository());
      layers().add("study.plan_s", s.seconds());
    }
    {
      const Scope s("core.compile");
      std::set<std::pair<std::uint64_t, std::string>> seen;
      for (const rrl::PlannedScenario& ps : plan.scenarios) {
        if (seen.emplace(ps.model->hash, ps.meta.solver).second) {
          (void)cache_->get_or_build(ps.model, ps.meta.solver, ps.config);
        }
      }
      layers().add("core.compile_s", s.seconds());
    }
    std::map<std::string, std::vector<std::size_t>> routes;
    for (std::size_t i = 0; i < plan.scenarios.size(); ++i) {
      const std::string& solver = plan.scenarios[i].meta.solver;
      routes[solver == "sr" || solver == "rsd" ? "rand_batch"
             : solver == "rr"                  ? "rr_batch"
                                               : "solo"]
          .push_back(i);
    }
    std::vector<rrl::ReportRow> rows;
    {
      const Scope exec("study.exec");
      for (const auto& [route, positions] : routes) {
        const std::string name = "core.sweep_s." + route;
        const Scope s(route == "rand_batch" ? "core.sweep.rand_batch"
                      : route == "rr_batch" ? "core.sweep.rr_batch"
                                            : "core.sweep.solo");
        rrl::ExecOptions options;
        options.jobs = 2;
        const rrl::ExecutedSlice slice =
            rrl::execute_scenarios(plan, positions, *cache_, options);
        layers().add(name, s.seconds());
        gate_slice(gate, inputs_, slice.scenarios, slice.sweep, plan.grids);
        const auto slice_rows = rrl::slice_rows(slice, plan.grids);
        rows.insert(rows.end(), slice_rows.begin(), slice_rows.end());
      }
      layers().add("study.exec_s", exec.seconds());
    }
    const rrl::SolverCacheStats stats = cache_->stats();
    if (stats.hits + stats.misses > 0) {
      layers().set("study.cache_hit_ratio",
                   static_cast<double>(stats.hits) /
                       static_cast<double>(stats.hits + stats.misses));
    }
    PassOutput out;
    {
      const Scope s("io.report_write");
      out.report = report_bytes(plan.total_scenarios, std::move(rows));
      layers().add("io.report_write_s", s.seconds());
    }
    return out;
  }

  StudyInputs inputs_;
  std::unique_ptr<rrl::SolverCache> cache_;
};

// ---------------------------------------------------------------------------

std::vector<ModelSpec> fleet_models(bool reduced) {
  std::vector<ModelSpec> models;
  const int count = reduced ? 3 : 30;
  for (int i = 0; i < count; ++i) {
    char file[32];
    char line[160];
    std::snprintf(file, sizeof(file), "kofn_%02d.rrlm", i);
    std::snprintf(line, sizeof(line),
                  "generator k_of_n n=4 k=3 groups=3 lambda=%ge-4 mu=1 "
                  "lump=1",
                  static_cast<double>(i + 1));
    models.push_back({file, line});
  }
  return models;
}

class FleetWarm final : public Workload {
 public:
  explicit FleetWarm(const Options& options)
      : options_(options),
        inputs_(options, fleet_models(options.reduced),
                "solvers sr rsd rr rrl\nmeasures both\n"
                "epsilons 1e-6 1e-8 1e-10 1e-12\ngrid 1:1e2:3\njobs 1\n",
                "fleet_warm") {
    if (options_.rrl_solve.empty()) {
      throw std::runtime_error("fleet_warm needs --rrl-solve");
    }
  }

  // Expand the models, then warm the artifact store from scratch with an
  // in-process run_study, whose report the fleet must reproduce. The
  // warm-up runs at jobs = 2 like study_sweep: at jobs = 1, RRL's grid loop
  // would start one OpenMP thread per CPU (see NOTES.md, Known defects).
  void setup() override {
    inputs_.prepare();
    const fs::path store_dir = inputs_.dir() / "store";
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
    store_ = std::make_shared<rrl::ArtifactStore>(store_dir.string());
    rrl::SolverCache cache;
    cache.attach_store(store_);
    rrl::StudyOptions options;
    options.jobs = 2;
    const rrl::StudyRun run =
        rrl::run_study(inputs_.spec(), inputs_.repository(), cache, options);
    cache.flush_to_store();
    in_process_report_ = report_bytes(run.total_scenarios, run.rows());
  }

  PassOutput pass(Gate& gate, bool traced) override {
    rrl::StudyPlan plan;
    {
      const Scope s("study.plan");
      plan = rrl::build_study_plan(inputs_.spec(), inputs_.repository());
      if (traced) layers().add("study.plan_s", s.seconds());
    }
    rrl::DispatchOptions options;
    options.workers = 2;
    options.worker_command = {options_.rrl_solve, "--worker",  "--study",
                              inputs_.study_path(), "--cache-dir",
                              store_->root(), "--jobs", "1"};
    options.artifact_store = store_.get();
    std::ostringstream report;
    rrl::DispatchReport dispatch;
    {
      const Scope s("study.dispatch");
      rrl::StudyReducer reducer(report, plan.total_scenarios);
      dispatch = rrl::dispatch_study(plan, options, reducer);
    }
    PassOutput out;
    out.report = report.str();
    if (out.report != in_process_report_) {
      gate.fail_run("fleet report differs from the in-process run_study "
                    "report");
    }
    gate_report(gate, out.report);
    if (traced) book_dispatch(dispatch);
    return out;
  }

  // 3 models x 4 solvers x 2 measures x 4 eps x 3 times.
  [[nodiscard]] std::size_t reduced_points() const override { return 288; }

  void probe_layers() override {
    const auto model = inputs_.repository().load(inputs_.spec().models[0]);
    const rrl::RandomizedDtmc dtmc(model->file.chain);
    probe_spmv(dtmc.transition_transposed());
  }

  std::map<std::string, Reference> references(
      const std::map<std::string, Point>& points) override {
    return inputs_.sr_references(points);
  }

 private:
  // The reduced report is all a fleet returns: gate its rows (a failed
  // scenario is a row with an error).
  void gate_report(Gate& gate, const std::string& text) {
    std::istringstream in(text);
    std::uint64_t total = 0;
    const auto rows = rrl::read_report_csv(in, total);
    std::map<std::uint64_t, std::vector<Point>> by_scenario;
    for (const rrl::ReportRow& r : rows) {
      Point p;
      p.key = PointKey{r.model, r.measure, r.solver, r.epsilon, r.t};
      p.value = r.value;
      p.r_max = inputs_.r_max(r.model);
      p.error = r.error;
      by_scenario[r.scenario].push_back(p);
    }
    for (const auto& [scenario, points] : by_scenario) gate.check(points);
  }

  void book_dispatch(const rrl::DispatchReport& d) {
    layers().add("study.dispatch_s", d.seconds);
    const double fleet = static_cast<double>(d.workers) +
                         static_cast<double>(d.remote_workers);
    if (d.seconds > 0.0 && fleet > 0.0) {
      layers().set("study.worker_busy_frac",
                   d.worker_seconds / (fleet * d.seconds));
    }
    layers().add("study.requeues", static_cast<double>(d.redispatched));
    std::map<std::string, double> c;
    for (const auto& [name, value] : d.fleet_counters) {
      c[name] = static_cast<double>(value);
    }
    const auto ratio = [&](const char* hits, const char* misses) {
      const double h = c[hits];
      const double m = c[misses];
      return h + m > 0.0 ? h / (h + m) : 0.0;
    };
    layers().set("study.cache_hit_ratio",
                 ratio("rrl_cache_memory_hits_total",
                       "rrl_cache_memory_misses_total"));
    layers().set("study.artifact_hit_ratio",
                 ratio("rrl_cache_disk_hits_total",
                       "rrl_cache_disk_misses_total"));
  }

  Options options_;
  StudyInputs inputs_;
  std::shared_ptr<rrl::ArtifactStore> store_;
  std::string in_process_report_;
};

}  // namespace

std::unique_ptr<Workload> make_study_sweep(const Options& options) {
  return std::make_unique<StudySweep>(options);
}

std::unique_ptr<Workload> make_fleet_warm(const Options& options) {
  return std::make_unique<FleetWarm>(options);
}

}  // namespace bench
