// rrlbench: one closed-loop benchmark process per workload.
//
//   rrlbench --workload paper_rrl --seed 3 --seconds 10 --trace 0
//            --ref-dir perfbench/reference --work-dir .bench_build/work
//            [--rrl-solve PATH] [--reduced] [--record | --deviation-table]
//
// Untraced (--trace 0): repeat set-up + one timed pass until the next pass
// would overrun --seconds (at least one pass), then set up again until the
// set-ups reach their count and time budget, and print the end-to-end
// metrics. Traced (--trace 1): one untraced pass, then
// one pass decomposed into layer phases with spans recorded, then the
// layer probes; prints the per-layer metrics and the tracing overhead.
// Either way every solved value goes through the output gate, every pass
// must produce the same report bytes, and the last stdout line is one JSON
// object {correct, attempted, failed, metrics}. Exit code 1 when any check
// failed. --record instead runs one pass and rewrites the reference table.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "phases.hpp"

namespace {

using bench::layers;
using bench::now_s;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bench::Options parse(int argc, char** argv) {
  bench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--ref-dir") {
      o.ref_dir = value();
    } else if (a == "--work-dir") {
      o.work_dir = value();
    } else if (a == "--rrl-solve") {
      o.rrl_solve = value();
    } else if (a == "--reduced") {
      o.reduced = true;
    } else if (a == "--record") {
      o.record = true;
    } else if (a == "--deviation-table") {
      o.deviation_table = true;
    } else {
      throw std::runtime_error("unknown argument " + a);
    }
  }
  if (o.ref_dir.empty() || o.work_dir.empty()) {
    throw std::runtime_error("--ref-dir and --work-dir are required");
  }
  return o;
}

std::unique_ptr<bench::Workload> make_workload(const bench::Options& o) {
  if (o.workload == "paper_rrl") return bench::make_paper_rrl(o);
  if (o.workload == "study_sweep") return bench::make_study_sweep(o);
  if (o.workload == "large_lumped") return bench::make_large_lumped(o);
  if (o.workload == "fleet_warm") return bench::make_fleet_warm(o);
  throw std::runtime_error("unknown workload " + o.workload);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_json(bool correct, const bench::Gate& gate,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(gate.attempted()),
              static_cast<long long>(gate.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const bench::Options& o) {
  if (o.deviation_table) return bench::print_ur_deviation_table();
  std::filesystem::create_directories(o.work_dir);
  const auto workload = make_workload(o);
  const std::string ref_path = o.ref_dir + "/" + o.workload + ".csv";
  bench::Gate gate;
  if (o.record) {
    gate.set_recording(true);
  } else {
    gate.load(ref_path);
  }

  std::vector<double> setups;
  double timed_s = 0.0;
  std::vector<double> pass_times;
  std::vector<double> pass_rates;     // scenarios per second of each pass
  std::vector<double> pass_cpu_each;  // CPU seconds per scenario of each pass
  std::int64_t scenarios = 0;
  std::string first_report;
  int passes = 0;
  bool reports_match = true;
  const auto setup = [&] {
    const double t0 = now_s();
    workload->setup();
    setups.push_back(now_s() - t0);
  };
  const auto one_pass = [&](bool traced) {
    setup();
    gate.begin_pass();
    const double c0 = bench::cpu_s();
    const double t0 = now_s();
    const bench::PassOutput out = workload->pass(gate, traced);
    const double dt = now_s() - t0;
    const double pass_cpu = bench::cpu_s() - c0;
    // Scenarios are counted from the gated rows, not the program's totals.
    const std::int64_t checked =
        gate.end_pass(o.reduced ? workload->reduced_points() : 0);
    if (!traced) {
      timed_s += dt;
      pass_times.push_back(dt);
      pass_rates.push_back(static_cast<double>(checked) / dt);
      pass_cpu_each.push_back(pass_cpu / static_cast<double>(checked));
      scenarios += checked;
    }
    if (passes++ == 0) {
      first_report = out.report;
    } else if (out.report != first_report) {
      reports_match = false;
    }
    return dt;
  };

  if (o.record) {
    one_pass(false);
    std::printf("recording: %zu points, computing independent references\n",
                gate.recorded().size());
    const auto refs = workload->references(gate.recorded());
    const std::string command =
        "python3 perfbench/run.py --record --workload " + o.workload;
    if (!gate.passed() || !gate.write(ref_path, command, refs)) {
      for (const auto& m : gate.messages()) {
        std::printf("gate: %s\n", m.c_str());
      }
      std::fprintf(stderr, "recording failed\n");
      return 1;
    }
    std::printf("wrote %s\n", ref_path.c_str());
    return 0;
  }

  std::vector<Metric> metrics;
  if (!o.trace) {
    for (;;) {
      const double dt = one_pass(false);
      if (o.reduced || timed_s + dt > o.seconds) break;
    }
    // setup_s is a median: at least three set-ups, and more until they add
    // up to kSetupBudgetS, so a few-millisecond set-up is sampled over
    // seconds of the host's drifting speed, not one burst.
    constexpr double kSetupBudgetS = 3.0;
    const auto setup_total = [&] {
      double sum = 0.0;
      for (const double s : setups) sum += s;
      return sum;
    };
    while (!o.reduced && setups.size() < 500 &&
           (setups.size() < 3 || setup_total() < kSetupBudgetS)) {
      setup();
    }
  } else {
    const double plain = one_pass(false);
    layers() = bench::Layers();  // per-layer values come from the traced pass
    bench::tracer().arm();
    const double traced = one_pass(true);
    bench::tracer().disarm();
    workload->probe_layers();
    const bench::PhaseTotals& totals = bench::phase_totals();
    if (totals.rrl_cell_s > 0.0) {
      layers().set("laplace.share",
                   layers().get("laplace.invert_s") / totals.rrl_cell_s);
    }
    if (totals.evals > 0) {
      layers().set("core.transform_eval_us",
                   totals.eval_s / static_cast<double>(totals.evals) * 1e6);
    }
    layers().set("trace.overhead_frac", traced / plain - 1.0);
    layers().set("trace.spans",
                 static_cast<double>(bench::tracer().spans().size()));
    bench::tracer().write_json(o.work_dir + "/trace.json");
    std::printf("trace: untraced pass %.4f s, traced pass %.4f s "
                "(overhead %.2f%%, includes the phase decomposition), "
                "%zu spans -> %s/trace.json\n",
                plain, traced, 100.0 * (traced / plain - 1.0),
                bench::tracer().spans().size(), o.work_dir.c_str());
    for (const auto& e : layers().entries()) {
      metrics.push_back({e.name, e.value, e.unit});
    }
  }

  const double attempted = static_cast<double>(gate.attempted());
  const double failed_frac =
      attempted > 0 ? static_cast<double>(gate.failed()) / attempted : 1.0;
  const std::vector<Metric> e2e = {
      {"scenarios_per_s", median(pass_rates), "1/s"},
      {"setup_s", median(setups), "s"},
      {"cpu_s_per_scenario", median(pass_cpu_each), "s"},
      {"peak_rss_mb", bench::peak_rss_mb(), "MB"},
      {"ok_frac", 1.0 - failed_frac, "ratio"},
      {"err_eps_max", gate.err_eps_max(), "eps"},
  };
  std::printf("workload %s seed %llu: %d passes, %lld scenarios in %.4f s "
              "timed, %zu set-ups\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              passes, static_cast<long long>(scenarios), timed_s,
              setups.size());
  std::printf("pass seconds:");
  for (const double t : pass_times) std::printf(" %.4f", t);
  std::printf("\nset-up seconds:");
  for (const double t : setups) std::printf(" %.4f", t);
  std::printf("\n");
  for (const Metric& m : e2e) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("metric failed_frac = %.6g (attempted %lld)\n", failed_frac,
              static_cast<long long>(gate.attempted()));
  for (const Metric& m : metrics) {
    std::printf("layer %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  workload->print_notes();
  std::printf("gate: checked %lld points of %lld scenarios against %s; "
              "%lld failed; reports %s across %d passes\n",
              static_cast<long long>(gate.points()),
              static_cast<long long>(gate.attempted()), ref_path.c_str(),
              static_cast<long long>(gate.failed()),
              reports_match ? "byte-identical" : "DIFFER", passes);
  std::printf("gate: err_eps_max %.6g at %s\n", gate.err_eps_max(),
              gate.worst_point().c_str());
  for (const auto& m : gate.messages()) {
    std::printf("gate: FAIL %s\n", m.c_str());
  }

  const bool correct = gate.attempted() > 0 && gate.passed() && reports_match;
  print_json(correct, gate, o.trace ? metrics : e2e);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rrlbench: %s\n", e.what());
    return 2;
  }
}
