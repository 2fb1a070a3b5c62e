// Measurement harness of the rrl benchmark: clocks and CPU accounting, the
// in-memory span recorder of traced runs, the per-layer metric sink, and
// the output gate that checks every solved value against the references
// recorded with the benchmark (perfbench/reference/<workload>.csv).
//
// Nothing here reaches into the library's internals: layers are timed from
// outside, around calls into their public functions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sparse/csr.hpp"

namespace bench {

/// Monotonic wall clock in seconds.
[[nodiscard]] double now_s();

/// User + system CPU seconds of this process and its reaped children.
[[nodiscard]] double cpu_s();

/// Peak resident set of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// "%.17g" — every digit, the spelling the reference keys use.
[[nodiscard]] std::string fmt17(double v);

// ---------------------------------------------------------------------------
// Spans

/// One closed span: name, start and end (seconds since the recorder was
/// armed), and the index of the enclosing span (-1 at top level).
struct SpanRecord {
  const char* name = nullptr;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// Single-threaded span recorder. Spans are only opened from the
/// benchmark's own thread, around calls into the library; they stay in
/// memory and are written once, at exit.
class Tracer {
 public:
  void arm();
  void disarm() noexcept { on_ = false; }
  [[nodiscard]] int open(const char* name);
  void close(int index);
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }
  /// Chrome trace-event JSON with the parent index in each event's args.
  bool write_json(const std::string& path) const;

 private:
  bool on_ = false;
  double origin_ = 0.0;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span; records nothing unless the tracer is armed. seconds() is
/// always measured, so callers can use the same scope as a stopwatch.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] double seconds() const;

 private:
  int index_ = -1;
  double start_ = 0.0;
};

// ---------------------------------------------------------------------------
// Per-layer metrics

/// Named values with units; `add` accumulates, `set` overwrites. Every
/// per-layer metric of BENCHMARK.json is declared up front (value 0 where
/// a layer does not run in a workload) so a traced run always prints the
/// full set.
class Layers {
 public:
  Layers();
  void add(const std::string& name, double v);
  void set(const std::string& name, double v);
  [[nodiscard]] double get(const std::string& name) const;
  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

 private:
  Entry& find(const std::string& name);
  std::vector<Entry> entries_;
};

Layers& layers();

// ---------------------------------------------------------------------------
// Output gate

/// Identity of one checked value; the seed never changes it.
struct PointKey {
  std::string model;
  std::string measure;  // "trr" | "mrr"
  std::string solver;
  double eps = 0.0;
  double t = 0.0;
  [[nodiscard]] std::string str() const;
};

/// One solved value plus the flags its solver reported.
struct Point {
  PointKey key;
  double value = 0.0;
  double r_max = 1.0;
  bool capped = false;
  bool converged = true;
  std::string error;  // non-empty: the solver threw
};

/// A reference row: the value recorded from the seed build (the gate) and
/// an independent value (SR, or Krylov where noted) for err_eps_max.
struct Reference {
  double seed_value = 0.0;
  double ref_value = 0.0;
  std::string ref_method;
};

class Gate {
 public:
  /// Load `path`; a missing file leaves the table empty (every check then
  /// fails, unless recording).
  void load(const std::string& path);
  /// Recording mode: checks collect values instead of comparing.
  void set_recording(bool on) { recording_ = on; }

  /// Start a pass: clears the set of points the pass has reached.
  void begin_pass();
  /// Check one scenario (all its points); returns false and counts one
  /// failed scenario if any point fails. A point fails if its solver threw,
  /// flagged `capped` or a non-converged inversion, returned a non-finite
  /// value or one more than eps outside [0, r_max], or strayed from its
  /// seed value by more than the scenario's eps.
  bool check(const std::vector<Point>& points);
  /// End a pass and return the scenarios it checked. Unless recording, the
  /// pass must have reached every row of the reference table
  /// (`expected_points` == 0) or exactly `expected_points` distinct points
  /// (a reduced run); otherwise the run fails.
  std::int64_t end_pass(std::size_t expected_points);
  /// Fail the run for a reason that belongs to no single scenario.
  void fail_run(const std::string& why);

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] std::int64_t points() const noexcept { return points_; }
  [[nodiscard]] double err_eps_max() const noexcept { return err_eps_max_; }
  [[nodiscard]] const std::string& worst_point() const noexcept {
    return worst_;
  }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }
  /// False once any scenario or run-level check failed.
  [[nodiscard]] bool passed() const noexcept {
    return failed_ == 0 && run_ok_;
  }
  /// Values collected while recording, keyed by PointKey::str().
  [[nodiscard]] const std::map<std::string, Point>& recorded() const {
    return recorded_;
  }
  /// Write the reference table: the recorded values plus the independent
  /// reference for each point (`refs` keyed like recorded()).
  bool write(const std::string& path, const std::string& command,
             const std::map<std::string, Reference>& refs) const;

 private:
  std::map<std::string, Reference> table_;
  std::map<std::string, Point> recorded_;
  bool recording_ = false;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t points_ = 0;
  std::int64_t pass_start_ = 0;  // attempted_ when the pass began
  std::set<std::string> pass_keys_;
  bool run_ok_ = true;
  double err_eps_max_ = 0.0;
  std::string worst_;
  std::vector<std::string> messages_;
};

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;  // smoke: one pass, one setup
  bool record = false;   // regenerate the reference table
  bool deviation_table = false;  // print the UR deviation table and exit
  std::string ref_dir;   // perfbench/reference
  std::string work_dir;  // scratch space inside the checkout
  std::string rrl_solve;  // worker binary for fleet_warm
};

/// What one timed pass produced (its scenario count comes from the gate).
struct PassOutput {
  std::string report;  // byte-compared across passes
};

/// One workload: setup() (re)builds every input of the next pass and is
/// timed as setup_s; pass() is the timed closed loop — each scenario is
/// started only after the previous one completed.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  /// `traced`: decompose the work into its layers' public phases (same
  /// values, same report bytes) while the tracer records spans.
  virtual PassOutput pass(Gate& gate, bool traced) = 0;
  /// Traced runs only, after the passes: layer probes that are not part
  /// of the timed work (SpMV/SpMM on the workload's own P^T, ...).
  virtual void probe_layers() {}
  /// Distinct points one reduced pass must reach; a full pass must reach
  /// every row of the reference table.
  [[nodiscard]] virtual std::size_t reduced_points() const = 0;
  /// Recording only: independent reference values for the given points.
  virtual std::map<std::string, Reference> references(
      const std::map<std::string, Point>& points) = 0;
  /// Informational lines printed after the metrics (paper shape).
  virtual void print_notes() const {}
};

std::unique_ptr<Workload> make_paper_rrl(const Options& options);
std::unique_ptr<Workload> make_large_lumped(const Options& options);
std::unique_ptr<Workload> make_study_sweep(const Options& options);
std::unique_ptr<Workload> make_fleet_warm(const Options& options);

/// Seeded Fisher-Yates permutation of 0..n-1 (own implementation, so the
/// request order of a seed is the same with every standard library).
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n,
                                                   std::uint64_t seed);

/// While alive, moves the constructing thread to the next CPU of its
/// affinity set every 50 ms, starting one CPU after where the previous
/// rotation started, and restores the set when destroyed. Only
/// single-threaded work may hold one, since threads created meanwhile would
/// inherit a one-CPU mask: the set-ups and passes of paper_rrl and
/// large_lumped, and the set-up of study_sweep. On a shared host the CPUs
/// run at different, drifting speeds, and rotating the one thread over all
/// of them measures their average instead of whichever CPU a run happened
/// to land on.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Print the UR deviation table of NOTES.md (RR/RRL/Krylov minus SR).
int print_ur_deviation_table();

/// Time y = P^T x and the 8-column block product on `pt` (a workload's
/// own gather operator) and store the sparse.* metrics.
void probe_spmv(const rrl::CsrMatrix& pt);

}  // namespace bench
