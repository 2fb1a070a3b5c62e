#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sparse/aligned_alloc.hpp"
#include "sparse/spmv_kernels.hpp"

namespace bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         1e-6 * static_cast<double>(tv.tv_usec);
}
}  // namespace

double cpu_s() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

std::string fmt17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Spans

void Tracer::arm() {
  if (spans_.empty()) origin_ = now_s();
  on_ = true;
}

int Tracer::open(const char* name) {
  if (!on_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(SpanRecord{name, now_s() - origin_, 0.0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_s() - origin_;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

Scope::Scope(const char* name)
    : index_(tracer().open(name)), start_(now_s()) {}

Scope::~Scope() { tracer().close(index_); }

double Scope::seconds() const { return now_s() - start_; }

// ---------------------------------------------------------------------------
// Per-layer metrics

Layers::Layers() {
  // Declaration order is print order.
  const char* const kDeclared[][2] = {
      {"markov.generate_s", "s"},
      {"markov.lump_s", "s"},
      {"markov.lump_states_in", "count"},
      {"markov.lump_states_out", "count"},
      {"io.parse_s", "s"},
      {"io.report_write_s", "s"},
      {"sparse.spmv_ns_per_nnz", "ns"},
      {"sparse.spmm8_ns_per_nnz_col", "ns"},
      {"sparse.gbytes_per_s_computed", "GB/s"},
      {"sparse.working_set_mib", "MiB"},
      {"core.compile_s", "s"},
      {"core.schema_s", "s"},
      {"core.schema_steps", "count"},
      {"core.vsolve_s", "s"},
      {"core.vmodel_steps", "count"},
      {"core.transform_eval_us", "us"},
      {"core.sweep_s.rand_batch", "s"},
      {"core.sweep_s.rr_batch", "s"},
      {"core.sweep_s.solo", "s"},
      {"core.krylov_s", "s"},
      {"core.krylov_matvecs", "count"},
      {"laplace.invert_s", "s"},
      {"laplace.abscissae", "count"},
      {"laplace.share", "ratio"},
      {"study.plan_s", "s"},
      {"study.exec_s", "s"},
      {"study.cache_hit_ratio", "ratio"},
      {"study.artifact_hit_ratio", "ratio"},
      {"study.dispatch_s", "s"},
      {"study.worker_busy_frac", "ratio"},
      {"study.requeues", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.spans", "count"},
  };
  for (const auto& d : kDeclared) entries_.push_back(Entry{d[0], d[1], 0.0});
}

Layers::Entry& Layers::find(const std::string& name) {
  for (Entry& e : entries_) {
    if (e.name == name) return e;
  }
  throw std::logic_error("undeclared layer metric: " + name);
}

void Layers::add(const std::string& name, double v) { find(name).value += v; }
void Layers::set(const std::string& name, double v) { find(name).value = v; }
double Layers::get(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return e.value;
  }
  throw std::logic_error("undeclared layer metric: " + name);
}

Layers& layers() {
  static Layers l;
  return l;
}

// ---------------------------------------------------------------------------
// Output gate

std::string PointKey::str() const {
  return model + "," + measure + "," + solver + "," + fmt17(eps) + "," +
         fmt17(t);
}

namespace {
std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, sep)) out.push_back(field);
  return out;
}
}  // namespace

void Gate::load(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header) {  // model,measure,solver,eps,t,value,ref_value,ref_method
      header = false;
      continue;
    }
    const auto f = split(line, ',');
    if (f.size() != 8) throw std::runtime_error("bad reference row: " + line);
    const PointKey key{f[0], f[1], f[2], std::stod(f[3]), std::stod(f[4])};
    table_[key.str()] = Reference{std::stod(f[5]), std::stod(f[6]), f[7]};
  }
}

void Gate::begin_pass() {
  pass_start_ = attempted_;
  pass_keys_.clear();
}

bool Gate::check(const std::vector<Point>& points) {
  ++attempted_;
  bool ok = true;
  const auto fail = [&](const Point& p, const std::string& why) {
    ok = false;
    if (messages_.size() < 10) {
      messages_.push_back(p.key.str() + ": " + why);
    }
  };
  for (const Point& p : points) {
    ++points_;
    pass_keys_.insert(p.key.str());
    if (!p.error.empty()) {
      fail(p, "solver error: " + p.error);
      continue;
    }
    if (p.capped) fail(p, "step cap fired");
    if (!p.converged) fail(p, "inversion did not converge");
    // A value within eps of [0, r_max] keeps the solver's promise: RRL's
    // MRR at t = 1 on a model with r_max = 4 lands 6.9e-8 above r_max at
    // eps = 1e-6 on the seed.
    if (!std::isfinite(p.value) || p.value < -p.key.eps ||
        p.value > p.r_max + p.key.eps) {
      fail(p, "value " + fmt17(p.value) + " outside [-eps, r_max + eps]");
      continue;
    }
    if (recording_) {
      recorded_[p.key.str()] = p;
      continue;
    }
    const auto it = table_.find(p.key.str());
    if (it == table_.end()) {
      fail(p, "no reference value");
      continue;
    }
    const double drift = std::abs(p.value - it->second.seed_value);
    if (!(drift <= p.key.eps)) {
      fail(p, "value " + fmt17(p.value) + " off its reference " +
                  fmt17(it->second.seed_value) + " by more than eps");
    }
    const double err = std::abs(p.value - it->second.ref_value) / p.key.eps;
    if (worst_.empty() || err > err_eps_max_) {
      err_eps_max_ = err;
      worst_ = p.key.str() + " vs " + it->second.ref_method;
    }
  }
  if (!ok) ++failed_;
  return ok;
}

std::int64_t Gate::end_pass(std::size_t expected_points) {
  if (!recording_) {
    const std::size_t want =
        expected_points == 0 ? table_.size() : expected_points;
    std::string missing;
    if (expected_points == 0) {
      for (const auto& [key, ref] : table_) {
        if (pass_keys_.count(key) == 0) {
          missing = "; missing " + key;
          break;
        }
      }
    }
    if (pass_keys_.size() != want || !missing.empty()) {
      fail_run("pass reached " + std::to_string(pass_keys_.size()) +
               " distinct points, expected " + std::to_string(want) +
               missing);
    }
  }
  return attempted_ - pass_start_;
}

void Gate::fail_run(const std::string& why) {
  run_ok_ = false;
  if (messages_.size() < 10) messages_.push_back(why);
}

bool Gate::write(const std::string& path, const std::string& command,
                 const std::map<std::string, Reference>& refs) const {
  std::ofstream out(path);
  out << "# Output-gate references, one row per checked point.\n"
      << "# value: recorded from the seed build; every run must stay within\n"
      << "#        the scenario's eps of it.\n"
      << "# ref_value: independent solve (ref_method, at eps 1e-13) used\n"
      << "#        only for err_eps_max.\n"
      << "# Regenerate with: " << command << "\n"
      << "model,measure,solver,eps,t,value,ref_value,ref_method\n";
  for (const auto& [key, p] : recorded_) {
    const auto it = refs.find(key);
    if (it == refs.end()) return false;
    out << key << ',' << fmt17(p.value) << ',' << fmt17(it->second.ref_value)
        << ',' << it->second.ref_method << '\n';
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

struct CpuRotation::State {
  pid_t tid = 0;
  cpu_set_t original;
  std::mutex mutex;
  std::condition_variable wake;
  bool stop = false;
  std::thread rotator;
};

CpuRotation::CpuRotation() : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.tid = static_cast<pid_t>(::syscall(SYS_gettid));
  CPU_ZERO(&s.original);
  if (sched_getaffinity(s.tid, sizeof(s.original), &s.original) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &s.original)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  // Each rotation starts one CPU further on, so a series of set-ups shorter
  // than one 50 ms slice still spreads over every CPU.
  static std::size_t next_start = 0;
  const std::size_t start = next_start++;
  s.rotator = std::thread([&s, cpus, start] {
    std::unique_lock<std::mutex> lock(s.mutex);
    for (std::size_t i = start; !s.stop; ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[i % cpus.size()], &one);
      sched_setaffinity(s.tid, sizeof(one), &one);
      s.wake.wait_for(lock, std::chrono::milliseconds(50),
                      [&s] { return s.stop; });
    }
  });
}

CpuRotation::~CpuRotation() {
  State& s = *state_;
  if (s.rotator.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(s.mutex);
      s.stop = true;
    }
    s.wake.notify_one();
    s.rotator.join();
    sched_setaffinity(s.tid, sizeof(s.original), &s.original);
  }
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
  const auto next = [&s] {  // splitmix64
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i) {
    std::swap(p[i - 1], p[static_cast<std::size_t>(next() % i)]);
  }
  return p;
}

void probe_spmv(const rrl::CsrMatrix& pt) {
  const auto rows = static_cast<std::size_t>(pt.rows());
  const auto cols = static_cast<std::size_t>(pt.cols());
  const double nnz = static_cast<double>(pt.nnz());
  rrl::AlignedVector<double> x(cols, 1.0 / static_cast<double>(cols));
  rrl::AlignedVector<double> y(rows, 0.0);
  // Enough repetitions for ~0.2 s of single-vector work, median of 5 timed
  // batches.
  const int reps = std::max(1, static_cast<int>(4e7 / std::max(nnz, 1.0)));
  const auto median_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  std::vector<double> samples;
  for (int b = 0; b < 5; ++b) {
    const double t0 = now_s();
    for (int r = 0; r < reps; ++r) {
      pt.mul_vec(x, y);
      std::swap(x, y);
    }
    samples.push_back((now_s() - t0) / reps);
  }
  const double spmv_s = median_of(samples);
  layers().set("sparse.spmv_ns_per_nnz", spmv_s * 1e9 / nnz);
  // Computed traffic of one product: value + column index per stored
  // entry, row pointer + y per row, x once (a lower bound: gathers that
  // miss in cache move whole lines).
  const double bytes = nnz * (8.0 + 4.0) + static_cast<double>(rows) * 12.0 +
                       static_cast<double>(cols) * 8.0;
  layers().set("sparse.gbytes_per_s_computed", bytes / spmv_s * 1e-9);
  layers().set("sparse.working_set_mib", bytes / (1024.0 * 1024.0));

  constexpr rrl::index_t kWidth = rrl::kSpmmTileWide;
  rrl::AlignedVector<double> b(cols * kWidth, 1.0 / static_cast<double>(cols));
  rrl::AlignedVector<double> c(rows * kWidth, 0.0);
  const int mm_reps = std::max(1, reps / 4);
  samples.clear();
  for (int s = 0; s < 5; ++s) {
    const double t0 = now_s();
    for (int r = 0; r < mm_reps; ++r) {
      const rrl::SpmmOperand tile{b.data(), c.data(), kWidth, kWidth};
      pt.mul_block(std::span<const rrl::SpmmOperand>(&tile, 1), pt.rows());
      std::swap(b, c);
    }
    samples.push_back((now_s() - t0) / mm_reps);
  }
  layers().set("sparse.spmm8_ns_per_nnz_col",
               median_of(samples) * 1e9 / (nnz * kWidth));
}

}  // namespace bench
