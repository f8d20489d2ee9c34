// perfbench: the repository benchmark.  One binary runs one of three
// workloads, checks every output it produces, and prints its metrics as
// a JSON object on the last line of standard output.
//
//   perfbench --workload paper_sweep|ring1k|allreduce256 --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// The libraries are driven only through their public calls (run_plan,
// run_pattern_experiment, LayoutAxis::factory, minimpi::pack,
// plan::compile_cell, plan::verify_plan, plan::detail::interpret,
// CommPlan::replay); every span and counter is taken around those calls
// from here.  --trace 0 measures the end-to-end metrics untraced;
// --trace 1 runs the traced passes that give the per-layer metrics.
// README.md in this directory defines each metric.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "instrument.hpp"
#include "ncsend/ncsend.hpp"
#include "ncsend/plan/comm_plan.hpp"
#include "ncsend/plan/verify.hpp"

namespace nc = ncsend;
using namespace perfbench;

namespace {

// The seed the golden BENCH files use for LayoutAxis::indexed_blocks.
constexpr std::uint64_t kGoldenSeed = 42;
// Worker threads for run_plan: fixed so runs compare on any host with
// at least two cores.
constexpr int kJobs = 2;

// Virtual-time fingerprints (FNV-1a over the TimingStats bits of every
// cell, see fingerprint()).  Virtual time is deterministic, so any
// change to these is a change to the reproduced results.
constexpr std::uint64_t kSweepFingerprint = 0xb23b8b14ffcf538d;  // seed 42
constexpr std::uint64_t kSweepStride2Fingerprint =  // stride2 half, any seed
    0x4370a00322323386;
constexpr std::uint64_t kRing1kFingerprint = 0xdf883663a687f35b;
constexpr std::uint64_t kAllreduce256Fingerprint = 0x9cd8b5783f8e8835;

struct Options {
  std::string workload;
  std::uint64_t seed = kGoldenSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// --- result reporting --------------------------------------------------------

class Report {
 public:
  /// One attempted output (a cell or a plan); counts a failure if !ok.
  void attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  /// A failed check that is not itself an attempt (e.g. a fingerprint).
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }
  [[nodiscard]] bool correct() const { return failed_ == 0; }

  void print(std::ostream& os, const std::string& workload) const {
    for (const Metric& m : metrics_)
      os << workload << "  " << std::left << std::setw(40) << m.name
         << std::setprecision(6) << m.value << " " << m.unit << "\n";
    os << workload << "  error_rate " << failed_ << "/" << attempted_ << " = "
       << (attempted_ ? static_cast<double>(failed_) /
                            static_cast<double>(attempted_)
                      : 0.0)
       << "\n";
    os << std::setprecision(17) << "{\"correct\": "
       << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      os << (i ? ", " : "") << "\"" << metrics_[i].name
         << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
         << metrics_[i].unit << "\"}";
    os << "}}" << std::endl;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

std::uint64_t fingerprint(std::uint64_t h, const nc::TimingStats& t) {
  for (const double d : {t.mean, t.stddev, t.min, t.max}) h = fnv1a(h, &d, sizeof d);
  h = fnv1a(h, &t.samples, sizeof t.samples);
  return fnv1a(h, &t.rejected, sizeof t.rejected);
}

bool same_timing(const nc::TimingStats& a, const nc::TimingStats& b) {
  return fingerprint(kFnvBasis, a) == fingerprint(kFnvBasis, b);
}

void check_fingerprint(Report& rep, const char* what, std::uint64_t got,
                       std::uint64_t pinned) {
  std::cout << "fingerprint " << what << " 0x" << std::hex << got << std::dec
            << "\n";
  if (got != pinned) {
    std::ostringstream os;
    os << what << " fingerprint 0x" << std::hex << got << " != pinned 0x"
       << pinned;
    rep.fail(os.str());
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- direct path and compiled path over a unit of cells -----------------------

/// One experiment cell: the arguments of run_pattern_experiment.
struct Cell {
  minimpi::UniverseOptions opts;
  const nc::CommPattern* pattern;
  std::string scheme;
  const nc::Layout* layout;
};

/// The cells a workload times on the direct and compiled paths, at 0
/// and `hi` reps: the line through the two points has the set-up cost as
/// its intercept and the steady-state cost per rep as its slope.
struct Unit {
  std::vector<Cell> cells;
  nc::HarnessConfig cfg;
  int hi = 20;

  /// Rank-steps one rep of the whole unit performs.
  [[nodiscard]] double ranks_per_rep() const {
    double n = 0.0;
    for (const Cell& c : cells) n += c.pattern->nranks();
    return n;
  }
};

struct UnitRun {
  double seconds = 0.0;
  std::vector<nc::RunResult> results;
  minimpi::PerfCounters pc;
  std::uint64_t allocs = 0;
};

UnitRun run_unit(const Unit& u, int reps, Report& rep, Tracer* tr) {
  UnitRun run;
  nc::HarnessConfig cfg = u.cfg;
  cfg.reps = reps;
  const std::uint64_t allocs0 = allocations();
  const auto t0 = Clock::now();
  for (const Cell& c : u.cells) {
    minimpi::UniverseOptions opts = c.opts;
    if (tr) opts.perf = &run.pc;
    Scope span(tr, "runtime.direct");
    run.results.push_back(
        nc::run_pattern_experiment(opts, *c.pattern, c.scheme, *c.layout, cfg));
  }
  run.seconds = seconds_between(t0, Clock::now());
  run.allocs = allocations() - allocs0;
  for (const nc::RunResult& r : run.results)
    rep.attempt(r.verified && (r.data_checked || u.cfg.verify_samples == 0),
                "direct cell " + r.scheme + " / " + r.layout + " not verified");
  return run;
}

std::uint64_t fingerprint(const UnitRun& lo, const UnitRun& hi) {
  std::uint64_t h = kFnvBasis;
  for (const UnitRun* run : {&lo, &hi})
    for (const nc::RunResult& r : run->results) h = fingerprint(h, r.timing);
  return h;
}

/// Run `step(i)` at least `min_iters` times, then again while one more
/// step as long as the last one still ends before `until`.
template <class Fn>
void repeat_until(Clock::time_point until, int min_iters, Fn&& step) {
  Clock::duration last{};
  for (int i = 0; i < min_iters || Clock::now() + last < until; ++i) {
    const auto t0 = Clock::now();
    step(i);
    last = Clock::now() - t0;
  }
}

/// Untraced (0, hi) pairs of direct runs; every metric is a median over
/// pairs.
struct DirectFit {
  std::vector<double> slope, setup, hi_seconds;
  std::uint64_t virtual_time = 0;  ///< fingerprint of the first pair
  UnitRun first_lo, first_hi;      ///< oracle for the compiled path

  void run_pair(const Unit& u, Report& rep) {
    // Alternating the order keeps slow drift out of the slope.
    UnitRun lo, hi;
    if (slope.size() % 2 == 0) {
      lo = run_unit(u, 0, rep, nullptr);
      hi = run_unit(u, u.hi, rep, nullptr);
    } else {
      hi = run_unit(u, u.hi, rep, nullptr);
      lo = run_unit(u, 0, rep, nullptr);
    }
    const std::uint64_t fp = fingerprint(lo, hi);
    if (slope.empty()) {
      virtual_time = fp;
      first_lo = lo;
      first_hi = hi;
    } else if (fp != virtual_time) {
      rep.fail("direct runs of one unit disagree on virtual time");
    }
    slope.push_back((hi.seconds - lo.seconds) / u.hi);
    setup.push_back(lo.seconds);
    hi_seconds.push_back(hi.seconds);
  }
};

/// Compile every cell of the unit, check each plan, and replay it at 0
/// and `hi` reps against the direct oracle.
struct CompileRound {
  double compile_s = 0.0;
  double replay_lo_s = 0.0;
  double replay_hi_s = 0.0;
  double verify_s = 0.0;
  double selfcheck_s = 0.0;
  std::size_t actions = 0;
};

CompileRound compile_unit(const Unit& u, const DirectFit& oracle, Report& rep,
                          Tracer* tr) {
  CompileRound round;
  nc::HarnessConfig cfg = u.cfg;
  cfg.reps = u.hi;
  for (std::size_t i = 0; i < u.cells.size(); ++i) {
    const Cell& c = u.cells[i];
    nc::plan::CommPlan cp;
    {
      Scope span(tr, "plan.compile_cell");
      round.compile_s += time_call([&] {
        cp = nc::plan::compile_cell(c.opts, *c.pattern, c.scheme, *c.layout,
                                    cfg);
      });
    }
    rep.attempt(cp.valid, "plan for " + c.scheme + " invalid: " +
                              cp.invalid_reason);
    if (!cp.valid) continue;

    if (tr) {
      // The two checking stages compile_cell runs inside, re-run from
      // outside on the plan it returned so each can be timed.
      bool verified = false;
      {
        Scope s(tr, "plan.verify_plan");
        verified = nc::plan::verify_plan(cp).ok();
        round.verify_s += s.close();
      }
      bool selfchecked = true;
      {
        Scope s(tr, "plan.interpret");
        try {
          (void)nc::plan::detail::interpret(cp, cp.captured_reps,
                                            cp.captured_reps);
        } catch (const std::exception&) {
          selfchecked = false;
        }
        round.selfcheck_s += s.close();
      }
      if (!verified || !selfchecked)
        rep.fail("plan for " + c.scheme +
                 " is valid but verify_plan/interpret disagree");
      for (const auto& rank_reps : cp.programs)
        for (const auto& program : rank_reps) round.actions += program.size();
    }

    nc::RunResult lo, hi;
    {
      Scope s(tr, "plan.replay");
      round.replay_lo_s += time_call([&] { lo = cp.replay(0); });
    }
    {
      Scope s(tr, "plan.replay");
      round.replay_hi_s += time_call([&] { hi = cp.replay(u.hi); });
    }
    if (!same_timing(lo.timing, oracle.first_lo.results[i].timing) ||
        !same_timing(hi.timing, oracle.first_hi.results[i].timing))
      rep.fail("replay of " + c.scheme + " differs from direct execution");
  }
  return round;
}

// --- datatype layer ----------------------------------------------------------

/// Pack throughput of one 64 KiB message of `layout`, after checking the
/// packed bytes against the layout's element order.
double pack_gbps(const nc::Layout& layout, Report& rep, Tracer& tr) {
  Scope span(&tr, "datatype.pack");
  const minimpi::Datatype dt = layout.datatype();
  std::vector<double> src(layout.footprint_elems());
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = nc::fill_value(i);
  std::vector<double> out(layout.element_count());
  const std::size_t bytes = layout.payload_bytes();

  std::size_t pos = 0;
  minimpi::pack(src.data(), 1, dt, out.data(), bytes, pos);
  bool ok = pos == bytes;
  layout.for_each_element([&](std::size_t k, std::size_t e) {
    ok = ok && out[k] == src[e];
  });
  rep.attempt(ok, "pack of " + layout.name() + " produced wrong bytes");

  constexpr int kBatches = 7;
  constexpr int kPacks = 400;
  std::vector<double> rate;
  for (int b = 0; b < kBatches; ++b) {
    const double s = time_call([&] {
      for (int i = 0; i < kPacks; ++i) {
        std::size_t p = 0;
        minimpi::pack(src.data(), 1, dt, out.data(), bytes, p);
      }
    });
    rate.push_back(static_cast<double>(bytes) * kPacks / s / 1e9);
  }
  return median(rate);
}

void report_pack_rates(std::uint64_t seed, Report& rep, Tracer& tr) {
  constexpr std::size_t kElems = 65536 / sizeof(double);
  const nc::Layout stride2 = nc::LayoutAxis::stride2().factory(kElems);
  const nc::Layout indexed =
      nc::LayoutAxis::indexed_blocks(4, seed).factory(kElems);
  rep.metric("datatype.pack_gbps.stride2", pack_gbps(stride2, rep, tr), "GB/s");
  rep.metric("datatype.pack_gbps.indexed", pack_gbps(indexed, rep, tr), "GB/s");
}

// --- metrics shared by every workload ------------------------------------------

void report_compiled(const Unit& u, const std::vector<CompileRound>& rounds,
                     Report& rep) {
  std::vector<double> compile, slope;
  for (const CompileRound& r : rounds) {
    compile.push_back(r.compile_s);
    slope.push_back((r.replay_hi_s - r.replay_lo_s) / u.hi);
  }
  rep.metric("compile_s", median(compile), "s");
  rep.metric("replay_rank_steps_per_s", u.ranks_per_rep() / median(slope),
             "1/s");
}

/// Traced direct pairs: per-rep cost and the runtime counters as
/// marginals between 0 and `hi` reps, so set-up work cancels.
/// Returns the traced high-rep runs.
std::vector<UnitRun> report_runtime_layer(const Unit& u, Report& rep,
                                          Tracer& tr) {
  constexpr int kPairs = 3;
  std::vector<double> slope;
  std::vector<UnitRun> his;
  UnitRun lo;
  for (int i = 0; i < kPairs; ++i) {
    lo = run_unit(u, 0, rep, &tr);
    his.push_back(run_unit(u, u.hi, rep, &tr));
    slope.push_back((his.back().seconds - lo.seconds) / u.hi);
  }
  const UnitRun& hi = his.back();
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double msgs = d(hi.pc.messages) - d(lo.pc.messages);
  const auto per_msg = [&](std::uint64_t hi_v, std::uint64_t lo_v) {
    return msgs > 0 ? (d(hi_v) - d(lo_v)) / msgs : 0.0;
  };
  rep.metric("runtime.per_rep_ms", median(slope) * 1e3, "ms");
  rep.metric("runtime.heap_allocs_per_message", per_msg(hi.allocs, lo.allocs),
             "allocs/msg");
  rep.metric("runtime.pool_misses_per_message",
             per_msg(hi.pc.envelope_allocs + hi.pc.request_allocs,
                     lo.pc.envelope_allocs + lo.pc.request_allocs),
             "misses/msg");
  rep.metric("runtime.match_probes_per_message",
             per_msg(hi.pc.match_probes, lo.pc.match_probes), "probes/msg");
  rep.metric("runtime.fiber_switches_per_rank_step",
             (d(hi.pc.fiber_switches) - d(lo.pc.fiber_switches)) /
                 (u.ranks_per_rep() * u.hi),
             "switches/step");
  return his;
}

void report_plan_layer(const Unit& u, const DirectFit& oracle, Report& rep,
                       Tracer& tr) {
  const CompileRound r = compile_unit(u, oracle, rep, &tr);
  rep.metric("plan.verify_s", r.verify_s, "s");
  rep.metric("plan.selfcheck_s", r.selfcheck_s, "s");
  // Derived, not measured: compile_cell's own verify and self-check are
  // taken to cost what the outside re-runs above cost.
  rep.metric("plan.capture_s", r.compile_s - r.verify_s - r.selfcheck_s, "s");
  rep.metric("plan.actions", static_cast<double>(r.actions), "count");
  rep.metric("plan.verify_us_per_action",
             r.actions ? r.verify_s * 1e6 / static_cast<double>(r.actions) : 0.0,
             "us");
  rep.metric("plan.replay_ms_per_rep",
             (r.replay_hi_s - r.replay_lo_s) / u.hi * 1e3, "ms");
}

void report_experiment_layer(const std::vector<double>& cell_s,
                             double efficiency, double overhead, Report& rep) {
  std::vector<double> sorted = cell_s;
  std::sort(sorted.rbegin(), sorted.rend());
  const std::size_t tenth = (sorted.size() + 9) / 10;
  double total = 0.0, slowest = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    if (i < tenth) slowest += sorted[i];
  }
  rep.metric("experiment.cells", static_cast<double>(cell_s.size()), "count");
  rep.metric("experiment.cell_ms_p50", percentile(cell_s, 50) * 1e3, "ms");
  rep.metric("experiment.cell_ms_p90", percentile(cell_s, 90) * 1e3, "ms");
  rep.metric("experiment.straggler_share", total > 0 ? slowest / total : 0.0,
             "share");
  rep.metric("experiment.parallel_efficiency", efficiency, "share");
  rep.metric("trace.overhead_share", overhead, "share");
}

// --- paper_sweep ---------------------------------------------------------------

nc::ExperimentPlan sweep_plan(std::uint64_t seed) {
  nc::ExperimentPlan plan;
  plan.name = "paper_sweep";
  plan.profiles.clear();
  for (const auto& name : minimpi::MachineProfile::names())
    plan.profiles.push_back(&minimpi::MachineProfile::by_name(name));
  plan.schemes = nc::pattern_scheme_names();
  plan.layouts = {nc::LayoutAxis::stride2(),
                  nc::LayoutAxis::indexed_blocks(4, seed)};
  plan.sizes_bytes = nc::log_sizes(1e4, 1e8, 2);
  plan.harness.reps = 20;
  plan.functional_payload_limit = 1 << 16;
  return plan;
}

/// The layouts run_plan builds before its first cell: [layout][size].
std::vector<std::vector<nc::Layout>> build_grid(const nc::ExperimentPlan& plan,
                                                Tracer* tr) {
  std::vector<std::vector<nc::Layout>> grid;
  for (const nc::LayoutAxis& axis : plan.layouts) {
    grid.emplace_back();
    for (const std::size_t bytes : plan.effective_sizes()) {
      Scope span(tr, "datatype.layout_build");
      grid.back().push_back(
          axis.factory(std::max<std::size_t>(1, bytes / sizeof(double))));
    }
  }
  return grid;
}

std::uint64_t sweep_fingerprint(const nc::PlanResult& r, bool stride2_only) {
  std::uint64_t h = kFnvBasis;
  for (std::size_t pi = 0; pi < r.profile_count; ++pi)
    for (std::size_t li = 0; li < (stride2_only ? 1 : r.layout_count); ++li)
      for (const auto& row : r.sweep(pi, li).cells)
        for (const nc::RunResult& c : row) h = fingerprint(h, c.timing);
  return h;
}

void check_sweep(const nc::PlanResult& r, std::uint64_t seed, Report& rep) {
  for (const nc::SweepResult& s : r.sweeps)
    for (const auto& row : s.cells)
      for (const nc::RunResult& c : row)
        rep.attempt(c.verified, "sweep cell " + s.profile_name + " / " +
                                    c.layout + " / " + c.scheme +
                                    " not verified");
  check_fingerprint(rep, "paper_sweep stride2", sweep_fingerprint(r, true),
                    kSweepStride2Fingerprint);
  if (seed == kGoldenSeed)
    check_fingerprint(rep, "paper_sweep", sweep_fingerprint(r, false),
                      kSweepFingerprint);
}

/// The grid's (skx, stride2, 1 MB) row over all schemes: the sweep's
/// cells on the direct and compiled paths.
Unit sweep_row(const nc::ExperimentPlan& plan,
               const std::vector<std::vector<nc::Layout>>& grid,
               const nc::CommPattern& pingpong) {
  const std::vector<std::size_t> sizes = plan.effective_sizes();
  const auto it = std::find(sizes.begin(), sizes.end(), 1'000'000u);
  if (it == sizes.end()) throw std::logic_error("sweep grid lacks 1 MB");
  const auto si = static_cast<std::size_t>(it - sizes.begin());
  Unit u;
  u.cfg = plan.harness;
  u.hi = plan.harness.reps;
  for (const std::string& scheme : plan.schemes)
    u.cells.push_back({plan.universe_options(0), &pingpong, scheme, &grid[0][si]});
  return u;
}

Clock::time_point deadline(const Options& o) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(o.seconds));
}

void run_paper_sweep(const Options& o, Report& rep, Tracer& tr) {
  const auto until = deadline(o);
  const nc::ExperimentPlan plan = sweep_plan(o.seed);
  const auto pingpong = nc::CommPattern::by_name("pingpong");
  const double cells = static_cast<double>(plan.cell_count());

  if (!o.trace) {
    // Each round measures every metric once, so all of them sample the
    // whole run alike.
    std::vector<double> setup, sweep_s;
    std::vector<std::vector<nc::Layout>> grid = build_grid(plan, nullptr);
    const Unit row = sweep_row(plan, grid, *pingpong);
    (void)run_unit(row, row.hi, rep, nullptr);  // warm-up
    DirectFit fit;
    std::vector<CompileRound> rounds;
    std::uint64_t fp = 0;
    repeat_until(until, 3, [&](int i) {
      setup.push_back(time_call([&] { (void)build_grid(plan, nullptr); }));
      for (int k = 0; k < 60; ++k) fit.run_pair(row, rep);
      for (int k = 0; k < 40; ++k)
        rounds.push_back(compile_unit(row, fit, rep, nullptr));
      nc::PlanResult r;
      sweep_s.push_back(time_call([&] { r = nc::run_plan(plan, {kJobs}); }));
      const std::uint64_t f = sweep_fingerprint(r, false);
      if (i == 0) {
        fp = f;
        check_sweep(r, o.seed, rep);
      } else {
        rep.attempt(f == fp, "repeated sweeps disagree on virtual time");
      }
    });
    rep.metric("cells_per_s", cells / median(sweep_s), "1/s");
    rep.metric("rank_steps_per_s", row.ranks_per_rep() / median(fit.slope),
               "1/s");
    rep.metric("setup_s", median(setup), "s");
    report_compiled(row, rounds, rep);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  Scope root(&tr, "workload.paper_sweep");
  report_pack_rates(o.seed, rep, tr);

  // Untraced executor walls: serial (the tracing baseline) and parallel.
  // The parallel sweep runs first so both serial passes see a warm heap.
  nc::PlanResult parallel;
  const double parallel_s =
      time_call([&] { parallel = nc::run_plan(plan, {kJobs}); });
  check_sweep(parallel, o.seed, rep);
  const double serial_s = time_call([&] { (void)nc::run_plan(plan, {1}); });

  // Traced serial pass over the calls run_plan makes: grid, then cells.
  count_allocations(true);
  minimpi::PerfCounters pc;
  std::vector<double> cell_s;
  std::vector<std::vector<nc::Layout>> grid;
  std::uint64_t fp = kFnvBasis;
  double traced_s = 0.0;
  {
    Scope pass(&tr, "experiment.serial_pass");
    grid = build_grid(plan, &tr);
    for (std::size_t pi = 0; pi < plan.profiles.size(); ++pi) {
      minimpi::UniverseOptions opts = plan.universe_options(pi);
      opts.perf = &pc;
      for (std::size_t li = 0; li < plan.layouts.size(); ++li)
        for (const nc::Layout& layout : grid[li])
          for (const std::string& scheme : plan.schemes) {
            Scope cell(&tr, "experiment.cell");
            const nc::RunResult r = nc::run_pattern_experiment(
                opts, *pingpong, scheme, layout, plan.harness);
            cell_s.push_back(cell.close());
            fp = fingerprint(fp, r.timing);
          }
    }
    traced_s = pass.close();
  }
  rep.attempt(fp == sweep_fingerprint(parallel, false),
              "serial pass disagrees with run_plan on virtual time");

  double blocks = 0.0;
  for (const auto& per_size : grid)
    for (const nc::Layout& l : per_size)
      blocks += static_cast<double>(l.stats().block_count);
  const double build_s = tr.total("datatype.layout_build");
  rep.metric("datatype.layout_build_s", build_s, "s");
  rep.metric("datatype.layout_build_ns_per_block", build_s * 1e9 / blocks, "ns");
  rep.metric("datatype.blocks", blocks, "count");
  rep.metric("runtime.messages", static_cast<double>(pc.messages), "count");

  const Unit row = sweep_row(plan, grid, *pingpong);
  DirectFit oracle;
  oracle.run_pair(row, rep);
  (void)report_runtime_layer(row, rep, tr);
  report_plan_layer(row, oracle, rep, tr);
  report_experiment_layer(cell_s, serial_s / (kJobs * parallel_s),
                          traced_s / serial_s - 1.0, rep);
}

// --- ring1k and allreduce256 ---------------------------------------------------

struct DirectWorkload {
  const char* name;
  const char* pattern;
  int hi;
  std::uint64_t pinned;
};

void run_direct_workload(const DirectWorkload& w, const Options& o,
                         Report& rep, Tracer& tr) {
  const auto until = deadline(o);
  const auto pattern = nc::CommPattern::by_name(w.pattern);
  // 8 KiB stride-2 "vector type", metadata-only payloads checked by
  // sampled digests: the universe_scale cell.
  constexpr std::size_t kElems = 8192 / sizeof(double);
  minimpi::UniverseOptions opts;
  opts.profile = &minimpi::MachineProfile::skx_impi();
  opts.functional = false;

  Tracer* traced = o.trace ? &tr : nullptr;
  Scope root(traced, std::string("workload.") + w.name);
  nc::Layout layout = [&] {
    Scope s(traced, "datatype.layout_build");
    return nc::LayoutAxis::stride2().factory(kElems);
  }();
  Unit u;
  u.cells.push_back({opts, pattern.get(), "vector type", &layout});
  u.cfg.verify_samples = 4;
  u.hi = w.hi;

  (void)run_unit(u, 0, rep, nullptr);  // warm-up: lazy set-up, page faults

  if (!o.trace) {
    DirectFit fit;
    std::vector<CompileRound> rounds;
    // Two direct pairs per compile round: the direct path is the noisier
    // of the two, and on allreduce256 a compile costs about two pairs.
    repeat_until(until, 3, [&](int) {
      fit.run_pair(u, rep);
      fit.run_pair(u, rep);
      rounds.push_back(compile_unit(u, fit, rep, nullptr));
    });
    check_fingerprint(rep, w.name, fit.virtual_time, w.pinned);
    rep.metric("cells_per_s", 1.0 / median(fit.hi_seconds), "1/s");
    rep.metric("rank_steps_per_s", u.ranks_per_rep() / median(fit.slope),
               "1/s");
    rep.metric("setup_s", median(fit.setup), "s");
    report_compiled(u, rounds, rep);
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  report_pack_rates(o.seed, rep, tr);
  const double build_s = tr.total("datatype.layout_build");
  const double blocks = static_cast<double>(layout.stats().block_count);
  rep.metric("datatype.layout_build_s", build_s, "s");
  rep.metric("datatype.layout_build_ns_per_block", build_s * 1e9 / blocks, "ns");
  rep.metric("datatype.blocks", blocks, "count");

  // Untraced pairs: the tracing baseline and the compiled path's oracle.
  DirectFit oracle;
  for (int i = 0; i < 3; ++i) oracle.run_pair(u, rep);
  check_fingerprint(rep, w.name, oracle.virtual_time, w.pinned);
  count_allocations(true);
  std::vector<double> cell_s;
  UnitRun last;
  for (const UnitRun& r : report_runtime_layer(u, rep, tr)) {
    cell_s.push_back(r.seconds);
    last = r;
  }
  rep.metric("runtime.messages", static_cast<double>(last.pc.messages), "count");
  report_plan_layer(u, oracle, rep, tr);
  // A single-universe workload: run_plan has nothing to spread over its
  // workers, so the experiment layer's cells are the traced high-rep runs.
  report_experiment_layer(cell_s, 1.0,
                          median(cell_s) / median(oracle.hi_seconds) - 1.0,
                          rep);
}

// --- command line --------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper_sweep|ring1k|allreduce256"
               " --seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--trace-out") o.trace_out = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  Report rep;
  Tracer tr;
  try {
    if (o.workload == "paper_sweep") {
      run_paper_sweep(o, rep, tr);
    } else if (o.workload == "ring1k") {
      run_direct_workload({"ring1k", "graph(ring:1024)", 20,
                           kRing1kFingerprint},
                          o, rep, tr);
    } else if (o.workload == "allreduce256") {
      run_direct_workload({"allreduce256", "collective(allreduce:ring:256)", 2,
                           kAllreduce256Fingerprint},
                          o, rep, tr);
    } else {
      usage("unknown workload '" + o.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  count_allocations(false);
  if (o.trace && !o.trace_out.empty() &&
      !tr.write(o.trace_out, o.workload, o.seed))
    std::cerr << "perfbench: could not write " << o.trace_out << "\n";
  rep.print(std::cout, o.workload);
  return rep.correct() ? 0 : 1;
}
