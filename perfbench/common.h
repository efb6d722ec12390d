// Shared pieces of the FlexCL end-to-end benchmark: options, the result a
// workload hands back to main(), digests, percentiles, and the span clock
// the traced runs use to split host time across the library's layers.
//
// Every timing here is host time (steady_clock). Simulated cycles — the
// model's and the simulator's outputs — are results, never timings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flexcl::workloads {
struct Workload;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// explore / validate kernel set: "default" (the workload's own set) or
  /// "all" (the 60 bundled kernels; the accuracy pin in selftest.py).
  std::string kernels = "default";
  /// Root of the serve-replay stores; each run adds a directory of its own.
  std::string storeDir = ".bench_build/serve-store";
};

/// One reported number. Deterministic counts and ratios sit beside the
/// timings so a change can be attributed without trusting a noisy clock.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run hands back: the outcome counts of the final JSON
/// line, the metrics (end-to-end, or per-layer for a traced run), named
/// digests, and human-readable report lines printed above the JSON.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check violations (breakdown sums, warm/cold twins, traced vs
  /// untraced digests, determinism across passes). Any entry makes the run
  /// incorrect and the command exit non-zero.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::string> report;

  void fail(std::string problem) { problems.push_back(std::move(problem)); }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Order-sensitive 64-bit digest (stableHashCombine chain) over the values
/// a run produces. Doubles are hashed by bit pattern, so any change in any
/// digit of any result shows.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(std::string_view s);
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> samples, double q);

/// Timed passes of a run: `seconds` over a workload's nominal pass length,
/// rounded, at least 1. It depends on the arguments only, never on how fast
/// the passes run, so a faster commit gets no more samples than a slower one.
int passCount(double seconds, double nominalPassSeconds);

/// The 60 bundled kernels (Rodinia, then PolyBench), and one of them by its
/// "benchmark/kernel" name (nullptr when absent).
std::vector<const flexcl::workloads::Workload*> allKernels();
const flexcl::workloads::Workload* findKernel(const std::string& fullName);

/// Seed of a kernel's DataBuilder: the stock seed compileWorkload uses
/// (hash of kernel and benchmark name), mixed with the run seed. Seed 0
/// reproduces the stock data exactly.
std::uint64_t dataSeed(const std::string& benchmark, const std::string& kernel,
                       std::uint64_t seed);

/// Accumulates host seconds per layer for a traced run. `time` wraps one
/// call into a layer's public function; nested calls are not used, so each
/// span is the layer's self time (earlier stages are already cached).
class LayerClock {
 public:
  template <typename Fn>
  decltype(auto) time(const std::string& layer, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    struct Stop {
      LayerClock* self;
      const std::string* layer;
      Clock::time_point start;
      ~Stop() { self->seconds_[*layer] += secondsSince(start); }
    } stop{this, &layer, start};
    return fn();
  }
  void credit(const std::string& layer, double seconds) {
    seconds_[layer] += seconds;
  }
  [[nodiscard]] double of(const std::string& layer) const {
    const auto it = seconds_.find(layer);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double total() const;
  [[nodiscard]] const std::map<std::string, double>& all() const {
    return seconds_;
  }

 private:
  std::map<std::string, double> seconds_;
};

/// Value of a registry counter (0 when never registered).
std::uint64_t counterValue(std::string_view name);

/// Appends the layer table (sorted by share, remainder included) to the
/// report, adds `dse.other_s`, `trace.coverage_pct`, `trace.wall_s` and
/// `trace.overhead_pct` to the metrics, and records a problem when the
/// spans cover less than 95% of the traced wall.
void finishLayerTable(const LayerClock& layers, double tracedWall,
                      double untracedWall, Outcome& out);

/// Pins the calling thread to the CPU of the process's affinity set on
/// which a short memory-bound probe runs fastest. On a shared host the
/// cores' contention differs by up to 1.5x and drifts over seconds; each
/// pass of a run starts here, so its requests run on the least disturbed
/// core. The thread count stays one.
void moveToQuietestCpu();

/// Peak resident set of this process in MB.
double peakRssMb();

/// Model accuracy against the simulator on the fixed canary kernels (data
/// from `seed`), for the workloads whose requests never run the simulator.
/// Runs outside every timed and traced window. Returns {model_error_pct,
/// pick_gap_pct}; failures and check violations land in `out`.
std::pair<double, double> accuracyCanary(std::uint64_t seed, Outcome& out);

/// Workload entry points.
Outcome runExplore(const Options& options);
Outcome runValidate(const Options& options);
Outcome runServeReplay(const Options& options);

}  // namespace perfbench
