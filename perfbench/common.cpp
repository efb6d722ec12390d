#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/registry.h"
#include "support/rng.h"
#include "workloads/workload.h"

namespace perfbench {

void Digest::add(std::uint64_t v) { h_ = flexcl::stableHashCombine(h_, v); }

void Digest::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

void Digest::add(std::string_view s) {
  add(flexcl::stableHash(s.data(), s.size()));
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

int passCount(double seconds, double nominalPassSeconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / nominalPassSeconds)));
}

std::vector<const flexcl::workloads::Workload*> allKernels() {
  std::vector<const flexcl::workloads::Workload*> list;
  for (const auto& w : flexcl::workloads::rodiniaSuite()) list.push_back(&w);
  for (const auto& w : flexcl::workloads::polybenchSuite()) list.push_back(&w);
  return list;
}

const flexcl::workloads::Workload* findKernel(const std::string& fullName) {
  for (const flexcl::workloads::Workload* w : allKernels()) {
    if (w->fullName() == fullName) return w;
  }
  return nullptr;
}

std::uint64_t dataSeed(const std::string& benchmark, const std::string& kernel,
                       std::uint64_t seed) {
  const std::uint64_t stock = flexcl::stableHash(
      kernel.data(), kernel.size(),
      flexcl::stableHash(benchmark.data(), benchmark.size()));
  return seed == 0 ? stock : flexcl::stableHashCombine(stock, seed);
}

double LayerClock::total() const {
  double sum = 0;
  for (const auto& [name, seconds] : seconds_) sum += seconds;
  return sum;
}

std::uint64_t counterValue(std::string_view name) {
  for (const auto& sample : flexcl::obs::Registry::global().counters()) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

void finishLayerTable(const LayerClock& layers, double tracedWall,
                      double untracedWall, Outcome& out) {
  const double spans = layers.total();
  const double other = tracedWall - spans;
  std::vector<std::pair<std::string, double>> rows(layers.all().begin(),
                                                   layers.all().end());
  rows.emplace_back("dse.other_s", other);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });

  char line[160];
  std::snprintf(line, sizeof(line), "layer table (traced wall %.3f s):",
                tracedWall);
  out.report.emplace_back(line);
  for (const auto& [name, seconds] : rows) {
    std::snprintf(line, sizeof(line), "  %-16s %10.4f s  %6.2f%%", name.c_str(),
                  seconds, tracedWall > 0 ? 100.0 * seconds / tracedWall : 0.0);
    out.report.emplace_back(line);
  }
  if (!rows.empty()) out.report.push_back("largest layer: " + rows.front().first);

  const double coverage = tracedWall > 0 ? 100.0 * spans / tracedWall : 0.0;
  out.add("dse.other_s", other, "s");
  out.add("trace.wall_s", tracedWall, "s");
  out.add("trace.coverage_pct", coverage, "%");
  out.add("trace.overhead_pct",
          untracedWall > 0 ? 100.0 * (tracedWall / untracedWall - 1.0) : 0.0,
          "%");
  if (coverage < 95.0) {
    std::snprintf(line, sizeof(line),
                  "layer spans cover %.2f%% of the traced wall (< 95%%)",
                  coverage);
    out.fail(line);
  }
}

namespace {

void pinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);  // best effort: a refusal only
                                            // leaves the thread where it is
}

/// Best of three timings of a dependent walk over 1 MiB (cache- and
/// memory-bound, like the library's maps and traces).
double probeSeconds() {
  static std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(1u << 18);
    for (std::uint32_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<std::uint32_t>((i * 2654435761ULL + 12345) % v.size());
    }
    return v;
  }();
  double best = 1e9;
  std::uint32_t at = 0;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point start = Clock::now();
    for (std::size_t step = 0; step < next.size(); ++step) at = next[at];
    best = std::min(best, secondsSince(start));
  }
  volatile std::uint32_t sink = at;
  (void)sink;
  return best;
}

}  // namespace

void moveToQuietestCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
      }
    }
    return allowed;
  }();
  int quietest = -1;
  double fastest = 0;
  for (const int cpu : cpus) {
    pinTo(cpu);
    const double t = probeSeconds();
    if (quietest < 0 || t < fastest) {
      quietest = cpu;
      fastest = t;
    }
  }
  if (quietest >= 0) pinTo(quietest);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
