// FlexCL end-to-end benchmark: the command-line entry point.
//
//   flexcl_perfbench --workload explore|validate|serve-replay --seed N
//                    --seconds S --trace 0|1 [--kernels default|all]
//                    [--store DIR] [--git-sha SHA] [--source-digest HEX]
//
// Prints report lines, the run context, the digests, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer split with --trace 1.
// Exits 1 when an output check fails, 2 on bad arguments, 3 when the build
// is not an optimised, sanitizer-free one. See README.md in this directory.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json's end_to_end list (every workload reports each).
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"designs_per_s", "1/s"},
    {"kernel_ms_p50", "ms"},    {"kernel_ms_p80", "ms"},
    {"model_error_pct", "%"},   {"pick_gap_pct", "%"},
    {"cold_p50_ms", "ms"},      {"cold_p95_ms", "ms"},
    {"warm_p50_ms", "ms"},      {"warm_p95_ms", "ms"},
    {"requests_per_s", "1/s"},  {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

/// Must match BENCHMARK.json's per_layer list. A layer a workload never
/// enters reports 0.
const MetricSpec kPerLayer[] = {
    {"compile.s", "s"},
    {"compile.runs", "count"},
    {"data.s", "s"},
    {"model.init.s", "s"},
    {"static.s", "s"},
    {"raceverify.s", "s"},
    {"simprep.race_elided", "count"},
    {"profile.s", "s"},
    {"profile.static_exact", "count"},
    {"profile.interp_fallback", "count"},
    {"profile.interp_work_items", "count"},
    {"schedule.s", "s"},
    {"schedule.analyses", "count"},
    {"schedule.cache_hit_ratio", "ratio"},
    {"model.s", "s"},
    {"model.estimates", "count"},
    {"model.us_per_estimate", "us"},
    {"simprep.s", "s"},
    {"simprep.calls", "count"},
    {"simprep.work_items", "count"},
    {"simprep.accesses", "count"},
    {"simprep.ns_per_work_item", "ns"},
    {"sim.s", "s"},
    {"sim.runs", "count"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.skip_ahead_ratio", "ratio"},
    {"sim.simulated_cycles", "cycles"},
    {"dram.accesses", "count"},
    {"dram.row_hit_ratio", "ratio"},
    {"sdaccel.s", "s"},
    {"serve.open.s", "s"},
    {"serve.parse.s", "s"},
    {"serve.handle.s", "s"},
    {"serve.persist.s", "s"},
    {"serve.requests", "count"},
    {"serve.hit_ratio", "ratio"},
    {"store.read_s", "s"},
    {"store.write_s", "s"},
    {"store.entries_written", "count"},
    {"store.bytes_written", "bytes"},
    {"store.entries_loaded", "count"},
    {"dse.other_s", "s"},
    {"trace.wall_s", "s"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

std::string jsonString(const std::string& s) {
  std::string quoted = "\"";
  quoted += flexcl::serve::jsonEscapeString(s);
  quoted += '"';
  return quoted;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "flexcl_perfbench: %s\nusage: flexcl_perfbench --workload "
               "explore|validate|serve-replay --seed N --seconds S --trace 0|1 "
               "[--kernels default|all] [--store DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n",
               message);
  return 2;
}

/// Orders `metrics` as `specs`, filling metrics a workload does not report
/// with 0 when `fill` (per-layer), or recording a problem otherwise.
std::vector<Metric> canonical(const std::vector<Metric>& metrics,
                              const MetricSpec* specs, std::size_t n, bool fill,
                              perfbench::Outcome& out) {
  std::vector<Metric> ordered;
  for (std::size_t i = 0; i < n; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : metrics) {
      if (m.name == specs[i].name) found = &m;
    }
    if (found && found->unit != specs[i].unit) {
      out.fail("metric " + found->name + " has unit " + found->unit);
    }
    if (!found && !fill) out.fail(std::string("metric ") + specs[i].name + " missing");
    double value = found ? found->value : 0.0;
    if (!std::isfinite(value)) {
      out.fail(std::string("metric ") + specs[i].name + " is not finite");
      value = 0.0;
    }
    ordered.push_back({specs[i].name, value, specs[i].unit});
  }
  for (const Metric& m : metrics) {
    bool known = false;
    for (std::size_t i = 0; i < n; ++i) known = known || m.name == specs[i].name;
    if (!known) out.fail("unlisted metric " + m.name);
  }
  return ordered;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string gitSha = "none", sourceDigest = "none";
  bool haveWorkload = false, haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      haveSeed = end && *end == '\0' && !value.empty();
      if (!haveSeed) return usage("--seed needs a non-negative integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      haveSeconds = end && *end == '\0' && options.seconds > 0;
      if (!haveSeconds) return usage("--seconds needs a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace is 0 or 1");
      options.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--kernels") {
      options.kernels = value;
    } else if (flag == "--store") {
      options.storeDir = value;
    } else if (flag == "--git-sha") {
      gitSha = value;
    } else if (flag == "--source-digest") {
      sourceDigest = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }

  // Run context; timings from an unoptimised or sanitized build are refused.
  const std::string buildType = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  bool optimised = buildType == "Release" || buildType == "RelWithDebInfo" ||
                   buildType == "MinSizeRel";
#ifndef NDEBUG
  optimised = false;
#endif
  const bool sanitized =
      PERFBENCH_SANITIZED || flags.find("-fsanitize") != std::string::npos;
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf(
      "context: {\"build_type\": %s, \"compiler\": %s, \"cxx_flags\": %s, "
      "\"git_sha\": %s, \"source_digest\": %s, \"nproc\": %u, \"jobs\": 1, "
      "\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d}\n",
      jsonString(buildType).c_str(), jsonString(PERFBENCH_COMPILER).c_str(),
      jsonString(flags).c_str(), jsonString(gitSha).c_str(),
      jsonString(sourceDigest).c_str(), nproc, jsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), number(options.seconds).c_str(),
      options.trace ? 1 : 0);
  if (!optimised || sanitized) {
    std::fprintf(stderr,
                 "flexcl_perfbench: refusing to report from a %s%s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 buildType.empty() ? "unoptimised" : buildType.c_str(),
                 sanitized ? " sanitizer" : "");
    return 3;
  }

  perfbench::Outcome out;
  if (options.workload == "explore") {
    out = perfbench::runExplore(options);
  } else if (options.workload == "validate") {
    out = perfbench::runValidate(options);
  } else if (options.workload == "serve-replay") {
    out = perfbench::runServeReplay(options);
  } else {
    return usage(("unknown workload " + options.workload).c_str());
  }

  std::vector<Metric> metrics;
  if (options.trace) {
    metrics = canonical(out.metrics, kPerLayer, std::size(kPerLayer), true, out);
  } else {
    out.add("ok_ratio",
            out.attempted ? 1.0 - static_cast<double>(out.failed) / out.attempted : 0.0,
            "ratio");
    metrics = canonical(out.metrics, kEndToEnd, std::size(kEndToEnd), false, out);
  }
  if (out.attempted == 0) out.fail("no operation attempted");

  for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
  for (const auto& [name, hex] : out.digests) {
    std::printf("%s: %s\n", name.c_str(), hex.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-26s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& problem : out.problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", problem.c_str());
  }
  const bool correct = out.problems.empty() && out.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + jsonString(metrics[i].name) + ": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": " + jsonString(metrics[i].unit) +
            "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
