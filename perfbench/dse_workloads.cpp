// The `explore` and `validate` workloads: cold design-space exploration of
// bundled kernels, model-only (explore) or model + System-Run simulator +
// SDAccel estimator through dse::Explorer (validate, the paper's Table 2).
//
// A request is one kernel's whole design space. Cold: a fresh model::FlexCl
// and result cache. Warm: the same request repeated in the same process, as
// a long-running `flexcl serve` would answer it (the model's stage caches
// and the EvalCache kept).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common.h"
#include "dse/design_space.h"
#include "dse/explorer.h"
#include "ir/lower.h"
#include "model/flexcl.h"
#include "obs/registry.h"
#include "runtime/compile_cache.h"
#include "runtime/eval_cache.h"
#include "sdaccel/sdaccel_estimator.h"
#include "sim/system_sim.h"
#include "support/diagnostics.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace flexcl;

/// `validate`'s kernel set: every bundled kernel with a barrier, the
/// high-error Rodinia kernels (nw, gaussian, kmeans, cfd), and PolyBench's
/// highest pick-gap kernel. The full 60-kernel sweep takes ~40 s a pass, too
/// long for a run; `--kernels all` runs it (selftest.py pins its accuracy).
const char* const kValidateKernels[] = {
    // barrier kernels
    "hotspot/hotspot", "hybridsort/prefix", "lud/diagonal", "lud/perimeter",
    "particlefilter/sum", "pathfinder/dynproc", "srad/reduce",
    // high-error Rodinia kernels
    "nw/nw1", "nw/nw2", "gaussian/fan1", "gaussian/fan2", "kmeans/center",
    "kmeans/swap", "cfd/memset", "cfd/initialize", "cfd/compute",
    "cfd/time_step",
    // PolyBench
    "conv2d/conv2d",
};

/// Cheap kernels with a non-zero pick gap: the accuracy canary of the
/// workloads that never run the simulator themselves.
const char* const kCanaryKernels[] = {"cfd/memset", "gaussian/fan1",
                                      "srad/compress"};

/// Repeats of explore's warm request (an EvalCache lookup per design).
constexpr int kWarmRepeats = 25;

/// Set-ups (compile + data) at the start of every timed pass.
constexpr int kSetupsPerPass = 10;

/// Nominal seconds of one timed pass (4-vCPU x86-64 host, GCC 12 Release):
/// explore ~9 s, validate ~5.3 s. A run makes --seconds / nominal passes,
/// a count fixed by the arguments alone, so every commit's minima and
/// fastest pass are taken over the same number of samples.
constexpr double kExplorePassSeconds = 8.0;
constexpr double kValidatePassSeconds = 5.0;

/// One bundled kernel, compiled, with its data built from the run seed.
struct Kernel {
  const workloads::Workload* workload = nullptr;
  std::unique_ptr<ir::CompiledProgram> program;
  const ir::Function* fn = nullptr;
  std::vector<std::vector<std::uint8_t>> buffers;
  std::vector<interp::KernelArg> args;
  std::vector<model::DesignPoint> space;
  /// EvalCache kernel key (the CompileCache key, as the Explorer's callers
  /// pass it).
  std::uint64_t key = 0;

  [[nodiscard]] model::LaunchInfo launch() const {
    model::LaunchInfo info;
    info.fn = fn;
    info.range = workload->range;
    info.args = args;
    info.buffers = &buffers;
    return info;
  }
};

bool hasBarriers(const ir::Function& fn) {
  for (const auto& bb : fn.blocks()) {
    for (const ir::Instruction* inst : bb->instructions()) {
      if (inst->opcode() == ir::Opcode::Barrier) return true;
    }
  }
  return false;
}

template <std::size_t N>
std::vector<const workloads::Workload*> namedKernels(const char* const (&names)[N],
                                                     Outcome& out) {
  std::vector<const workloads::Workload*> list;
  for (const char* name : names) {
    if (const workloads::Workload* w = findKernel(name)) {
      list.push_back(w);
    } else {
      out.fail(std::string("unknown kernel ") + name);
    }
  }
  return list;
}

/// Front end: preprocess, parse, sema, lower, verify (ir::compileOpenCl).
bool compileKernel(const workloads::Workload& w, Kernel& k, Outcome& out) {
  DiagnosticEngine diags;
  k.workload = &w;
  k.program = ir::compileOpenCl(w.source, diags, w.defines);
  k.fn = k.program ? k.program->module->findFunction(w.kernel) : nullptr;
  if (!k.fn) {
    out.fail(w.fullName() + ": compile failed: " + diags.str());
    return false;
  }
  k.key = runtime::kernelKeyHash(w.source, w.kernel, w.defines);
  return true;
}

/// Buffers and arguments through the workload's public setup, seeded.
bool buildData(std::uint64_t seed, Kernel& k, Outcome& out) {
  const workloads::Workload& w = *k.workload;
  workloads::DataBuilder builder(dataSeed(w.benchmark, w.kernel, seed));
  w.setup(builder);
  k.buffers = std::move(builder.buffers);
  k.args = std::move(builder.args);
  if (k.args.size() != k.fn->arguments().size()) {
    out.fail(w.fullName() + ": setup built a wrong argument count");
    return false;
  }
  k.space = dse::enumerateDesignSpace(w.range, hasBarriers(*k.fn));
  return true;
}

void digestData(const Kernel& k, Digest& d) {
  for (const auto& buffer : k.buffers) {
    d.add(std::string_view(reinterpret_cast<const char*>(buffer.data()),
                           buffer.size()));
  }
}

bool setupKernels(const std::vector<const workloads::Workload*>& list,
                  std::uint64_t seed, std::vector<Kernel>& kernels,
                  Outcome& out) {
  kernels.clear();
  kernels.reserve(list.size());
  for (const workloads::Workload* w : list) {
    Kernel k;
    if (!compileKernel(*w, k, out) || !buildData(seed, k, out)) return false;
    kernels.push_back(std::move(k));
  }
  return true;
}

// --- output checks + digests ------------------------------------------------

void addEstimate(const model::Estimate& e, const std::string& where,
                 Digest& d, Outcome& out) {
  ++out.attempted;
  d.add(static_cast<std::uint64_t>(e.ok));
  d.add(e.cycles);
  d.add(e.breakdown.compute);
  d.add(e.breakdown.memory);
  d.add(e.breakdown.fillDrain);
  d.add(e.breakdown.dispatch);
  if (!e.ok) {
    ++out.failed;
    return;
  }
  const double total = e.breakdown.total();
  if (std::abs(total - e.cycles) > 1e-6 * std::max(1.0, std::abs(e.cycles))) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "%s: breakdown sums to %.17g, cycles %.17g", where.c_str(),
                  total, e.cycles);
    out.fail(line);
  }
}

void addSim(const sim::SimResult& r, Digest& d, Outcome& out) {
  ++out.attempted;
  if (!r.ok) ++out.failed;
  d.add(static_cast<std::uint64_t>(r.ok));
  d.add(r.cycles);
  d.add(r.milliseconds);
  d.add(r.iiHw);
  d.add(r.depthHw);
  d.add(static_cast<std::uint64_t>(r.effectivePes));
  d.add(static_cast<std::uint64_t>(r.effectiveCus));
  d.add(r.dramAccesses);
  d.add(r.dramRowHits);
  d.add(r.workGroups);
  d.add(r.dramRefreshStallCycles);
  d.add(r.dramBankWaitCycles);
  d.add(r.dramBusWaitCycles);
  d.add(r.memStallCycles);
  d.add(r.dispatchStallCycles);
}

/// SDAccel's modelled failures (nullopt) are results, not errors.
void addSdaccel(const std::optional<sdaccel::SdaccelEstimate>& s, Digest& d) {
  d.add(static_cast<std::uint64_t>(s.has_value()));
  if (s) {
    d.add(s->cycles);
    d.add(s->estimationMinutes);
  }
}

/// The Explorer computes the unoptimised baseline only when some design has
/// both a model and a simulator result.
bool wantsBaseline(const std::vector<const model::Estimate*>& estimates,
                   const std::vector<const sim::SimResult*>& sims) {
  for (std::size_t i = 0; i < estimates.size(); ++i) {
    const double fl = estimates[i]->ok ? estimates[i]->cycles : 0;
    const double sm = sims[i]->ok ? sims[i]->cycles : 0;
    if (fl > 0 && sm > 0) return true;
  }
  return false;
}

/// Digest of one validated kernel, in design order, then the baseline.
void digestValidated(const Kernel& k,
                     const std::vector<const model::Estimate*>& estimates,
                     const std::vector<const sim::SimResult*>& sims,
                     const std::vector<const std::optional<sdaccel::SdaccelEstimate>*>& sds,
                     const sim::SimResult* baseline, Digest& d, Outcome& out) {
  const std::string name = k.workload->fullName();
  for (std::size_t i = 0; i < k.space.size(); ++i) {
    if (!estimates[i] || !sims[i] || !sds[i]) {
      out.fail(name + ": design " + k.space[i].str() + " not evaluated");
      return;
    }
    addEstimate(*estimates[i], name + " " + k.space[i].str(), d, out);
    addSim(*sims[i], d, out);
    addSdaccel(*sds[i], d);
  }
  if (baseline) addSim(*baseline, d, out);
}

struct Times {
  double cold = 0;
  double warm = 0;
};

struct Accuracy {
  std::string suite;
  double errorPct = 0;
  double pickGapPct = 0;
};

// --- untraced requests --------------------------------------------------------

Times exploreKernel(const Kernel& k, Digest& d, Outcome& out) {
  const model::LaunchInfo launch = k.launch();
  std::vector<std::shared_ptr<const model::Estimate>> estimates(k.space.size());
  Times t;
  const Clock::time_point coldStart = Clock::now();
  model::FlexCl flexcl(model::Device::virtex7());
  runtime::EvalCache cache;
  for (std::size_t i = 0; i < k.space.size(); ++i) {
    estimates[i] = cache.flexcl(k.key, k.space[i], [&] {
      return flexcl.estimate(launch, k.space[i]);
    });
  }
  t.cold = secondsSince(coldStart);
  // A warm request takes tens of microseconds, so it is repeated and keeps
  // its fastest repeat.
  bool sameAnswers = true;
  for (int repeat = 0; repeat < kWarmRepeats; ++repeat) {
    const Clock::time_point warmStart = Clock::now();
    for (std::size_t i = 0; i < k.space.size(); ++i) {
      const auto again = cache.flexcl(k.key, k.space[i], [&] {
        return flexcl.estimate(launch, k.space[i]);
      });
      sameAnswers = sameAnswers && again == estimates[i];
    }
    const double warm = secondsSince(warmStart);
    t.warm = repeat == 0 ? warm : std::min(t.warm, warm);
  }

  const std::string name = k.workload->fullName();
  if (!sameAnswers || cache.flexclCounters().misses != k.space.size()) {
    out.fail(name + ": warm request was not answered from the cache");
  }
  for (std::size_t i = 0; i < k.space.size(); ++i) {
    addEstimate(*estimates[i], name + " " + k.space[i].str(), d, out);
  }
  return t;
}

Times validateKernel(const Kernel& k, Digest& d, Outcome& out,
                     Accuracy* accuracy) {
  const model::LaunchInfo launch = k.launch();
  dse::ExplorerOptions options;
  options.jobs = 1;
  options.kernelHash = k.key;
  Times t;
  const Clock::time_point coldStart = Clock::now();
  model::FlexCl flexcl(model::Device::virtex7());
  runtime::EvalCache cache;
  options.evalCache = &cache;
  dse::ExplorationResult cold;
  {
    dse::Explorer explorer(flexcl, launch, options);
    cold = explorer.explore(k.space);
  }
  t.cold = secondsSince(coldStart);
  const std::uint64_t coldMisses = cache.flexclCounters().misses +
                                   cache.simCounters().misses +
                                   cache.sdaccelCounters().misses;
  const Clock::time_point warmStart = Clock::now();
  dse::ExplorationResult warm;
  {
    dse::Explorer explorer(flexcl, launch, options);
    warm = explorer.explore(k.space);
  }
  t.warm = secondsSince(warmStart);

  const std::string name = k.workload->fullName();
  bool same = warm.designs.size() == cold.designs.size() &&
              warm.pickGapPct == cold.pickGapPct;
  for (std::size_t i = 0; same && i < cold.designs.size(); ++i) {
    same = warm.designs[i].flexclCycles == cold.designs[i].flexclCycles &&
           warm.designs[i].simCycles == cold.designs[i].simCycles;
  }
  if (!same) out.fail(name + ": warm request answered differently");
  if (cache.flexclCounters().misses + cache.simCounters().misses +
          cache.sdaccelCounters().misses !=
      coldMisses) {
    out.fail(name + ": warm request recomputed a cached result");
  }

  std::map<std::uint64_t, const model::Estimate*> estimates;
  std::map<std::uint64_t, const sim::SimResult*> sims;
  std::map<std::uint64_t, const std::optional<sdaccel::SdaccelEstimate>*> sds;
  cache.forEachFlexcl([&](const runtime::EvalKey& key, const model::Estimate& e) {
    estimates[key.designId] = &e;
  });
  cache.forEachSim([&](const runtime::EvalKey& key, const sim::SimResult& r) {
    sims[key.designId] = &r;
  });
  cache.forEachSdaccel(
      [&](const runtime::EvalKey& key,
          const std::optional<sdaccel::SdaccelEstimate>& s) {
        sds[key.designId] = &s;
      });
  const auto find = [](const auto& map, std::uint64_t id) {
    const auto it = map.find(id);
    return it == map.end() ? nullptr : it->second;
  };
  std::vector<const model::Estimate*> e;
  std::vector<const sim::SimResult*> s;
  std::vector<const std::optional<sdaccel::SdaccelEstimate>*> sd;
  for (const model::DesignPoint& dp : k.space) {
    e.push_back(find(estimates, dp.stableId()));
    s.push_back(find(sims, dp.stableId()));
    sd.push_back(find(sds, dp.stableId()));
  }
  const sim::SimResult* baseline = nullptr;
  if (std::find(e.begin(), e.end(), nullptr) == e.end() &&
      std::find(s.begin(), s.end(), nullptr) == s.end() && wantsBaseline(e, s)) {
    baseline = find(sims, dse::unoptimizedBaseline(launch.range).stableId());
    if (!baseline) out.fail(name + ": baseline not simulated");
  }
  digestValidated(k, e, s, sd, baseline, d, out);
  if (accuracy) {
    accuracy->suite = k.workload->suite;
    accuracy->errorPct = cold.avgFlexclErrorPct;
    accuracy->pickGapPct = cold.pickGapPct;
  }
  return t;
}

/// Mean of per-kernel averages over kernels, as bench::summarize computes it.
std::pair<double, double> meanAccuracy(const std::vector<Accuracy>& rows,
                                       const std::string& suite = "") {
  double err = 0, gap = 0;
  int n = 0;
  for (const Accuracy& a : rows) {
    if (!suite.empty() && a.suite != suite) continue;
    err += a.errorPct;
    gap += a.pickGapPct;
    ++n;
  }
  return n > 0 ? std::make_pair(err / n, gap / n) : std::make_pair(0.0, 0.0);
}

// --- traced replay ------------------------------------------------------------

/// Work counters of the traced replay that come from return values.
struct TraceCounts {
  std::uint64_t compiles = 0;
  std::uint64_t estimates = 0;
  std::uint64_t interpWorkItems = 0;
  std::uint64_t analysisHits = 0;
  std::uint64_t analysisMisses = 0;
  std::uint64_t simprepCalls = 0;
  std::uint64_t simprepWorkItems = 0;
  std::uint64_t simprepAccesses = 0;
  double simulatedCycles = 0;
  std::uint64_t dramAccesses = 0;
  std::uint64_t dramRowHits = 0;
};

/// Replays one kernel's cold request through the layers' public calls, in
/// the Explorer's order, with a span around each call:
///   compile, data; per local size static inputs, profile (and race
///   verdict); per analysis signature the schedule; per design the estimate;
///   then (validate) per local size the simulator input, per design the
///   simulation and the SDAccel estimate, and the unoptimised baseline.
void tracedKernel(const workloads::Workload& w, std::uint64_t seed,
                  bool validate, LayerClock& layers, TraceCounts& counts,
                  Digest& d, Outcome& out) {
  Kernel k;
  const bool compiled =
      layers.time("compile.s", [&] { return compileKernel(w, k, out); });
  ++counts.compiles;
  if (!compiled ||
      !layers.time("data.s", [&] { return buildData(seed, k, out); })) {
    return;
  }
  const model::LaunchInfo launch = k.launch();
  const auto flexcl = layers.time("model.init.s", [] {
    return std::make_unique<model::FlexCl>(model::Device::virtex7());
  });
  runtime::EvalCache cache;

  using LocalSize = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;
  const auto localSizeOf = [&](const model::DesignPoint& dp) {
    const interp::NdRange range = model::FlexCl::rangeFor(launch, dp);
    return LocalSize{range.local[0], range.local[1], range.local[2]};
  };
  std::vector<std::size_t> sizeReps;
  {
    std::set<LocalSize> seen;
    for (std::size_t i = 0; i < k.space.size(); ++i) {
      if (seen.insert(localSizeOf(k.space[i])).second) sizeReps.push_back(i);
    }
  }
  for (std::size_t rep : sizeReps) {
    const model::DesignPoint& dp = k.space[rep];
    layers.time("static.s", [&] { return &flexcl->staticInputsFor(launch, dp); });
    const interp::KernelProfile& profile =
        layers.time("profile.s", [&]() -> const interp::KernelProfile& {
          return flexcl->profileFor(launch, dp);
        });
    if (profile.provenance == interp::KernelProfile::Provenance::Interpreted) {
      counts.interpWorkItems += profile.profiledWorkItems;
    }
    if (validate) {
      layers.time("raceverify.s",
                  [&] { return &flexcl->raceVerdictFor(launch, dp); });
    }
  }
  {
    std::set<model::FlexCl::AnalysisSignature> seen;
    for (const model::DesignPoint& dp : k.space) {
      if (seen.insert(flexcl->analysisSignatureFor(launch, dp)).second) {
        layers.time("schedule.s",
                    [&] { return flexcl->analysisShared(launch, dp); });
      }
    }
  }
  std::vector<std::shared_ptr<const model::Estimate>> estimates;
  for (const model::DesignPoint& dp : k.space) {
    estimates.push_back(cache.flexcl(k.key, dp, [&] {
      return layers.time("model.s", [&] { return flexcl->estimate(launch, dp); });
    }));
  }
  counts.estimates += k.space.size();
  const runtime::CounterSnapshot analyses = flexcl->analysisCacheCounters();
  counts.analysisHits += analyses.hits;
  counts.analysisMisses += analyses.misses;

  const std::string name = w.fullName();
  if (!validate) {
    for (std::size_t i = 0; i < k.space.size(); ++i) {
      addEstimate(*estimates[i], name + " " + k.space[i].str(), d, out);
    }
    return;
  }

  sim::SimScratch scratch;
  std::map<LocalSize, sim::SimInput> inputs;
  const auto inputFor = [&](const model::DesignPoint& dp) -> const sim::SimInput& {
    const LocalSize size = localSizeOf(dp);
    const auto it = inputs.find(size);
    if (it != inputs.end()) return it->second;
    const bool raceFree = layers.time("raceverify.s", [&] {
      return flexcl->raceVerdictFor(launch, dp).raceFree();
    });
    sim::SimInputOptions options;
    options.conflictTracking = !raceFree;
    sim::SimInput input = layers.time("simprep.s", [&] {
      return sim::prepareSimInput(*k.fn, model::FlexCl::rangeFor(launch, dp),
                                  k.args, k.buffers, options, scratch);
    });
    ++counts.simprepCalls;
    counts.simprepWorkItems += input.workItemCount();
    counts.simprepAccesses += input.accesses.size();
    return inputs.emplace(size, std::move(input)).first->second;
  };
  const auto simulate = [&](const model::DesignPoint& dp) {
    return cache.sim(k.key, dp, [&] {
      const sim::SimInput& input = inputFor(dp);
      sim::SimResult r = layers.time(
          "sim.s", [&] { return sim::simulate(input, flexcl->device(), dp); });
      counts.simulatedCycles += r.cycles;
      counts.dramAccesses += r.dramAccesses;
      counts.dramRowHits += r.dramRowHits;
      return r;
    });
  };
  for (std::size_t rep : sizeReps) inputFor(k.space[rep]);
  std::vector<std::shared_ptr<const sim::SimResult>> sims;
  for (const model::DesignPoint& dp : k.space) sims.push_back(simulate(dp));
  std::vector<std::shared_ptr<const std::optional<sdaccel::SdaccelEstimate>>> sds;
  for (const model::DesignPoint& dp : k.space) {
    sds.push_back(cache.sdaccel(k.key, dp, [&] {
      return layers.time("sdaccel.s", [&] {
        const auto analysis = flexcl->analysisShared(launch, dp);
        return sdaccel::estimateSdaccel(
            *k.fn, *analysis, flexcl->device(), dp,
            model::FlexCl::rangeFor(launch, dp).globalCount());
      });
    }));
  }

  std::vector<const model::Estimate*> e;
  std::vector<const sim::SimResult*> s;
  std::vector<const std::optional<sdaccel::SdaccelEstimate>*> sd;
  for (std::size_t i = 0; i < k.space.size(); ++i) {
    e.push_back(estimates[i].get());
    s.push_back(sims[i].get());
    sd.push_back(sds[i].get());
  }
  std::shared_ptr<const sim::SimResult> baseline;
  if (wantsBaseline(e, s)) {
    baseline = simulate(dse::unoptimizedBaseline(launch.range));
  }
  digestValidated(k, e, s, sd, baseline.get(), d, out);
}

// --- workload runs ------------------------------------------------------------

Outcome runDse(const Options& options, bool validate) {
  Outcome out;
  std::vector<const workloads::Workload*> list;
  if (options.kernels == "all") {
    list = allKernels();
  } else if (options.kernels != "default") {
    out.fail("--kernels must be 'default' or 'all'");
    return out;
  } else {
    list = validate ? namedKernels(kValidateKernels, out) : allKernels();
  }
  if (!out.problems.empty()) return out;

  std::vector<Kernel> kernels;
  const auto setUp = [&] {
    const Clock::time_point start = Clock::now();
    return setupKernels(list, options.seed, kernels, out) ? secondsSince(start)
                                                          : -1.0;
  };
  const double firstSetup = setUp();
  if (firstSetup < 0) return out;
  Digest data;
  std::size_t designsPerPass = 0;
  for (const Kernel& k : kernels) {
    digestData(k, data);
    designsPerPass += k.space.size();
  }
  out.digests.emplace_back("data_digest", data.hex());
  char line[200];
  std::snprintf(line, sizeof(line), "%zu kernels, %zu design points per pass",
                kernels.size(), designsPerPass);
  out.report.emplace_back(line);

  const auto request = [&](const Kernel& k, Digest& d, Accuracy* accuracy) {
    return validate ? validateKernel(k, d, out, accuracy) : exploreKernel(k, d, out);
  };

  if (options.trace) {
    // Untraced cold pass (digest + wall to compare against), then the
    // traced replay of the same work with the registry counters on.
    Digest untraced;
    double untracedWall = firstSetup;
    for (const Kernel& k : kernels) untracedWall += request(k, untraced, nullptr).cold;
    kernels.clear();

    obs::Registry::global().reset();
    obs::setEnabled(true);
    LayerClock layers;
    TraceCounts counts;
    Digest traced;
    const Clock::time_point start = Clock::now();
    for (const workloads::Workload* w : list) {
      tracedKernel(*w, options.seed, validate, layers, counts, traced, out);
    }
    const double tracedWall = secondsSince(start);
    obs::setEnabled(false);

    out.digests.emplace_back("results_digest", untraced.hex());
    out.digests.emplace_back("traced_results_digest", traced.hex());
    if (traced.value() != untraced.value()) {
      out.fail("traced replay digest differs from the untraced run");
    }
    for (const auto& [layer, seconds] : layers.all()) out.add(layer, seconds, "s");
    out.add("compile.runs", static_cast<double>(counts.compiles), "count");
    out.add("profile.static_exact",
            static_cast<double>(counterValue("analysis.staticprof.exact")), "count");
    out.add("profile.interp_fallback",
            static_cast<double>(counterValue("model.profiles_computed")), "count");
    out.add("profile.interp_work_items", static_cast<double>(counts.interpWorkItems),
            "count");
    out.add("schedule.analyses", static_cast<double>(counts.analysisMisses), "count");
    const std::uint64_t lookups = counts.analysisHits + counts.analysisMisses;
    out.add("schedule.cache_hit_ratio",
            lookups ? static_cast<double>(counts.analysisHits) / lookups : 0.0,
            "ratio");
    out.add("model.estimates", static_cast<double>(counts.estimates), "count");
    out.add("model.us_per_estimate",
            counts.estimates ? 1e6 * layers.of("model.s") / counts.estimates : 0.0,
            "us");
    out.add("simprep.race_elided",
            static_cast<double>(counterValue("sim.race_check.elided")), "count");
    out.add("simprep.calls", static_cast<double>(counts.simprepCalls), "count");
    out.add("simprep.work_items", static_cast<double>(counts.simprepWorkItems),
            "count");
    out.add("simprep.accesses", static_cast<double>(counts.simprepAccesses), "count");
    out.add("simprep.ns_per_work_item",
            counts.simprepWorkItems
                ? 1e9 * layers.of("simprep.s") / counts.simprepWorkItems
                : 0.0,
            "ns");
    const std::uint64_t events = counterValue("sim.events");
    const std::uint64_t skipped =
        counterValue("sim.skip_ahead.chain") + counterValue("sim.skip_ahead.issue");
    out.add("sim.runs", static_cast<double>(counterValue("sim.runs")), "count");
    out.add("sim.events", static_cast<double>(events), "count");
    out.add("sim.ns_per_event", events ? 1e9 * layers.of("sim.s") / events : 0.0,
            "ns");
    out.add("sim.skip_ahead_ratio",
            events ? static_cast<double>(skipped) / events : 0.0, "ratio");
    out.add("sim.simulated_cycles", counts.simulatedCycles, "cycles");
    out.add("dram.accesses", static_cast<double>(counts.dramAccesses), "count");
    out.add("dram.row_hit_ratio",
            counts.dramAccesses
                ? static_cast<double>(counts.dramRowHits) / counts.dramAccesses
                : 0.0,
            "ratio");
    finishLayerTable(layers, tracedWall, untracedWall, out);
    return out;
  }

  // A fixed number of timed passes over the kernel set. Each pass starts
  // with a few set-ups, then does identical work. The set-up and each
  // kernel's request keep their fastest of the passes, and the throughputs
  // come from the fastest whole pass: the minimum filters interference from
  // other tenants of the machine, which comes and goes over seconds.
  const int passes = passCount(
      options.seconds, validate ? kValidatePassSeconds : kExplorePassSeconds);
  std::vector<Times> best(kernels.size());
  std::vector<Accuracy> accuracy(kernels.size());
  double setup = 0, fastestCold = 0, fastestPass = 0;
  Digest first;
  for (int p = 0; p < passes; ++p) {
    moveToQuietestCpu();
    for (int i = 0; i < kSetupsPerPass; ++i) {
      const double s = setUp();
      if (s < 0) return out;
      setup = p == 0 && i == 0 ? s : std::min(setup, s);
    }
    Digest d;
    Times pass;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const Times t = request(kernels[i], d, p == 0 ? &accuracy[i] : nullptr);
      pass.cold += t.cold;
      pass.warm += t.warm;
      best[i].cold = p == 0 ? t.cold : std::min(best[i].cold, t.cold);
      best[i].warm = p == 0 ? t.warm : std::min(best[i].warm, t.warm);
    }
    if (p == 0) {
      first = d;
      fastestCold = pass.cold;
      fastestPass = pass.cold + pass.warm;
    } else if (d.value() != first.value()) {
      out.fail("pass " + std::to_string(p + 1) + " results differ from the first pass");
    }
    fastestCold = std::min(fastestCold, pass.cold);
    fastestPass = std::min(fastestPass, pass.cold + pass.warm);
    std::snprintf(line, sizeof(line), "pass %d: cold %.3f s, warm %.3f s", p + 1,
                  pass.cold, pass.warm);
    out.report.emplace_back(line);
  }
  out.digests.emplace_back("results_digest", first.hex());
  out.add("peak_rss_mb", peakRssMb(), "MB");

  std::vector<double> cold, warm;
  for (const Times& t : best) {
    cold.push_back(t.cold);
    warm.push_back(t.warm);
  }
  std::pair<double, double> acc;
  if (validate) {
    acc = meanAccuracy(accuracy);
    for (const char* suite : {"rodinia", "polybench"}) {
      const auto [err, gap] = meanAccuracy(accuracy, suite);
      std::snprintf(line, sizeof(line),
                    "%s: avg FlexCL abs error %.1f%%, avg pick gap %.2f%%", suite,
                    err, gap);
      out.report.emplace_back(line);
    }
  } else {
    acc = accuracyCanary(options.seed, out);
  }
  std::snprintf(line, sizeof(line), "passes: %d over %zu kernel requests timed",
                passes, cold.size());
  out.report.emplace_back(line);

  out.add("setup_s", setup, "s");
  out.add("designs_per_s", fastestCold > 0 ? designsPerPass / fastestCold : 0.0,
          "1/s");
  out.add("kernel_ms_p50", 1e3 * percentile(cold, 0.50), "ms");
  out.add("kernel_ms_p80", 1e3 * percentile(cold, 0.80), "ms");
  out.add("model_error_pct", acc.first, "%");
  out.add("pick_gap_pct", acc.second, "%");
  out.add("cold_p50_ms", 1e3 * percentile(cold, 0.50), "ms");
  out.add("cold_p95_ms", 1e3 * percentile(cold, 0.95), "ms");
  out.add("warm_p50_ms", 1e3 * percentile(warm, 0.50), "ms");
  out.add("warm_p95_ms", 1e3 * percentile(warm, 0.95), "ms");
  out.add("requests_per_s",
          fastestPass > 0 ? 2.0 * kernels.size() / fastestPass : 0.0, "1/s");
  return out;
}

}  // namespace

std::pair<double, double> accuracyCanary(std::uint64_t seed, Outcome& out) {
  std::vector<Kernel> kernels;
  if (!setupKernels(namedKernels(kCanaryKernels, out), seed, kernels, out)) {
    return {0.0, 0.0};
  }
  std::vector<Accuracy> accuracy(kernels.size());
  Digest d;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    validateKernel(kernels[i], d, out, &accuracy[i]);
  }
  out.digests.emplace_back("canary_digest", d.hex());
  return meanAccuracy(accuracy);
}

Outcome runExplore(const Options& options) { return runDse(options, false); }
Outcome runValidate(const Options& options) { return runDse(options, true); }

}  // namespace perfbench
