// The `serve-replay` workload: one closed-loop client (it sends the next
// line only after the previous reply) replaying a seeded request mix through
// serve::Dispatcher::handleLine — first over an empty store (cold pass),
// then through a fresh Dispatcher over the store that pass populated (warm
// restart). Every warm response must be byte-identical to its cold twin.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "obs/registry.h"
#include "obs/request_scope.h"
#include "obs/trace.h"
#include "serve/dispatcher.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "support/rng.h"
#include "workloads/workload.h"

namespace perfbench {
namespace {

using namespace flexcl;

// The repository has no recorded serve traffic, so the mix below is an
// assumption, not a measurement. Each choice and its reason:
//  - kernels: these 12 bundled kernels, because each answers every op
//    without error on the serve path's synthesized arguments and their
//    explores keep a cold pass within a few seconds;
//  - ops: every kernel explored once, plus draws of 60% estimate / 15% lint
//    / 15% explain / 10% explore, so the whole pass comes to about 56% / 14%
//    / 14% / 15% — the 4 : 1 : 1 : 1 estimate/lint/explain/explore ratio of
//    the repository's one other serve mix (bench/bench_serve_replay.cpp);
//  - skew: kernel popularity 1/rank (Zipf, s = 1), the usual first guess for
//    request popularity; it makes some requests repeat within a pass, as the
//    workload asks;
//  - designs: wg {32, 64, 128} x pe {1, 2, 4} x cu {1, 2}, the low end of
//    each axis of dse::enumerateDesignSpace (as bench_serve_replay's
//    wg {32, 64} x pe {1, 4} is), 18 points, few enough that the popular
//    kernels repeat designs.
// Figures that depend on the mix (the persist sweep's share grows with the
// entries cached so far) hold for this mix only.

/// Bundled kernels the mix draws from.
const char* const kServeKernels[] = {
    "cfd/memset",        "cfd/time_step",      "dwt2d/compute",
    "gaussian/fan1",     "hotspot/hotspot",    "hybridsort/prefix",
    "lud/diagonal",      "nw/nw1",             "particlefilter/sum",
    "pathfinder/dynproc", "srad/extract",      "conv2d/conv2d",
};

/// Requests per pass besides each kernel's own explore.
constexpr int kSkewedRequests = 188;

/// Set-ups (mix + store open) at the start of every timed pass.
constexpr int kSetupsPerPass = 8;

/// Nominal seconds of one timed pass (~4 s on a 4-vCPU x86-64 host, GCC 12
/// Release); see passCount.
constexpr double kPassSeconds = 4.0;

struct MixEntry {
  std::string line;
  std::size_t kernel = 0;
  bool explore = false;
  bool estimate = false;
};

struct Mix {
  std::vector<MixEntry> entries;
  std::size_t kernels = 0;
};

std::string sourceWithDefines(const workloads::Workload& w) {
  std::vector<std::pair<std::string, std::string>> defines(w.defines.begin(),
                                                           w.defines.end());
  std::sort(defines.begin(), defines.end());
  std::string source;
  for (const auto& [name, value] : defines) {
    source += "#define " + name + " " + value + "\n";
  }
  return source + w.source;
}

/// The mix: every kernel's explore (model only) once, plus skewed traffic —
/// kernels drawn with weight 1/rank over a shuffled ranking, ops 60%
/// estimate / 15% lint / 15% explain / 10% explore, seeded designs from a
/// small grid — so some requests repeat within a pass. Shuffled, then
/// numbered.
Mix buildMix(std::uint64_t seed, Outcome& out) {
  std::vector<const workloads::Workload*> kernels;
  for (const char* name : kServeKernels) {
    const workloads::Workload* found = findKernel(name);
    if (!found) {
      out.fail(std::string("unknown kernel ") + name);
      return {};
    }
    kernels.push_back(found);
  }
  std::vector<std::string> common;
  for (const workloads::Workload* w : kernels) {
    std::ostringstream os;
    os << "\"source\": \"" << serve::jsonEscapeString(sourceWithDefines(*w))
       << "\", \"kernel\": \"" << w->kernel << "\", \"global\": " << w->range.global[0]
       << ", \"global_y\": " << w->range.global[1];
    common.push_back(os.str());
  }

  // The layout (kernel ranking, ops, order) is fixed; the seed draws every
  // request's design. A request's cost depends on its position — the
  // Dispatcher's per-request persist sweep grows with the entries cached so
  // far — so runs at different seeds must share one layout to compare.
  constexpr std::uint64_t kLayoutSeed = 0x5e12e7e5eedULL;
  Rng rng(kLayoutSeed);
  Rng designs(stableHashCombine(kLayoutSeed, seed));
  std::vector<std::size_t> rank(kernels.size());
  for (std::size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  for (std::size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.nextBelow(i)]);
  }
  std::vector<double> cumulative;
  double total = 0;
  for (std::size_t r = 0; r < rank.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative.push_back(total);
  }
  const auto pickKernel = [&] {
    const double u = rng.nextDouble() * total;
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    return rank[std::min(r, rank.size() - 1)];
  };
  const int wgs[] = {32, 64, 128};
  const int pes[] = {1, 2, 4};
  const int cus[] = {1, 2};

  struct Draft {
    std::size_t kernel;
    std::string op;
    std::string design;
  };
  std::vector<Draft> drafts;
  for (std::size_t k = 0; k < kernels.size(); ++k) drafts.push_back({k, "explore", ""});
  for (int i = 0; i < kSkewedRequests; ++i) {
    const std::size_t k = pickKernel();
    const double u = rng.nextDouble();
    const int wg = wgs[designs.nextBelow(3)];
    std::ostringstream design;
    if (u < 0.60) {
      design << ", \"design\": {\"wg\": " << wg << ", \"pe\": " << pes[designs.nextBelow(3)]
             << ", \"cu\": " << cus[designs.nextBelow(2)] << "}";
      drafts.push_back({k, "estimate", design.str()});
    } else if (u < 0.90) {
      design << ", \"design\": {\"wg\": " << wg << "}";
      drafts.push_back({k, u < 0.75 ? "lint" : "explain", design.str()});
    } else {
      drafts.push_back({k, "explore", ""});
    }
  }
  for (std::size_t i = drafts.size(); i > 1; --i) {
    std::swap(drafts[i - 1], drafts[rng.nextBelow(i)]);
  }

  Mix mix;
  mix.kernels = kernels.size();
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    const Draft& d = drafts[i];
    MixEntry e;
    e.line = "{\"id\": " + std::to_string(i + 1) + ", \"op\": \"" + d.op + "\", " +
             common[d.kernel] + d.design + "}";
    e.kernel = d.kernel;
    e.explore = d.op == "explore";
    e.estimate = d.op == "estimate";
    mix.entries.push_back(std::move(e));
  }
  return mix;
}

/// Hands out a fresh, empty store directory for every set-up and pass, all
/// under a directory of this run's own inside `root`. When the run ends the
/// stores are retired by truncating their files, never by deleting them:
/// ext4 without a journal keeps freed inodes out of reuse for about a
/// minute, and every file created meanwhile scans past them, so deleting a
/// pass's thousands of entry files slows the store writes of whatever runs
/// next by up to 30x. The empty files and directories (one to two MB per
/// run) stay until the build directory is removed.
class StoreDirs {
 public:
  explicit StoreDirs(const std::string& root) {
    std::error_code ignored;
    std::filesystem::create_directories(root, ignored);
    std::string pattern = root + "/run-XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) run_ = pattern;
  }
  ~StoreDirs() {
    if (run_.empty()) return;
    std::error_code ec;
    for (std::filesystem::recursive_directory_iterator it(run_, ec), end;
         !ec && it != end; it.increment(ec)) {
      std::error_code ignored;
      if (it->is_regular_file(ignored)) std::filesystem::resize_file(it->path(), 0, ignored);
    }
    const int fd = ::open(run_.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
      ::syncfs(fd);
      ::close(fd);
    }
  }
  StoreDirs(const StoreDirs&) = delete;
  StoreDirs& operator=(const StoreDirs&) = delete;

  [[nodiscard]] bool ok() const { return !run_.empty(); }
  std::string next() { return run_ + "/" + std::to_string(next_++); }

 private:
  std::string run_;
  int next_ = 0;
};

/// The envelope's ok flag (the first "ok" key of the line).
bool responseOk(const std::string& response) {
  const std::size_t okTrue = response.find("\"ok\": true");
  const std::size_t okFalse = response.find("\"ok\": false");
  return okTrue != std::string::npos &&
         (okFalse == std::string::npos || okTrue < okFalse);
}

/// Design points an ok response answers: 1 per estimate, the evaluated
/// count of an explore, none for lint / explain.
std::uint64_t designsAnswered(const MixEntry& e, const std::string& response) {
  if (e.estimate) return 1;
  if (!e.explore) return 0;
  const std::size_t at = response.find("\"evaluated\": ");
  return at == std::string::npos
             ? 0
             : std::strtoull(response.c_str() + at + 13, nullptr, 10);
}

struct Pass {
  std::vector<std::string> cold, warm;
  std::vector<double> coldLatency, warmLatency;
  double wall = 0;
};

serve::DispatcherOptions storeOptions(const std::string& dir) {
  serve::DispatcherOptions d;
  d.storeDir = dir;
  return d;
}

/// One pass over the empty store directory `dir`: the cold Dispatcher, then
/// a fresh one over the store it populated.
Pass runPass(const Mix& mix, const std::string& dir, Outcome& out) {
  Pass pass;
  const Clock::time_point start = Clock::now();
  for (auto* responses : {&pass.cold, &pass.warm}) {
    std::vector<double>& latency =
        responses == &pass.cold ? pass.coldLatency : pass.warmLatency;
    serve::Dispatcher dispatcher(storeOptions(dir));
    if (!dispatcher.storeOk()) {
      out.fail("store: " + dispatcher.storeError());
      return pass;
    }
    for (const MixEntry& e : mix.entries) {
      const Clock::time_point sent = Clock::now();
      responses->push_back(dispatcher.handleLine(e.line));
      latency.push_back(secondsSince(sent));
    }
  }
  pass.wall = secondsSince(start);
  return pass;
}

/// Checks one pass's responses and digests the cold ones.
void checkPass(const Mix& mix, const Pass& pass, Digest& d, Outcome& out) {
  if (pass.cold.size() != mix.entries.size() || pass.warm.size() != mix.entries.size()) {
    out.fail("pass did not answer every request");
    return;
  }
  for (std::size_t i = 0; i < mix.entries.size(); ++i) {
    out.attempted += 2;
    if (!responseOk(pass.cold[i])) ++out.failed;
    if (!responseOk(pass.warm[i])) ++out.failed;
    if (pass.warm[i] != pass.cold[i]) {
      ++out.failed;
      out.fail("warm response " + std::to_string(i + 1) + " differs from its cold twin");
    }
    d.add(pass.cold[i]);
  }
}

/// Sum (seconds) of the serve.store.<family>.<op>_us histograms, over one
/// family or (empty) all of them.
double storeSeconds(const char* op, const std::string& family = "") {
  const std::string prefix = family.empty() ? "serve.store." : "serve.store." + family + ".";
  const std::string suffix = std::string(".") + op + "_us";
  double us = 0;
  for (const auto& sample : obs::Registry::global().histograms()) {
    const std::string& n = sample.name;
    if (n.rfind(prefix, 0) == 0 && n.size() > suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
      us += sample.value.sum;
    }
  }
  return us * 1e-6;
}

/// Layer metric of each library span category (obs::Span); categories not
/// listed (serve, dse) stay with the caller's own span.
const char* layerOfSpan(const char* category) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"compile", "compile.s"},   {"static-analysis", "static.s"},
      {"staticprof", "profile.s"}, {"profile", "profile.s"},
      {"raceverify", "raceverify.s"}, {"analysis", "schedule.s"},
      {"model", "model.s"},       {"sim", "sim.s"},
      {"sdaccel", "sdaccel.s"},
  };
  for (const auto& [name, layer] : kLayers) {
    if (std::strcmp(category, name) == 0) return layer;
  }
  return nullptr;
}

/// Credits each listed span's self time (its duration minus its direct
/// children's) to its layer; returns the total credited.
double creditSpanSelfTimes(std::vector<obs::SpanRecord> spans, LayerClock& layers) {
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.lane != b.lane ? a.lane < b.lane
           : a.startUs != b.startUs ? a.startUs < b.startUs
                                     : a.depth < b.depth;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // ancestors of the current span, one lane
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].lane != spans[i - 1].lane) open.clear();
    while (open.size() > static_cast<std::size_t>(std::max(0, spans[i].depth))) {
      open.pop_back();
    }
    self[i] += spans[i].durationUs;
    if (!open.empty()) self[open.back()] -= spans[i].durationUs;
    open.push_back(i);
  }
  double credited = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (const char* layer = layerOfSpan(spans[i].category)) {
      layers.credit(layer, self[i] * 1e-6);
      credited += self[i] * 1e-6;
    }
  }
  return credited;
}

/// Replays one pass with a span around each public call: Dispatcher
/// construction (store open), serve::parseRequest and Dispatcher::handle.
/// The layers inside handle (compile, static analysis, profile, schedule,
/// model) come from the library's own spans, store time from its store
/// histograms and the cache-persist sweep from the Dispatcher's phase
/// timers; all are subtracted to leave the serve layer's self time.
void tracedPass(const Mix& mix, const std::string& dir, double untracedWall,
                Outcome& out) {
  obs::Registry::global().reset();
  obs::setEnabled(true);
  obs::Tracer::global().clear();
  obs::Tracer::global().start();

  LayerClock layers;
  double handleSeconds = 0, persistSeconds = 0, openReads = 0;
  runtime::CounterSnapshot hits;
  serve::Store::StoreStats written;
  Digest d;
  const Clock::time_point start = Clock::now();
  for (const bool cold : {true, false}) {
    const double readsBefore = storeSeconds("read");
    const Clock::time_point opening = Clock::now();
    serve::Dispatcher dispatcher(storeOptions(dir));
    const double openSeconds = secondsSince(opening);
    const double reads = storeSeconds("read") - readsBefore;
    openReads += reads;
    layers.credit("serve.open.s", openSeconds - reads);
    for (const MixEntry& e : mix.entries) {
      const serve::ParsedRequest parsed =
          layers.time("serve.parse.s", [&] { return serve::parseRequest(e.line); });
      if (!parsed.ok) {
        out.fail("request did not parse: " + parsed.error);
        continue;
      }
      // An installed scope collects the Dispatcher's own phase timers.
      obs::RequestScope scope(parsed.request.id, parsed.request.op);
      const Clock::time_point sent = Clock::now();
      const std::string response = dispatcher.handle(parsed.request);
      handleSeconds += secondsSince(sent);
      for (const auto& [phase, us] : scope.phases()) {
        if (phase == "persist") persistSeconds += us * 1e-6;
      }
      if (cold) d.add(response);
    }
    const runtime::Stats stats = dispatcher.stats();
    for (const runtime::CounterSnapshot* c :
         {&stats.compile, &stats.flexclEval, &stats.sdaccelEval, &stats.simEval,
          &stats.profile, &stats.analysis}) {
      hits += *c;
    }
    hits += dispatcher.responseCounters();
    if (cold && dispatcher.store()) written = dispatcher.store()->stats();
  }
  const double tracedWall = secondsSince(start);
  obs::Tracer::global().stop();
  obs::setEnabled(false);

  // Self time of the library's own spans, credited to the layer they mark;
  // what remains of Dispatcher::handle is the serve layer's own time.
  const double inner = creditSpanSelfTimes(obs::Tracer::global().spans(), layers);
  obs::Tracer::global().clear();
  const double reads = storeSeconds("read");
  const double writes = storeSeconds("write");
  layers.credit("store.read_s", reads);
  layers.credit("store.write_s", writes);
  // Store writes by Dispatcher phase: compile outcomes are written while the
  // launch context is built, estimates in the eval phase and responses in
  // the render phase; the persist sweep writes the families no phase saves
  // (profiles, race verdicts, and a simulating explore's results). The
  // sweep re-offers every estimate too, but the eval phase saved each one
  // already — only a simulating explore, which the mix never sends, leaves
  // estimates for the sweep.
  double persistWrites = 0;
  for (const char* family : {"profile", "race", "sim", "sdaccel"}) {
    persistWrites += storeSeconds("write", family);
  }
  layers.credit("serve.persist.s", persistSeconds - persistWrites);
  layers.credit("serve.handle.s", handleSeconds - inner - (reads - openReads) -
                                      writes - (persistSeconds - persistWrites));

  out.digests.emplace_back("traced_results_digest", d.hex());
  for (const auto& [layer, seconds] : layers.all()) out.add(layer, seconds, "s");
  out.add("compile.runs", static_cast<double>(counterValue("compile.runs")), "count");
  out.add("serve.requests", static_cast<double>(counterValue("serve.requests")),
          "count");
  const std::uint64_t estimates = counterValue("model.estimates");
  out.add("model.estimates", static_cast<double>(estimates), "count");
  out.add("model.us_per_estimate",
          estimates ? 1e6 * layers.of("model.s") / estimates : 0.0, "us");
  out.add("profile.static_exact",
          static_cast<double>(counterValue("analysis.staticprof.exact")), "count");
  out.add("profile.interp_fallback",
          static_cast<double>(counterValue("model.profiles_computed")), "count");
  out.add("serve.hit_ratio", hits.hitRatePct() / 100.0, "ratio");
  out.add("store.entries_written", static_cast<double>(written.totalEntries()),
          "count");
  out.add("store.bytes_written", static_cast<double>(written.totalBytes()), "bytes");
  out.add("store.entries_loaded",
          static_cast<double>(counterValue("serve.store.loaded")), "count");
  finishLayerTable(layers, tracedWall, untracedWall, out);
}

}  // namespace

Outcome runServeReplay(const Options& options) {
  Outcome out;
  StoreDirs dirs(options.storeDir);
  if (!dirs.ok()) {
    out.fail("cannot create a store directory under " + options.storeDir);
    return out;
  }
  // Set-up: build the mix and open an empty store.
  Mix mix;
  const auto setUp = [&] {
    const std::string dir = dirs.next();
    const Clock::time_point start = Clock::now();
    mix = buildMix(options.seed, out);
    const serve::Dispatcher opened(storeOptions(dir));
    const double seconds = secondsSince(start);
    if (!opened.storeOk()) out.fail("store: " + opened.storeError());
    return out.problems.empty() ? seconds : -1.0;
  };
  if (setUp() < 0) return out;
  Digest mixDigest;
  for (const MixEntry& e : mix.entries) mixDigest.add(e.line);
  out.digests.emplace_back("mix_digest", mixDigest.hex());
  out.report.push_back(std::to_string(mix.entries.size()) + " requests per pass over " +
                       std::to_string(mix.kernels) + " kernels");

  if (options.trace) {
    const Pass pass = runPass(mix, dirs.next(), out);
    Digest untraced;
    checkPass(mix, pass, untraced, out);
    out.digests.emplace_back("results_digest", untraced.hex());
    tracedPass(mix, dirs.next(), pass.wall, out);
    if (out.digests.back().second != untraced.hex()) {
      out.fail("traced replay digest differs from the untraced run");
    }
    return out;
  }

  // A fixed number of passes, each starting with a few set-ups, then
  // replaying identical requests. The set-up and each request keep their
  // fastest of the passes: the minimum filters interference from other
  // tenants of the machine, which comes and goes over seconds. The
  // throughputs come from the pass whose requests took least time in all.
  const int passes = passCount(options.seconds, kPassSeconds);
  std::vector<double> cold, warm;
  double setup = 0, fastestPass = 0;
  std::uint64_t designsPerPass = 0;
  Digest first;
  for (int p = 0; p < passes; ++p) {
    moveToQuietestCpu();
    for (int i = 0; i < kSetupsPerPass; ++i) {
      const double s = setUp();
      if (s < 0) return out;
      setup = p == 0 && i == 0 ? s : std::min(setup, s);
    }
    const Pass pass = runPass(mix, dirs.next(), out);
    Digest d;
    checkPass(mix, pass, d, out);
    if (!out.problems.empty()) break;
    double requestSeconds = 0;
    for (std::size_t i = 0; i < mix.entries.size(); ++i) {
      requestSeconds += pass.coldLatency[i] + pass.warmLatency[i];
    }
    if (p == 0) {
      first = d;
      cold = pass.coldLatency;
      warm = pass.warmLatency;
      fastestPass = requestSeconds;
      for (std::size_t i = 0; i < mix.entries.size(); ++i) {
        designsPerPass += designsAnswered(mix.entries[i], pass.cold[i]) +
                          designsAnswered(mix.entries[i], pass.warm[i]);
      }
    } else if (d.value() != first.value()) {
      out.fail("pass " + std::to_string(p + 1) + " responses differ from the first pass");
    }
    for (std::size_t i = 0; i < mix.entries.size(); ++i) {
      cold[i] = std::min(cold[i], pass.coldLatency[i]);
      warm[i] = std::min(warm[i], pass.warmLatency[i]);
    }
    fastestPass = std::min(fastestPass, requestSeconds);
    out.report.push_back("pass " + std::to_string(p + 1) + ": " +
                         std::to_string(pass.wall) + " s");
  }
  out.digests.emplace_back("results_digest", first.hex());
  out.report.push_back("passes: " + std::to_string(passes) + " over " +
                       std::to_string(mix.entries.size()) + " requests timed");
  out.add("peak_rss_mb", peakRssMb(), "MB");

  // A kernel's cold traffic: the summed cold-pass latency of its requests
  // (its design space explored once, plus the estimates, lints and
  // explains that hit it).
  std::vector<double> kernelCold(mix.kernels, 0.0);
  for (std::size_t i = 0; i < mix.entries.size() && i < cold.size(); ++i) {
    kernelCold[mix.entries[i].kernel] += cold[i];
  }

  const auto [errorPct, pickGapPct] = accuracyCanary(options.seed, out);
  out.add("setup_s", setup, "s");
  out.add("designs_per_s", fastestPass > 0 ? designsPerPass / fastestPass : 0.0,
          "1/s");
  out.add("kernel_ms_p50", 1e3 * percentile(kernelCold, 0.50), "ms");
  out.add("kernel_ms_p80", 1e3 * percentile(kernelCold, 0.80), "ms");
  out.add("model_error_pct", errorPct, "%");
  out.add("pick_gap_pct", pickGapPct, "%");
  out.add("cold_p50_ms", 1e3 * percentile(cold, 0.50), "ms");
  out.add("cold_p95_ms", 1e3 * percentile(cold, 0.95), "ms");
  out.add("warm_p50_ms", 1e3 * percentile(warm, 0.50), "ms");
  out.add("warm_p95_ms", 1e3 * percentile(warm, 0.95), "ms");
  out.add("requests_per_s",
          fastestPass > 0 ? 2.0 * mix.entries.size() / fastestPass : 0.0, "1/s");
  return out;
}

}  // namespace perfbench
