//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
//   unit_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--gate 0|1] [--workdir DIR]
//
// Sets the workload up (setup_s runs from process start to the first timed
// request), runs its timed closed loop, checks outputs (per-request checks
// plus the interpreter gate), and prints one JSON object as the last line
// of stdout. With --trace 1 the run is split into an untraced and a traced
// half, followed by the per-layer replays; it prints the per-layer metrics
// instead and writes the spans to DIR as Chrome trace JSON. --gate 0 skips
// the interpreter gate, for a process that repeats a gated process's run.
// NOTES.md defines every metric.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sched.h>

using namespace pb;

namespace {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Gate = true;
  std::string WorkDir = ".bench_build";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: unit_perfbench --workload "
               "zoo-cold|serve-stream|serve-blocking|serve-churn|codegen "
               "--seed N --seconds S --trace 0|1 [--gate 0|1] "
               "[--workdir DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      A.Workload = Value;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
      if (!(A.Seconds > 0))
        usage("--seconds must be positive");
    } else if (Flag == "--trace") {
      A.Trace = Value == "1";
    } else if (Flag == "--gate") {
      A.Gate = Value != "0";
    } else if (Flag == "--workdir") {
      A.WorkDir = Value;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
    if (End && *End)
      usage(("malformed number for " + Flag).c_str());
  }
  return A;
}

std::unique_ptr<BenchWorkload> makeWorkload(const std::string &Name) {
  if (Name == "zoo-cold")
    return makeZooCold();
  if (Name == "serve-stream")
    return makeServeStream();
  if (Name == "serve-blocking")
    return makeServeBlocking();
  if (Name == "serve-churn")
    return makeServeChurn();
  if (Name == "codegen")
    return makeCodegen();
  usage(("unknown workload '" + Name + "'").c_str());
}

/// Runs the process on one CPU, the last it may use; threads started later
/// inherit the mask. On a shared VM, waking a thread on another, idle vCPU
/// can take the hypervisor milliseconds, which would make every
/// cross-thread handoff (a server round trip, a pool dispatch) measure the
/// host instead of the program (NOTES.md, Host speed).
void pinToOneCpu() {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return;
  for (int C = CPU_SETSIZE - 1; C >= 0; --C)
    if (CPU_ISSET(C, &Allowed)) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(C, &One);
      if (sched_setaffinity(0, sizeof(One), &One) != 0)
        std::fprintf(stderr, "perfbench: cannot pin to CPU %d\n", C);
      return;
    }
}

double layersPerSecond(const Window &W) {
  return W.Seconds > 0 ? static_cast<double>(W.Layers) / W.Seconds : 0.0;
}

/// Mean request latency per target id.
void perTargetMetrics(const Window &W, const std::vector<std::string> &Ids,
                      Metrics &Out) {
  for (size_t T = 0; T < Ids.size(); ++T) {
    double Sum = 0;
    size_t N = 0;
    for (size_t I = 0; I < W.LatencyMs.size(); ++I)
      if (W.RequestTarget[I] == T) {
        Sum += W.LatencyMs[I];
        ++N;
      }
    Out.add("target." + Ids[T] + ".compile_ms",
            N ? Sum / static_cast<double>(N) : 0.0, "ms");
  }
}

/// Per-layer metrics of a traced run; see NOTES.md for each definition.
void layerMetrics(BenchWorkload &Work, const Window &Untraced,
                  const Window &Traced, const TunerCounters &Before,
                  const TunerCounters &After, const GateResult &Gate,
                  const std::vector<std::string> &Ids, Metrics &Out) {
  Metrics Extra;
  Work.layerMetrics(Traced, Extra);
  // Workload-specific rows; 0 where the workload does not report one.
  auto extraValue = [&](const std::string &Name) {
    for (const Metric &M : Extra.rows())
      if (M.Name == Name)
        return M.Value;
    return 0.0;
  };
  auto extra = [&](const std::string &Name, const std::string &Unit) {
    Out.add(Name, extraValue(Name), Unit);
  };
  const SpanLog &Log = SpanLog::get();
  auto d = [](uint64_t A, uint64_t B) { return static_cast<double>(A - B); };

  Out.add("graph.layout_us", Log.meanUs("graph.layout"), "us");
  Out.add("core.key_derive_us", Log.meanUs("core.key_derive"), "us");
  Out.add("core.inspect_us", Log.meanUs("core.inspect"), "us");
  Out.add("core.inspect_match_ratio", inspectMatchRatio(), "ratio");
  Out.add("core.rewrite_us", Log.meanUs("core.rewrite"), "us");

  Out.add("tuner.search_ms", Log.meanUs("tuner.search") / 1e3, "ms");
  Out.add("tuner.invocations", d(After.Invocations, Before.Invocations),
          "count");
  Out.add("tuner.candidates_scored", d(After.Scored, Before.Scored), "count");
  Out.add("tuner.candidates_pruned", d(After.Pruned, Before.Pruned), "count");
  Out.add("tuner.transfer_seeds", d(After.Seeds, Before.Seeds), "count");
  obs::HistogramSnapshot Cost = After.CandidateCost;
  Cost.Count -= Before.CandidateCost.Count;
  Cost.SumSeconds -= Before.CandidateCost.SumSeconds;
  Out.add("tuner.candidate_cost_us", histMeanUs(Cost), "us");

  // Session overhead of a cold compile: the session's own cold-latency
  // mean minus a direct compileWith of sampled requests.
  double DistanceUs = Log.meanUs("core.structural_distance");
  double Overhead = 0;
  if (Traced.Session.Cold.Count && Log.count("runtime.direct_compile"))
    Overhead = histMeanUs(Traced.Session.Cold) / 1e3 -
               Log.meanUs("runtime.direct_compile") / 1e3;
  Out.add("core.structural_distance_us", DistanceUs, "us");
  extra("core.structural_distance_calls", "count");
  Out.add("runtime.session_overhead_ms", Overhead, "ms");
  double Calls = extraValue("core.structural_distance_calls");
  Out.add("runtime.distance_share_of_overhead",
          Overhead > 0 ? DistanceUs * Calls / 1e3 / Overhead : 0.0, "ratio");

  const SessionDelta &S = Traced.Session;
  Out.add("runtime.cache_hit_us", histMeanUs(S.Warm), "us");
  Out.add("runtime.cache_hit_ratio",
          S.Hits + S.Misses ? static_cast<double>(S.Hits) /
                                  static_cast<double>(S.Hits + S.Misses)
                            : 0.0,
          "ratio");
  Out.add("runtime.evictions", static_cast<double>(S.Evictions), "count");
  Out.add("runtime.fresh_compiles", static_cast<double>(S.Cold.Count),
          "count");
  Out.add("runtime.fresh_dispatches", static_cast<double>(S.FreshDispatches),
          "count");
  Out.add("runtime.inline_ready_hits", static_cast<double>(S.InlineReadyHits),
          "count");

  Out.add("server.frame_encode_us", Log.meanUs("server.frame_encode"), "us");
  Out.add("server.frame_decode_us", Log.meanUs("server.frame_decode"), "us");
  extra("server.frame_bytes", "B");
  double Rtt = Log.meanUs("server.blocking_rtt");
  Out.add("server.rtt_overhead_us",
          Rtt > 0 ? Rtt - Log.meanUs("runtime.warm_compile") : 0.0, "us");
  extra("server.pipelined_speedup", "ratio");

  Out.add("tuner.plan_build_us", Log.meanUs("tuner.plan_build"), "us");
  Out.add("tir.lower_us", Log.meanUs("tir.lower"), "us");
  Out.add("core.replace_us", Log.meanUs("core.replace"), "us");
  Out.add("tir.verify_us", Log.meanUs("tir.verify"), "us");
  extra("tir.stmts", "stmts");

  perTargetMetrics(Traced, Ids, Out);

  Out.add("interp.run_ms",
          (Log.meanUs("interp.run") + Log.meanUs("interp.reference")) / 1e3,
          "ms");
  Out.add("interp.mismatches", static_cast<double>(Gate.Mismatches), "count");
  extra("replay.mismatches", "count");

  // At the nominal host speed, so a host swing between the halves does
  // not read as tracing overhead.
  auto scaledLps = [](const Window &W) {
    return static_cast<double>(W.Layers) / W.scaledSeconds();
  };
  Out.add("trace.overhead_ratio", scaledLps(Traced) / scaledLps(Untraced),
          "ratio");
  Out.add("host.reference_us", Traced.referenceUs(), "us");
  std::map<std::string, double> Self = Log.selfMsByModule();
  for (const char *Module :
       {"graph", "core", "tuner", "runtime", "server", "tir", "interp"})
    Out.add(std::string("selftime.") + Module + "_ms", Self[Module], "ms");
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const Metrics &M) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < M.rows().size(); ++I) {
    const Metric &R = M.rows()[I];
    double V = std::isfinite(R.Value) ? R.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Name.c_str(), V, R.Unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  int64_t Start = nowNs();
  pinToOneCpu();
  Args A = parseArgs(Argc, Argv);
  if (A.Workload.empty())
    usage("--workload is required");
  setWorkDir(A.WorkDir);
  std::unique_ptr<BenchWorkload> Work = makeWorkload(A.Workload);

  Work->setup(A.Seed);
  double SetupS = static_cast<double>(nowNs() - Start) / 1e9;
  const std::vector<std::string> &Ids = benchTargetIds();

  Metrics Out;
  Window W, Untraced;
  GateResult Gate;
  size_t ExtraFailures = 0;
  if (!A.Trace) {
    W = Work->run(A.Seconds);
    W.finish();
    if (A.Gate)
      Gate = runGate(Ids, Work->gateLayers(), A.Seed);
    // Window timings at the nominal host speed (bench.h, NOTES.md).
    std::vector<double> Latency = W.scaledLatencyMs();
    Out.add("setup_s", SetupS, "s");
    Out.add("latency_p50_ms", quantile(Latency, 0.50), "ms");
    Out.add("latency_p90_ms", quantile(Latency, 0.90), "ms");
    Out.add("layers_per_s", static_cast<double>(W.Layers) / W.scaledSeconds(),
            "1/s");
    std::fprintf(stderr,
                 "perfbench: window wall time: p50 %.5f ms, p90 %.5f ms, "
                 "%.1f layers/s; reference unit %.2f us\n",
                 quantile(W.LatencyMs, 0.50),
                 quantile(W.LatencyMs, 0.90), layersPerSecond(W),
                 W.referenceUs());
    Out.add("modeled_kernel_gops", geomean(Work->modeledGops()), "GOP/s");
    Out.add("peak_rss_mb", peakRssMb(), "MiB");
  } else {
    Untraced = Work->run(A.Seconds / 2);
    Untraced.finish();
    SpanLog::get().enable(true);
    TunerCounters Before = TunerCounters::now();
    W = Work->run(A.Seconds / 2);
    W.finish();
    TunerCounters After = TunerCounters::now();
    W.TunerScored = After.Scored - Before.Scored;
    if (A.Gate)
      Gate = runGate(Ids, Work->gateLayers(), A.Seed);
    Metrics Layers;
    layerMetrics(*Work, Untraced, W, Before, After, Gate, Ids, Layers);
    for (const Metric &M : Layers.rows()) {
      Out.add(M.Name, M.Value, M.Unit);
      if (M.Name == "replay.mismatches")
        ExtraFailures += static_cast<size_t>(M.Value);
    }
    SpanLog::get().enable(false);
    std::string Path = A.WorkDir + "/trace-" + A.Workload + "-" +
                       std::to_string(A.Seed) + ".json";
    if (!SpanLog::get().writeChromeTrace(Path))
      std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
  }
  Work->teardown();

  size_t Attempted = Untraced.Requests + W.Requests + Gate.Kernels;
  size_t Failed =
      Untraced.Failed + W.Failed + Gate.FailedKernels + ExtraFailures;
  bool GateCovered = !A.Gate || Gate.TargetsCovered == Ids.size();
  if (!GateCovered)
    std::fprintf(stderr, "perfbench: gate covered %zu of %zu targets\n",
                 Gate.TargetsCovered, Ids.size());
  if (!A.Trace)
    Out.add("success_rate",
            Attempted ? static_cast<double>(Attempted - std::min(Failed, Attempted)) /
                            static_cast<double>(Attempted)
                      : 0.0,
            "ratio");
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu requests in %.2f s, setup "
               "%.3f s, gate %zu kernels\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               W.Requests, W.Seconds, SetupS, Gate.Kernels);
  printResult(Failed == 0 && GateCovered && W.Requests > 0, Attempted, Failed,
              Out);
  return 0;
}
