//===- perfbench/bench.h - Shared pieces of the UNIT benchmark ------------===//
//
// The benchmark drives the library only through its public headers. This
// header holds what every workload shares: the metric sink, an in-memory
// span log (nanosecond spans recorded around calls into each layer), the
// target set, request statistics, and the per-layer replay and
// correctness-gate helpers.
//
//===----------------------------------------------------------------------===//

#ifndef UNIT_PERFBENCH_BENCH_H
#define UNIT_PERFBENCH_BENCH_H

#include "core/Rewriter.h"
#include "graph/Graph.h"
#include "obs/Histogram.h"
#include "runtime/CompilerSession.h"
#include "support/Random.h"
#include "target/TargetRegistry.h"
#include "tir/Stmt.h"
#include "tuner/Tuner.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace pb {

using namespace unit;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

class Metrics {
  std::vector<Metric> Rows;

public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Rows.push_back({Name, Value, Unit});
  }
  const std::vector<Metric> &rows() const { return Rows; }
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One span: a call into a layer, named "<module>.<operation>".
struct SpanRecord {
  const char *Name = "";
  int Parent = -1; ///< Index of the enclosing span, -1 for a root.
  int64_t StartNs = 0;
  int64_t DurNs = 0;
  uint64_t Request = 0; ///< Spans of one request share this id.
};

/// Spans recorded by the load thread, kept in memory and written out when
/// the benchmark ends. Disabled, a span costs one branch.
class SpanLog {
  std::vector<SpanRecord> Spans;
  std::vector<int> Open;
  uint64_t Request = 0;
  bool On = false;

public:
  static SpanLog &get();
  void enable(bool Enable) { On = Enable; }
  bool enabled() const { return On; }
  void beginRequest() { ++Request; }
  int open(const char *Name);
  void close(int Index);

  /// Mean duration in microseconds of spans named \p Name (0 if none).
  double meanUs(const std::string &Name) const;
  size_t count(const std::string &Name) const;
  /// Self time per module: each span's duration minus the time its child
  /// spans cover, summed by the name's module prefix.
  std::map<std::string, double> selfMsByModule() const;
  /// Chrome trace-event JSON, loadable in Perfetto.
  bool writeChromeTrace(const std::string &Path) const;
};

class Span {
  int Index = -1;

public:
  explicit Span(const char *Name) {
    if (SpanLog::get().enabled())
      Index = SpanLog::get().open(Name);
  }
  ~Span() {
    if (Index >= 0)
      SpanLog::get().close(Index);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated quantile (\p Q in [0, 1]) of \p Values.
double quantile(std::vector<double> Values, double Q);
double median(std::vector<double> Values);
double geomean(const std::vector<double> &Values);
double peakRssMb();

/// Modeled throughput of a compiled conv in GOP/s: 2 x the layer's
/// un-padded MACs over the cost model's latency for it.
double modeledGops(const ConvLayer &Layer, const KernelReport &Report);

bool sameReport(const KernelReport &A, const KernelReport &B);

//===----------------------------------------------------------------------===//
// Targets and inputs
//===----------------------------------------------------------------------===//

/// (Re-)registers all seven benchmark targets — the five builtin specs and
/// the two checked-in spec files — so every backend starts with empty
/// lazy state (key memos). Returns the target ids. Exits on a missing
/// spec file.
std::vector<std::string> registerBenchTargets();

/// The ids the last registerBenchTargets() call registered.
const std::vector<std::string> &benchTargetIds();

/// Seeded Fisher-Yates shuffle.
template <typename T> void shuffle(std::vector<T> &V, SplitMix64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(Rng.uniform(0, I - 1))]);
}

/// The laid-out operation a target tunes for \p Layer, the match the
/// tuner uses, and (GPU) which implicit-GEMM view it is.
struct LaidKernel {
  ComputeOpRef Op;
  MatchResult Match;
  bool Gpu = false;
  CpuTuningPair Pair{0, 0};
  GpuTuningConfig Config{0, 0};
};

/// Rebuilds the winning candidate of \p Report for \p Layer on \p Target:
/// the laid-out op of the winning view, its first matching instruction,
/// and the winning tuning pair/config. Empty for fallback reports.
std::optional<LaidKernel> winnerOf(const std::string &Target,
                                   const ConvLayer &Layer,
                                   const KernelReport &Report);

/// The winner's tensorize plan (Tuner.h plan builders).
TensorizePlan buildWinnerPlan(const LaidKernel &K);

/// Number of statements in \p S.
size_t countStmts(const StmtRef &S);

//===----------------------------------------------------------------------===//
// Transfer index mirror and cold-path replay
//===----------------------------------------------------------------------===//

/// A mirror of CompilerSession's transfer index: keys grouped by their
/// `target|spechash|kind|` prefix, capped at 512 bodies per group, each
/// with its winning candidate. The session keeps this private, so the
/// benchmark rebuilds it from the keys it compiled, in the same order, to
/// replay and count the nearest-neighbor scan a cold compile runs. The
/// mirror is a copy of the session's rules, not the session's code: the
/// workloads check it against the session's own count of scans that
/// picked a seed (SessionStats::TransferSeeds).
class TransferMirror {
  std::map<std::string, std::map<std::string, int>> Groups;

public:
  void record(const std::string &Key, const KernelReport &Report);
  /// Entries the scan for \p Key visits.
  size_t scanLength(const std::string &Key) const;
  /// Replays the scan for \p Key, with a span per structuralDistance call
  /// when \p Timed; returns the seed it picks (-1 for none).
  int replayScan(const std::string &Key, bool Timed) const;
};

/// One cold compile observed in a traced window, to be replayed layer by
/// layer.
struct ColdKernel {
  std::string Target;
  ConvLayer Layer;
  std::string Key;
  int Seed = -1; ///< Transfer seed the session's scan picked.
};

/// Replays \p K through the public functions of each layer on the cold
/// path — layout, key derivation, Inspector, Rewriter, tuner search, and a
/// direct Workload::compileWith of the same request — with one span each.
/// Returns false when the direct compile's report differs from \p Expect.
bool replayCold(const ColdKernel &K, const KernelReport &Expect);

/// Share of the replays' inspect() calls that matched an instruction.
double inspectMatchRatio();

/// Frame encode/decode replay for one wire request of \p Layer and its
/// reply: builds and serializes the compile request and result
/// notification, then parses both back. Returns request + reply bytes, or
/// nothing when the parsed frames differ from what was encoded.
std::optional<size_t> replayFrames(const std::string &Target,
                                   const ConvLayer &Layer,
                                   const KernelReport &Report);

//===----------------------------------------------------------------------===//
// Correctness gate
//===----------------------------------------------------------------------===//

struct GateResult {
  size_t Kernels = 0;
  size_t FailedKernels = 0;
  size_t Mismatches = 0; ///< Output elements that differ from the reference.
  size_t TargetsCovered = 0;
};

/// For each target, shrinks a seeded pick of \p Layers to an
/// interpreter-sized shape, compiles it, lowers the tuned winner, runs it
/// in the interpreter on seeded inputs, and compares every output with
/// runComputeOpReference.
GateResult runGate(const std::vector<std::string> &Targets,
                   const std::vector<ConvLayer> &Layers, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Counters around a window
//===----------------------------------------------------------------------===//

struct TunerCounters {
  uint64_t Invocations = 0, Scored = 0, Pruned = 0, Seeds = 0;
  obs::HistogramSnapshot CandidateCost;
  static TunerCounters now();
};

/// What one session did over a window.
struct SessionDelta {
  obs::HistogramSnapshot Cold, Warm;
  uint64_t FreshDispatches = 0, InlineReadyHits = 0;
  /// Cold compiles whose transfer-index scan picked a seed.
  uint64_t TransferSeeds = 0;
  uint64_t Hits = 0, Misses = 0, Evictions = 0;

  static SessionDelta of(CompilerSession &S);
  SessionDelta minus(const SessionDelta &Before) const;
  void add(const SessionDelta &Other);
};

double histMeanUs(const obs::HistogramSnapshot &H);

//===----------------------------------------------------------------------===//
// Host speed
//===----------------------------------------------------------------------===//

/// One host-speed probe: the median time of five reference units. A
/// reference unit is a fixed piece of allocator-, map- and string-heavy
/// work of the kind the compiler does, written in the benchmark so that no
/// change to the program changes it. On a shared host it slows down and
/// speeds up with the program's own code, so the ratio of the two cancels
/// the host's speed swings.
struct Probe {
  int64_t AtNs = 0;   ///< When the probe started.
  int64_t CostNs = 0; ///< How long the probe took.
  double RefNs = 0;   ///< Median reference unit time.
};
Probe probeHost();

/// Timings are reported at the host speed at which one reference unit
/// takes this long, about the median on the VM the benchmark was tuned on
/// (NOTES.md, Host speed): a time T measured next to probes reading R is
/// reported as T x NominalReferenceNs / R.
constexpr double NominalReferenceNs = 100000;

/// Probes at least this often during a timed window, between requests.
constexpr int64_t ProbeEveryNs = 100000000;

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What the timed window of a workload produced.
struct Window {
  double Seconds = 0;
  size_t Requests = 0;
  size_t Failed = 0;
  size_t Layers = 0;
  std::vector<double> LatencyMs; ///< One per request.
  /// Each request's target, as an index into benchTargetIds().
  std::vector<uint8_t> RequestTarget;
  SessionDelta Session;
  /// Candidates the tuner scored over the window; set for traced windows.
  uint64_t TunerScored = 0;
  /// Host-speed probes: one when the window opens, then between requests
  /// at least every ProbeEveryNs, and one from finish().
  std::vector<Probe> Probes;
  /// Each request's slice: the index of the probe before it.
  std::vector<uint32_t> RequestSlice;

  /// Reserved up front: growth by reallocation would make peak memory
  /// step with the request count.
  Window() {
    LatencyMs.reserve(1u << 20);
    RequestTarget.reserve(1u << 20);
    RequestSlice.reserve(1u << 20);
    Probes.push_back(probeHost());
  }

  void record(int64_t StartNs, size_t Target) {
    LatencyMs.push_back(static_cast<double>(nowNs() - StartNs) / 1e6);
    RequestTarget.push_back(static_cast<uint8_t>(Target));
    RequestSlice.push_back(static_cast<uint32_t>(Probes.size() - 1));
    ++Requests;
    if (nowNs() - Probes.back().AtNs >= ProbeEveryNs)
      Probes.push_back(probeHost());
  }

  /// Closes the last slice; call once, after the window.
  void finish() { Probes.push_back(probeHost()); }
  /// NominalReferenceNs over slice \p I's mean reference time.
  double sliceFactor(size_t I) const;
  /// Request latencies at the nominal host speed.
  std::vector<double> scaledLatencyMs() const;
  /// The window's time outside probes, at the nominal host speed.
  double scaledSeconds() const;
  /// Median reference unit time over the window's probes, in us.
  double referenceUs() const;
};

class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;
  /// The full set-up: targets, inputs, sessions/servers, warm-up.
  virtual void setup(uint64_t Seed) = 0;
  /// The timed closed loop, for \p Seconds.
  virtual Window run(double Seconds) = 0;
  /// Traced-run breakdown of the last window: replays and counters.
  virtual void layerMetrics(const Window &W, Metrics &Out) = 0;
  /// Modeled GOP/s of every distinct kernel the workload compiled.
  virtual std::vector<double> modeledGops() = 0;
  /// Layers the correctness gate samples from.
  virtual std::vector<ConvLayer> gateLayers() = 0;
  /// Releases servers and threads; the destructor calls it too.
  virtual void teardown() {}
};

std::unique_ptr<BenchWorkload> makeZooCold();
std::unique_ptr<BenchWorkload> makeServeStream();
std::unique_ptr<BenchWorkload> makeServeBlocking();
std::unique_ptr<BenchWorkload> makeServeChurn();
std::unique_ptr<BenchWorkload> makeCodegen();

/// Directory for sockets and trace files (default .bench_build).
void setWorkDir(const std::string &Dir);

/// Socket path for in-process servers, inside the work directory.
std::string benchSocketPath();

} // namespace pb

#endif // UNIT_PERFBENCH_BENCH_H
