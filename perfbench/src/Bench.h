//===- perfbench/src/Bench.h - Shared benchmark infrastructure -*- C++ -*-===//
///
/// \file
/// What every workload of the repository benchmark shares: the seeded
/// random source and operation-stream hash, sample statistics, the
/// benchmark-side span recorder of the traced run, grammar sources and
/// tokenizers, the Earley oracle, and the result record main() prints.
///
/// Nothing here reaches into the library's internals: the benchmark drives
/// the public APIs of core/, glr/, incremental/, lr/ and server/ and
/// records its spans around those calls, in its own code.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_PERFBENCH_BENCH_H
#define IPG_PERFBENCH_BENCH_H

#include "common/ScaledSdf.h"
#include "earley/EarleyParser.h"
#include "grammar/Grammar.h"
#include "lr/ItemSetGraph.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pb {

using ipg::SymbolId;
using Tokens = std::vector<SymbolId>;

//===----------------------------------------------------------------------===//
// Seeded randomness and the operation-stream hash.
//===----------------------------------------------------------------------===//

/// splitmix64: tiny, and the same stream on every platform and standard
/// library (std::uniform_int_distribution is implementation-defined).
class Rng {
public:
  /// The seed and stream go through the mixer before they become the
  /// state: splitmix64 steps its state by the golden-ratio constant, so a
  /// state linear in the seed would make seed N+1's stream seed N's
  /// shifted by one draw, and a set of consecutive seeds would measure
  /// nearly the same inputs.
  explicit Rng(uint64_t Seed, uint64_t Stream = 0)
      : State(mix(mix(Seed ^ 0x632BE59BD9B4E019ull) +
                  Stream * 0xD1B54A32D192ED03ull)) {}
  uint64_t next() { return mix(State += 0x9E3779B97F4A7C15ull); }
  /// Uniform in [0, N); N must be > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [Lo, Hi].
  uint64_t range(uint64_t Lo, uint64_t Hi) { return Lo + below(Hi - Lo + 1); }
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  bool chance(double P) { return unit() < P; }
  /// Index drawn with probability proportional to \p Weights.
  size_t weighted(const std::vector<double> &Weights);
  /// Fisher-Yates shuffle.
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  static uint64_t mix(uint64_t Z) {
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  uint64_t State;
};

/// FNV-1a over the generated operation stream; the run output records it
/// so two runs can be shown to have measured the same operations.
class StreamHash {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001B3ull;
    }
  }
  void add(const Tokens &Toks) {
    add(Toks.size());
    for (SymbolId S : Toks)
      add(S);
  }
  void add(std::string_view S) {
    add(S.size());
    for (char C : S) {
      H ^= uint8_t(C);
      H *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xCBF29CE484222325ull;
};

//===----------------------------------------------------------------------===//
// Statistics.
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p Values (copied and sorted); 0 when empty.
double quantile(std::vector<double> Values, double Q);
double median(const std::vector<double> &Values);
/// Median of the last tenth of \p Values over the median of the first
/// tenth, in recorded order: the growth of a long-lived object's latency.
double drift(const std::vector<double> &Values);
/// "<Name> p50 by repetition: ..." for the human-readable report.
std::string repsNote(const std::string &Name,
                     const std::vector<std::vector<double>> &Reps);
/// "<Name> estimators: fastest p50/p99 .. lower-quartile .. median ..":
/// the run's p50 and p99 under each per-operation estimator
/// (perOpQuantile), for the human-readable report.
std::string estimatorNote(const std::string &Name,
                          const std::vector<std::vector<double>> &Reps);
/// "<Name> p50 by tenth of the run: ..." for the human-readable report.
std::string tenthsNote(const std::string &Name,
                       const std::vector<double> &Values);

/// Peak resident set of this process so far, in MB.
double peakRssMb();

/// Monotonic nanoseconds (the clock support/Trace.h stamps spans with).
uint64_t nowNs();

//===----------------------------------------------------------------------===//
// The traced run: benchmark-side spans and allocation counting.
//===----------------------------------------------------------------------===//

/// Counted by the replacement operator new in Alloc.cpp while counting
/// is on. Both are per thread, so client threads never share a cache line.
extern thread_local bool CountAllocs;
uint64_t threadAllocs();

/// One finished span. Spans of one operation share Op; Parent is the
/// index of the enclosing span in the same SpanLog (or -1).
struct SpanRec {
  const char *Name;
  uint64_t Start, End;
  uint64_t Op;
  int32_t Parent;
  uint64_t Allocs; ///< Allocations made inside the span, children included.
};

/// Per-thread span log. Disabled logs record nothing and cost one branch.
class SpanLog {
public:
  explicit SpanLog(bool On = false, uint32_t Tid = 0) : On(On), Tid(Tid) {}
  uint32_t tid() const { return Tid; }
  /// Starts the next operation: spans opened from here share its id.
  void beginOp(uint64_t Op) { CurOp = Op; }
  const std::vector<SpanRec> &spans() const { return Spans; }

private:
  friend class Span;
  bool On;
  uint32_t Tid;
  uint64_t CurOp = 0;
  int32_t Open = -1;
  std::vector<SpanRec> Spans;
};

/// RAII span around one call into a layer.
class Span {
public:
  Span(SpanLog &Log, const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog &Log;
  int32_t Index = -1;
};

/// Self-time and allocation aggregates over a set of span logs.
struct SpanStats {
  /// Self time (duration minus direct children) of every span, µs, by name.
  std::map<std::string, std::vector<double>> SelfUs;
  /// Whole duration of every span, µs, by name, in recorded order.
  std::map<std::string, std::vector<double>> DurUs;
  std::map<std::string, uint64_t> Allocs;

  static SpanStats of(const std::vector<const SpanLog *> &Logs);
  double selfP50(const std::string &Name) const;
  double selfSum(const std::string &Name) const;
  double durSum(const std::string &Name) const;
};

/// Starts the library's own tracer (support/Trace.h) for a traced pass and
/// returns the time its first event is stamped with.
uint64_t startLibraryTrace();
void stopLibraryTrace();

/// Writes the benchmark's spans merged with the library's own trace events
/// (support/Trace.h, started by the traced run) as one Chrome trace.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanLog *> &Logs,
                      uint64_t BaseNs);

//===----------------------------------------------------------------------===//
// Grammars, documents and the oracle.
//===----------------------------------------------------------------------===//

/// Reads a whole file; exits with an error message when it cannot.
std::string readFile(const std::string &Path);

/// Where the inputs live and where the run may write.
struct Paths {
  std::string CorpusDir; ///< Directory of the corpus *.bnf files.
  std::string WorkDir;   ///< Scratch directory for snapshot files.
};

/// Builds a grammar from BNF source text; exits on a malformed grammar.
void buildBnf(ipg::Grammar &G, std::string_view Source);

/// The Fig 7.1 regime, shared with the bench/ programs: the SDF grammar
/// plus SdfCopies-1 renamed clones ("M<k>#" prefixes) that no input reaches.
using ipg::bench::buildScaledSdf;
inline constexpr int SdfCopies = 12;

/// Maps space-separated token spellings to the grammar's terminals; an
/// unknown spelling maps to InvalidSymbol (and fails the parse).
Tokens lookupWords(const ipg::Grammar &G, std::string_view Text);

/// Tokenizes SDF source text with the SDF scanner, interning into \p G.
Tokens tokenizeSdf(ipg::Grammar &G, std::string_view Text);

/// Joins tokens back into their spellings.
std::string spell(const ipg::Grammar &G, const Tokens &Toks);

/// The tree-count cap both the forest and the oracle saturate at.
inline constexpr uint64_t TreeCap = uint64_t(1) << 20;

/// Verdict and tree count of one parse; Trees is 0 on rejection.
struct Verdict {
  bool Accepted = false;
  uint64_t Trees = 0;
  bool operator==(const Verdict &O) const {
    return Accepted == O.Accepted && Trees == O.Trees;
  }
};

/// The independent oracle: EarleyParser::countDerivations on the grammar
/// the operation ran against. Every check runs outside the timed region.
/// Results are memoized by the input plus the rules a derivation of it
/// could use: those reachable from START through rules whose terminals
/// all occur in the input (a terminal always appears in the yield). Edits
/// to the unused M<k># clones, or rules over keywords no input contains,
/// therefore share one entry; every miss still runs Earley on the full
/// grammar. Not thread-safe; give each thread its own.
class Oracle {
public:
  /// Checks now and returns the oracle's verdict.
  Verdict check(const ipg::Grammar &G, const Tokens &Input);
  /// True when \p Got agrees with the oracle.
  bool agrees(const ipg::Grammar &G, const Tokens &Input, Verdict Got) {
    return check(G, Input) == Got;
  }

  /// Records a check for runDeferred(); \p G must outlive that call.
  void defer(const ipg::Grammar &G, const Tokens &Input, Verdict Got);
  /// Runs the deferred checks on \p Threads threads and returns how many
  /// recorded operations disagree with the oracle.
  uint64_t runDeferred(unsigned Threads);

  /// Earley parses actually run (memo misses).
  uint64_t calls() const { return Calls; }

private:
  static uint64_t key(const ipg::Grammar &G, const Tokens &Input);
  static Verdict earley(const ipg::Grammar &G, const Tokens &Input);

  struct Pending {
    const ipg::Grammar *G;
    Tokens Input;
    std::vector<Verdict> Got;
    uint64_t Key;
  };
  std::unordered_map<uint64_t, Verdict> Memo;
  std::unordered_map<uint64_t, size_t> PendingIndex;
  std::vector<Pending> Deferred;
  uint64_t Calls = 0;
};

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

/// One reported metric: value, unit and (for timings) the sample count.
struct Metric {
  double Value = 0;
  std::string Unit;
  uint64_t Samples = 0;
};

/// What one workload run hands back to main().
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t StreamHash = 0;
  int Passes = 0; ///< Passes over the operation stream (PassClock).
  /// End-to-end metrics under their workload-specific names
  /// (keystroke_p50_us, ...), printed in the human-readable table.
  std::map<std::string, Metric> Named;
  /// The generic end-to-end metrics BENCHMARK.json lists (op_p50_us, ...),
  /// printed in the JSON line.
  std::map<std::string, Metric> EndToEnd;
  /// Per-layer metrics of the traced pass.
  std::map<std::string, Metric> Layer;
  /// Free-form lines for the human-readable report.
  std::vector<std::string> Notes;
};

/// Options shared by all workloads.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  bool Trace = false;
  Paths Where;
  std::string TraceFile; ///< Chrome trace path for the traced run.
  double Seconds = 10;   ///< The run's time budget (PassClock).
  uint64_t StartNs = 0;  ///< When the process started (nowNs()).
};

/// Records one timing series as <Name>_p50_us / <Name>_p99_us (µs).
void addLatency(RunResult &R, const std::string &Name,
                const std::vector<double> &Us);

/// setup_s is the median of this many set-ups per timed pass (see
/// timedSetups).
inline constexpr int SetupsPerRep = 3;

/// Untraced runs replay their fixed operation stream pass after pass (the
/// stateful workloads on a fresh set-up each time), so every operation is
/// measured many times on identical state. A pass always runs the whole
/// stream: the run's length in time (--seconds) sets how many passes it
/// makes, never how many operations a pass holds, so a faster build
/// measures the same operations more often rather than other ones.
inline constexpr int MinPasses = 5;
/// Caps the samples kept per operation.
inline constexpr int MaxPasses = 200;

/// Paces the passes of a run: at least MinPasses, then more while one
/// more pass, as long as the last one (set-ups and oracle checks
/// included), still ends inside the run's budget of --seconds counted
/// from the start of the process. A traced run makes exactly one pass.
///
///   PassClock Clock(Opt);
///   while (Clock.next()) { ...one pass... }
class PassClock {
public:
  explicit PassClock(const Options &Opt);
  /// Ends the previous pass (if any) and says whether to start another.
  bool next();
  int passes() const { return Passes; }

private:
  uint64_t DeadlineNs;
  int Limit;
  int Passes = 0;
  uint64_t PassStartNs = 0, LastNs = 0;
};

/// Each operation's latency is its fastest pass, on every workload.
///
/// Other tenants of a shared host slow the program down in spells of
/// seconds to minutes, often by half and more. Steal time stays near 0
/// and a loop that stays in registers slows by under a tenth, so the
/// cause is shared caches and memory, and CPU-time clocks slow down as
/// much as wall time. A spell that covers part of a
/// run only adds time to the passes inside it; with the passes spread
/// over the whole run, an operation only has to meet one quiet moment.
/// Per-operation medians and lower quartiles follow the spells instead
/// (README.md, "Estimators", has the measurements).
///
/// On parse and grammar_edit two threads of the program contend (shared
/// graphs, the allocator, forks beside reader parses). Their contention
/// stays in the fastest pass wherever it recurs in every pass, since the
/// threads run the same streams side by side each time; a delay that
/// only some passes meet is dropped with the host's. estimatorNote()
/// prints the median pass's p50 and p99 beside the fastest's, so such a
/// delay still shows in the report.
std::vector<double> perOpBest(const std::vector<std::vector<double>> &Reps);

/// Element-wise nearest-rank \p Q quantile of equally long series: each
/// operation's latency over the passes (Q = 0 is its fastest pass).
std::vector<double> perOpQuantile(const std::vector<std::vector<double>> &Reps,
                                  double Q);

/// "<Name> by <what>: <cat> n=.. p50=.. time=..% 2x->p50+..%/p99+..%; ..."
/// for the human-readable report. \p CatOf[I] is the category of sample
/// I (an index into \p CatNames). For each category it gives the sample
/// count, its p50, its share of the summed latency, and how much the
/// whole run's p50 and p99 would rise if that category's operations took
/// twice as long: which end-to-end metric a change confined to that
/// category can move.
std::string categoryNote(const std::string &Name, const std::string &What,
                         const std::vector<double> &Us,
                         const std::vector<size_t> &CatOf,
                         const std::vector<std::string> &CatNames);

/// Builds a workload's set-up SetupsPerRep times, timing each build into
/// \p SetupS, and keeps the last one in \p Out. Each timed pass calls
/// it, so the set-ups are spread over the whole run rather than bunched
/// at its start, where one slow second on a shared host would move them
/// all.
template <typename T, typename Make>
void timedSetups(std::unique_ptr<T> &Out, std::vector<double> &SetupS,
                 Make M) {
  for (int K = 0; K < SetupsPerRep; ++K) {
    Out.reset();
    uint64_t T0 = nowNs();
    Out = M();
    SetupS.push_back(double(nowNs() - T0) * 1e-9);
  }
}

/// Fills the generic end-to-end metrics from the workload's primary
/// operation latencies and its set-up times.
void finishEndToEnd(RunResult &R, const std::vector<double> &OpUs,
                    const std::vector<double> &SetupS);

// The four workloads. Each runs a fixed number of operations; a traced
// run (Opt.Trace) fills RunResult::Layer instead of the end-to-end set.
RunResult runKeystroke(const Options &Opt);
RunResult runParse(const Options &Opt);
RunResult runGrammarEdit(const Options &Opt);
RunResult runColdStart(const Options &Opt);

// The hash of each workload's generated operation stream (what the run
// output records as stream_hash), without running anything.
uint64_t keystrokeStreamHash(const Options &Opt);
uint64_t parseStreamHash(const Options &Opt);
uint64_t grammarEditStreamHash(const Options &Opt);
uint64_t coldStartStreamHash(const Options &Opt);

/// Per-layer metric names every traced run reports (0 where a layer does
/// no work on the workload).
const std::vector<std::pair<std::string, std::string>> &layerMetricNames();

/// Fills Layer with the span-derived metrics every workload shares and
/// trace.overhead_frac / trace.unattributed_frac, given the op root span
/// name and the untraced pass's op latencies.
void finishLayer(RunResult &R, const SpanStats &S, const char *OpSpan,
                 const std::vector<double> &UntracedOpUs);

/// Sets Layer[Name] (unit from layerMetricNames()).
void setLayer(RunResult &R, const std::string &Name, double Value);

/// Sum of ItemSetGraphStats over several graphs.
ipg::ItemSetGraphStats sumStats(const std::vector<const ipg::ItemSetGraph *> &Gs);

/// Registry counters the per-layer lr.* metrics read (process-wide, so
/// they survive epoch forks and snapshot loads).
struct LrCounters {
  uint64_t Expansions = 0, ReExpansions = 0, ClosureItems = 0, DirtyMarks = 0,
           NodesConstructed = 0;
  static LrCounters read();
  LrCounters operator-(const LrCounters &O) const;
};

} // namespace pb

#endif // IPG_PERFBENCH_BENCH_H
