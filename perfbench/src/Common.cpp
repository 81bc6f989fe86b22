//===- perfbench/src/Common.cpp - Shared benchmark infrastructure ---------===//

#include "Bench.h"

#include "grammar/BnfReader.h"
#include "grammar/GrammarIO.h"
#include "lexer/Scanner.h"
#include "sdf/SdfLexer.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

using namespace ipg;

namespace pb {

size_t Rng::weighted(const std::vector<double> &Weights) {
  double Total = 0;
  for (double W : Weights)
    Total += W;
  double X = unit() * Total;
  for (size_t I = 0; I < Weights.size(); ++I) {
    if (X < Weights[I])
      return I;
    X -= Weights[I];
  }
  return Weights.size() - 1;
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = size_t(std::ceil(Q * double(Values.size())));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

double drift(const std::vector<double> &Values) {
  size_t Tenth = Values.size() / 10;
  if (Tenth == 0)
    return 0;
  std::vector<double> First(Values.begin(), Values.begin() + Tenth);
  std::vector<double> Last(Values.end() - Tenth, Values.end());
  double Base = median(First);
  return Base > 0 ? median(Last) / Base : 0;
}

std::vector<double>
perOpQuantile(const std::vector<std::vector<double>> &Reps, double Q) {
  std::vector<double> Out(Reps.empty() ? 0 : Reps[0].size());
  std::vector<double> Col(Reps.size());
  for (size_t I = 0; I < Out.size(); ++I) {
    for (size_t R = 0; R < Reps.size(); ++R)
      Col[R] = Reps[R][I];
    Out[I] = quantile(Col, Q);
  }
  return Out;
}

std::vector<double> perOpBest(const std::vector<std::vector<double>> &Reps) {
  return perOpQuantile(Reps, 0.0);
}

PassClock::PassClock(const Options &Opt)
    : DeadlineNs(Opt.StartNs + uint64_t(Opt.Seconds * 1e9)),
      Limit(Opt.Trace ? 1 : MaxPasses) {}

bool PassClock::next() {
  uint64_t Now = nowNs();
  if (Passes > 0)
    LastNs = Now - PassStartNs;
  if (Passes >= Limit || (Passes >= MinPasses && Now + LastNs > DeadlineNs))
    return false;
  ++Passes;
  PassStartNs = Now;
  return true;
}

std::string categoryNote(const std::string &Name, const std::string &What,
                         const std::vector<double> &Us,
                         const std::vector<size_t> &CatOf,
                         const std::vector<std::string> &CatNames) {
  const double P50 = quantile(Us, 0.50), P99 = quantile(Us, 0.99);
  double Total = 0;
  for (double V : Us)
    Total += V;
  std::string Out = Name + " by " + What + ":";
  for (size_t C = 0; C < CatNames.size(); ++C) {
    std::vector<double> Of, Doubled = Us;
    double Sum = 0;
    for (size_t I = 0; I < Us.size(); ++I)
      if (CatOf[I] == C) {
        Of.push_back(Us[I]);
        Sum += Us[I];
        Doubled[I] *= 2;
      }
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "%s %s n=%zu p50=%.0f time=%.0f%% 2x->p50%+.0f%%/p99%+.0f%%",
                  C ? ";" : "", CatNames[C].c_str(), Of.size(), median(Of),
                  Total > 0 ? 100 * Sum / Total : 0,
                  P50 > 0 ? 100 * (quantile(Doubled, 0.50) / P50 - 1) : 0,
                  P99 > 0 ? 100 * (quantile(Doubled, 0.99) / P99 - 1) : 0);
    Out += Buf;
  }
  return Out;
}

std::string repsNote(const std::string &Name,
                     const std::vector<std::vector<double>> &Reps) {
  std::string Out = Name + " p50 by repetition:";
  for (const std::vector<double> &R : Reps) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.0f", median(R));
    Out += Buf;
  }
  return Out;
}

std::string tenthsNote(const std::string &Name,
                       const std::vector<double> &Values) {
  std::string Out = Name + " p50 by tenth of the run:";
  size_t Tenth = Values.size() / 10;
  for (size_t I = 0; Tenth && I < 10; ++I) {
    std::vector<double> Part(Values.begin() + std::ptrdiff_t(I * Tenth),
                             Values.begin() + std::ptrdiff_t((I + 1) * Tenth));
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.0f", median(Part));
    Out += Buf;
  }
  return Out;
}

double peakRssMb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the launching process's peak when that is larger.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (startsWith(Line, "VmHWM:"))
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  return 0;
}

uint64_t nowNs() { return trace::nowNanos(); }

//===----------------------------------------------------------------------===//
// Spans.
//===----------------------------------------------------------------------===//

Span::Span(SpanLog &Log, const char *Name) : Log(Log) {
  if (!Log.On)
    return;
  Index = int32_t(Log.Spans.size());
  Log.Spans.push_back({Name, nowNs(), 0, Log.CurOp, Log.Open, threadAllocs()});
  Log.Open = Index;
}

Span::~Span() {
  if (Index < 0)
    return;
  SpanRec &S = Log.Spans[size_t(Index)];
  S.End = nowNs();
  S.Allocs = threadAllocs() - S.Allocs;
  Log.Open = S.Parent;
}

SpanStats SpanStats::of(const std::vector<const SpanLog *> &Logs) {
  SpanStats Out;
  for (const SpanLog *L : Logs) {
    const std::vector<SpanRec> &Sp = L->spans();
    std::vector<uint64_t> ChildNs(Sp.size(), 0);
    for (const SpanRec &S : Sp)
      if (S.Parent >= 0)
        ChildNs[size_t(S.Parent)] += S.End - S.Start;
    for (size_t I = 0; I < Sp.size(); ++I) {
      double Dur = double(Sp[I].End - Sp[I].Start) * 1e-3;
      Out.DurUs[Sp[I].Name].push_back(Dur);
      Out.SelfUs[Sp[I].Name].push_back(Dur - double(ChildNs[I]) * 1e-3);
      Out.Allocs[Sp[I].Name] += Sp[I].Allocs;
    }
  }
  return Out;
}

static double sumOf(const std::map<std::string, std::vector<double>> &M,
                    const std::string &Name) {
  auto It = M.find(Name);
  double S = 0;
  if (It != M.end())
    for (double V : It->second)
      S += V;
  return S;
}

double SpanStats::selfP50(const std::string &Name) const {
  auto It = SelfUs.find(Name);
  return It == SelfUs.end() ? 0 : median(It->second);
}
double SpanStats::selfSum(const std::string &Name) const {
  return sumOf(SelfUs, Name);
}
double SpanStats::durSum(const std::string &Name) const {
  return sumOf(DurUs, Name);
}

uint64_t startLibraryTrace() {
  trace::clear();
  trace::start();
  uint64_t Base = nowNs();
  trace::instant("perfbench.start");
  return Base;
}

void stopLibraryTrace() { trace::stop(); }

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const SpanLog *> &Logs,
                      uint64_t BaseNs) {
  // The library drains relative to its first event, which the traced pass
  // makes an instant stamped at BaseNs, so both share one time axis.
  JsonValue Doc = trace::drainChromeJson();
  JsonValue Events = JsonValue::array();
  if (const JsonValue *Lib = Doc.find("traceEvents"))
    for (const JsonValue &E : Lib->items())
      Events.push(E);
  for (const SpanLog *L : Logs)
    for (const SpanRec &S : L->spans()) {
      JsonValue Ev = JsonValue::object();
      Ev.set("name", S.Name);
      Ev.set("cat", "perfbench");
      Ev.set("ph", "X");
      Ev.set("ts", double(S.Start - BaseNs) * 1e-3);
      Ev.set("dur", double(S.End - S.Start) * 1e-3);
      Ev.set("pid", 2);
      Ev.set("tid", uint64_t(L->tid()));
      JsonValue &Args = Ev.set("args", JsonValue::object());
      Args.set("op", S.Op);
      Args.set("parent", int64_t(S.Parent));
      Args.set("allocs", S.Allocs);
      Events.push(std::move(Ev));
    }
  Doc.set("traceEvents", std::move(Events));
  return bool(writeJsonFile(Doc, Path));
}

//===----------------------------------------------------------------------===//
// Grammars and documents.
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

void buildBnf(Grammar &G, std::string_view Source) {
  Expected<size_t> Built = readBnf(G, Source);
  if (!Built) {
    std::fprintf(stderr, "perfbench: bad grammar: %s\n",
                 Built.error().str().c_str());
    std::exit(2);
  }
}

Tokens lookupWords(const Grammar &G, std::string_view Text) {
  Tokens Out;
  for (std::string_view W : splitWords(Text))
    Out.push_back(G.symbols().lookup(W));
  return Out;
}

Tokens tokenizeSdf(Grammar &G, std::string_view Text) {
  Scanner S;
  configureSdfScanner(S);
  Expected<std::vector<SymbolId>> Toks = S.tokenizeToSymbols(Text, G);
  if (!Toks) {
    std::fprintf(stderr, "perfbench: SDF sample does not tokenize: %s\n",
                 Toks.error().str().c_str());
    std::exit(2);
  }
  return Toks.take();
}

std::string spell(const Grammar &G, const Tokens &Toks) {
  std::string Out;
  for (SymbolId S : Toks) {
    if (!Out.empty())
      Out += ' ';
    Out += S == InvalidSymbol ? std::string("?") : G.symbols().name(S);
  }
  return Out;
}

uint64_t Oracle::key(const Grammar &G, const Tokens &Input) {
  // The usable active rules reachable from START, by symbol name, in BFS
  // order.
  StreamHash H;
  const SymbolTable &Syms = G.symbols();
  std::vector<uint8_t> InInput(Syms.size(), 0);
  for (SymbolId S : Input)
    if (S < Syms.size())
      InInput[S] = 1;
  std::vector<uint8_t> Seen(Syms.size(), 0);
  std::vector<SymbolId> Work = {G.startSymbol()};
  Seen[G.startSymbol()] = 1;
  for (size_t I = 0; I < Work.size(); ++I)
    for (RuleId Id : G.rulesFor(Work[I])) {
      const Rule &R = G.rule(Id);
      bool Usable = true;
      for (SymbolId S : R.Rhs)
        Usable &= Syms.isNonterminal(S) || InInput[S];
      if (!Usable)
        continue;
      H.add(Syms.name(R.Lhs));
      H.add(R.Rhs.size());
      for (SymbolId S : R.Rhs) {
        H.add(Syms.name(S));
        if (Syms.isNonterminal(S) && !Seen[S]) {
          Seen[S] = 1;
          Work.push_back(S);
        }
      }
    }
  H.add(Input);
  return H.value();
}

Verdict Oracle::earley(const Grammar &G, const Tokens &Input) {
  EarleyParser P(G);
  Verdict V;
  V.Trees = P.countDerivations(TokenView(Input), TreeCap);
  V.Accepted = V.Trees != 0;
  return V;
}

Verdict Oracle::check(const Grammar &G, const Tokens &Input) {
  uint64_t K = key(G, Input);
  auto It = Memo.find(K);
  if (It != Memo.end())
    return It->second;
  ++Calls;
  Verdict V = earley(G, Input);
  Memo.emplace(K, V);
  return V;
}

void Oracle::defer(const Grammar &G, const Tokens &Input, Verdict Got) {
  uint64_t K = key(G, Input);
  auto It = PendingIndex.find(K);
  if (It != PendingIndex.end()) {
    Deferred[It->second].Got.push_back(Got);
    return;
  }
  PendingIndex.emplace(K, Deferred.size());
  Deferred.push_back({&G, Input, {Got}, K});
}

uint64_t Oracle::runDeferred(unsigned Threads) {
  std::vector<Verdict> Want(Deferred.size());
  std::vector<bool> Known(Deferred.size(), false);
  for (size_t I = 0; I < Deferred.size(); ++I) {
    auto It = Memo.find(Deferred[I].Key);
    if (It != Memo.end()) {
      Want[I] = It->second;
      Known[I] = true;
    }
  }
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Deferred.size();)
      if (!Known[I])
        Want[I] = earley(*Deferred[I].G, Deferred[I].Input);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();

  uint64_t Failed = 0;
  for (size_t I = 0; I < Deferred.size(); ++I) {
    Calls += !Known[I];
    Memo.emplace(Deferred[I].Key, Want[I]);
    for (const Verdict &Got : Deferred[I].Got)
      Failed += !(Got == Want[I]);
  }
  Deferred.clear();
  PendingIndex.clear();
  return Failed;
}

std::string estimatorNote(const std::string &Name,
                          const std::vector<std::vector<double>> &Reps) {
  std::string Out = Name + " estimators:";
  const std::pair<const char *, double> Ests[] = {
      {"fastest", 0.0}, {"lower-quartile", 0.25}, {"median", 0.5}};
  for (const auto &[EstName, Q] : Ests) {
    std::vector<double> Us = perOpQuantile(Reps, Q);
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " %s p50/p99 %.1f/%.1f", EstName,
                  quantile(Us, 0.50), quantile(Us, 0.99));
    Out += Buf;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Results.
//===----------------------------------------------------------------------===//

void addLatency(RunResult &R, const std::string &Name,
                const std::vector<double> &Us) {
  R.Named[Name + "_p50_us"] = {quantile(Us, 0.50), "us", Us.size()};
  R.Named[Name + "_p99_us"] = {quantile(Us, 0.99), "us", Us.size()};
}

void finishEndToEnd(RunResult &R, const std::vector<double> &OpUs,
                    const std::vector<double> &SetupS) {
  R.Named["setup_s"] = {median(SetupS), "s", SetupS.size()};
  R.Named["peak_rss_mb"] = {peakRssMb(), "MB", 1};
  R.Named["failed_frac"] = {R.Attempted ? double(R.Failed) / double(R.Attempted)
                                        : 0,
                            "ratio", R.Attempted};
  R.EndToEnd["setup_s"] = R.Named["setup_s"];
  R.EndToEnd["op_p50_us"] = {quantile(OpUs, 0.50), "us", OpUs.size()};
  R.EndToEnd["peak_rss_mb"] = R.Named["peak_rss_mb"];
}

const std::vector<std::pair<std::string, std::string>> &layerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"lr.expansions_per_op", "count"},
      {"lr.closure_items_per_op", "count"},
      {"lr.reexpansions_per_op", "count"},
      {"lr.dirty_marks_per_edit", "count"},
      {"lr.goto_calls_per_token", "count"},
      {"glr.gss_nodes_per_token", "count"},
      {"glr.gss_edges_per_token", "count"},
      {"glr.reduction_paths_per_token", "count"},
      {"glr.nodes_constructed_per_op", "count"},
      {"glr.allocs_per_token", "count"},
      {"glr.parse_self_us", "us"},
      {"forest.nodes_per_token", "count"},
      {"forest.alternatives_per_token", "count"},
      {"forest.packed_per_token", "count"},
      {"forest.live_ratio", "ratio"},
      {"doc.replace_self_us", "us"},
      {"doc.reparse_self_us", "us"},
      {"doc.grafted_frac", "ratio"},
      {"doc.resumed_frac", "ratio"},
      {"doc.scratch_frac", "ratio"},
      {"doc.restep_layers", "count"},
      {"doc.iso_walk_failures_per_op", "count"},
      {"doc.arena_ratio", "ratio"},
      {"doc.latency_drift", "ratio"},
      {"server.fork_self_us.p50", "us"},
      {"server.fork_self_us.p99", "us"},
      {"server.fork_drift", "ratio"},
      {"server.epoch_set_records", "count"},
      {"server.epoch_live_frac", "ratio"},
      {"server.live_epochs_max", "count"},
      {"session.migrate_self_us", "us"},
      {"session.reparse_self_us", "us"},
      {"session.drift", "ratio"},
      {"session.reused_frac", "ratio"},
      {"session.bounded_frac", "ratio"},
      {"session.full_frac", "ratio"},
      {"session.resumed_at_frac", "ratio"},
      {"grammar.build_self_us", "us"},
      {"lexer.tokenize_self_us", "us"},
      {"snap.load_self_us.warm", "us"},
      {"snap.load_self_us.stale", "us"},
      {"snap.file_bytes", "bytes"},
      {"snap.adopted_frac", "ratio"},
      {"snap.decoded_frac", "ratio"},
      {"snap.v1_loads", "count"},
      {"snap.rules_replayed_per_load", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.unattributed_frac", "ratio"},
  };
  return Names;
}

void setLayer(RunResult &R, const std::string &Name, double Value) {
  for (const auto &[N, Unit] : layerMetricNames())
    if (N == Name) {
      R.Layer[Name] = {Value, Unit, 0};
      return;
    }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               Name.c_str());
  std::exit(2);
}

void finishLayer(RunResult &R, const SpanStats &S, const char *OpSpan,
                 const std::vector<double> &UntracedOpUs) {
  for (const auto &[Name, Unit] : layerMetricNames())
    if (!R.Layer.count(Name))
      R.Layer[Name] = {0, Unit, 0};
  setLayer(R, "grammar.build_self_us", S.selfP50("grammar.build"));
  setLayer(R, "lexer.tokenize_self_us", S.selfP50("lexer.tokenize"));
  double Untraced = 0;
  for (double V : UntracedOpUs)
    Untraced += V;
  // The benchmark's own lock (grammar_edit) is excluded from latencies.
  double Traced = S.durSum(OpSpan) - S.durSum("bench.lock_wait");
  setLayer(R, "trace.overhead_frac", Untraced > 0 ? Traced / Untraced - 1 : 0);
  setLayer(R, "trace.unattributed_frac",
           Traced > 0 ? S.selfSum(OpSpan) / Traced : 0);
}

ItemSetGraphStats sumStats(const std::vector<const ItemSetGraph *> &Gs) {
  ItemSetGraphStats Sum;
  for (const ItemSetGraph *G : Gs) {
    ItemSetGraphStats S = G->stats();
    Sum.Expansions += S.Expansions;
    Sum.ReExpansions += S.ReExpansions;
    Sum.ClosureItems += S.ClosureItems;
    Sum.DirtyMarks += S.DirtyMarks;
    Sum.Collected += S.Collected;
    Sum.GotoCalls += S.GotoCalls;
  }
  return Sum;
}

LrCounters LrCounters::read() {
  MetricsRegistry &R = MetricsRegistry::process();
  LrCounters C;
  C.Expansions = R.counter("ipg.expand.total").total();
  C.ReExpansions = R.counter("ipg.expand.reexpansions").total();
  C.ClosureItems = R.counter("ipg.expand.closure_items").total();
  C.DirtyMarks = R.counter("ipg.modify.dirty_marks").total();
  C.NodesConstructed = R.counter("glr.gss.nodes_constructed").total();
  return C;
}

LrCounters LrCounters::operator-(const LrCounters &O) const {
  LrCounters D;
  D.Expansions = Expansions - O.Expansions;
  D.ReExpansions = ReExpansions - O.ReExpansions;
  D.ClosureItems = ClosureItems - O.ClosureItems;
  D.DirtyMarks = DirtyMarks - O.DirtyMarks;
  D.NodesConstructed = NodesConstructed - O.NodesConstructed;
  return D;
}

} // namespace pb
