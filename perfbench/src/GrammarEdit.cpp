//===- perfbench/src/GrammarEdit.cpp - The grammar_edit workload ----------===//
///
/// \file
/// The paper's Fig 7.1 scenario as a service, with writes beside reads. A
/// GrammarServer serves the 12x-SDF grammar and four DocumentSessions hold
/// the SDF samples. One writer thread applies a seeded script of rule
/// edits (Gen.h: makeModifyScript); an operation is one edit or burst,
/// timed from issuing it until the successor epoch is published and every
/// document has migrate()d and reparse()d. One reader thread meanwhile
/// parses whole samples through fresh ParseSessions (parse_p50/p99_us).
///
/// Both threads run fixed operation counts. The documents and the epoch
/// chain live for the whole run, so an edit's cost depends on the edits
/// before it.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "sdf/Samples.h"
#include "server/DocumentSession.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

using namespace ipg;

namespace pb {
namespace {

/// Every live-copy rule of the 12x-SDF grammar (59) is added and removed
/// this many times: 5 × 4 × 59 = 1,180 writer operations, enough to leave
/// more than ten samples above the p99.
constexpr size_t EditCycles = 4;
constexpr size_t ReaderOps = 2000;

struct Inputs {
  std::vector<ModifyOp> Script;
  std::vector<uint32_t> ReaderDraw; ///< Sample index per reader parse.
  size_t Edits = 0;
  uint64_t Hash = 0;
  size_t PerKind[ModifyOp::NumKinds] = {};
};

/// The 12x-SDF grammar with the symbols edit scripts use interned, so ids
/// agree between the script, the server and every epoch.
void buildGrammar(Grammar &G) {
  buildScaledSdf(G, SdfCopies);
  internEditKeywords(G, EditKeywords);
  for (const char *Name : {"(", "CF-ELEM+", ")?"})
    G.symbols().intern(Name);
}

Inputs makeInputs(const Options &Opt) {
  Inputs In;
  Grammar G;
  buildGrammar(G);
  In.Script = makeModifyScript(G, Opt.Seed, EditCycles);
  StreamHash H;
  for (const ModifyOp &Op : In.Script) {
    ++In.PerKind[Op.K];
    In.Edits += Op.Edits.size();
    for (const RuleEdit &E : Op.Edits) {
      H.add(E.Add);
      H.add(E.Lhs);
      H.add(E.Rhs);
    }
  }
  Rng R(Opt.Seed, 0x726561);
  for (size_t I = 0; I < ReaderOps; ++I) {
    In.ReaderDraw.push_back(uint32_t(R.below(sdfSamples().size())));
    H.add(In.ReaderDraw.back());
  }
  In.Hash = H.value();
  return In;
}

/// The system under test: the server and the four open documents.
struct Workbench {
  std::unique_ptr<GrammarServer> Server;
  std::vector<Tokens> Samples;
  std::vector<DocumentSession> Docs;
  /// Keeps reader parses from overlapping the documents' migrate+reparse
  /// (forks still overlap them). At the commit that introduced the
  /// benchmark, DocumentSession::migrate racing a ParseSession that expands
  /// the new epoch crashes in GssEngine::rebindGraph about once in a dozen
  /// runs (see README.md). The wait for this lock is not counted in either
  /// thread's latency.
  std::mutex MigrateVsRead;

  explicit Workbench(SpanLog &Log) {
    Grammar G;
    {
      Span S(Log, "grammar.build");
      buildGrammar(G);
    }
    for (const SdfSample &Sample : sdfSamples()) {
      Span S(Log, "lexer.tokenize");
      Samples.push_back(tokenizeSdf(G, Sample.Text));
    }
    Server = std::make_unique<GrammarServer>(G);
    for (const Tokens &T : Samples) {
      Docs.emplace_back(*Server);
      Docs.back().document().setTokens(T);
      Docs.back().document().reparse();
    }
  }
};

/// What one pass observed.
struct PassResult {
  std::vector<double> ModifyUs, ReadUs;
  uint64_t Failed = 0, Attempted = 0;
  // Traced-pass observations.
  size_t Migrations[4] = {};
  double ResumedAtFrac = 0, Reparses = 0;
  size_t LiveEpochsMax = 0;
  std::vector<double> SessionUs; ///< migrate+reparse time per writer op.
  double ReadTokens = 0, GssNodes = 0, GssEdges = 0, Paths = 0;
  double ForestNodes = 0, ForestAlts = 0, ForestPacked = 0;
  double SessionTokens = 0;
  double LiveRatio = 0;
  size_t SetRecords = 0;
  double LiveFrac = 0;
};

void writer(const Inputs &In, Workbench &W, SpanLog &Log, bool Traced,
            Oracle &Check, PassResult &Out) {
  CountAllocs = Traced;
  for (size_t I = 0; I < In.Script.size(); ++I) {
    const ModifyOp &Op = In.Script[I];
    Log.beginOp(I);
    bool EditsOk = true;
    uint64_t T0 = nowNs(), SessionNs = 0, WaitNs = 0;
    std::vector<DocumentSession::Migration> Mig;
    {
      Span OpSpan(Log, "op.modify");
      for (const RuleEdit &E : Op.Edits) {
        Span S(Log, "server.fork");
        EditsOk &= E.Add ? W.Server->addRule(E.Lhs, E.Rhs)
                         : W.Server->removeRule(E.Lhs, E.Rhs);
      }
      uint64_t S0 = nowNs();
      std::unique_lock<std::mutex> Lock(W.MigrateVsRead, std::defer_lock);
      {
        Span S(Log, "bench.lock_wait");
        Lock.lock();
      }
      uint64_t S1 = nowNs();
      WaitNs = S1 - S0;
      for (DocumentSession &D : W.Docs) {
        {
          Span S(Log, "session.migrate");
          Mig.push_back(D.migrate());
        }
        Span S(Log, "session.reparse");
        D.document().reparse();
      }
      SessionNs = nowNs() - S1;
    }
    Out.ModifyUs.push_back(double(nowNs() - T0 - WaitNs) * 1e-3);
    CountAllocs = false;

    bool Ok = EditsOk;
    for (DocumentSession &D : W.Docs) {
      const GlrResult &R = D.document().result();
      Verdict Got{R.Accepted, R.Accepted ? D.document().forest().countTrees(
                                               R.Root, TreeCap)
                                         : 0};
      Ok &= Check.agrees(D.epoch().grammar(), D.document().tokens(), Got);
    }
    ++Out.Attempted;
    Out.Failed += !Ok;
    if (Traced) {
      Out.SessionUs.push_back(double(SessionNs) * 1e-3);
      for (size_t K = 0; K < W.Docs.size(); ++K) {
        ++Out.Migrations[size_t(Mig[K])];
        const ParseDocument &Doc = W.Docs[K].document();
        const ReparseStats &RS = Doc.lastReparse();
        if (RS.Path != ReparseStats::Unchanged) {
          Out.ResumedAtFrac += double(RS.ResumedAt) / double(Doc.size());
          ++Out.Reparses;
          Out.SessionTokens += double(Doc.size());
        }
      }
      Out.LiveEpochsMax = std::max(Out.LiveEpochsMax, W.Server->liveEpochs());
    }
    CountAllocs = Traced;
  }
  CountAllocs = false;
}

void reader(const Inputs &In, Workbench &W, SpanLog &Log, bool Traced,
            Oracle &Check, PassResult &Out) {
  CountAllocs = Traced;
  for (size_t I = 0; I < In.ReaderDraw.size(); ++I) {
    const Tokens &Input = W.Samples[In.ReaderDraw[I]];
    Log.beginOp(I);
    std::optional<ParseSession> S;
    std::optional<Forest> F;
    GlrResult R;
    std::unique_lock<std::mutex> Lock(W.MigrateVsRead);
    uint64_t T0 = nowNs();
    {
      Span Op(Log, "op.read");
      S.emplace(W.Server->openSession());
      F.emplace();
      Span P(Log, "glr.parse");
      R = S->parse(Input, *F);
    }
    Out.ReadUs.push_back(double(nowNs() - T0) * 1e-3);
    Lock.unlock();
    CountAllocs = false;
    Verdict Got{R.Accepted, R.Accepted ? F->countTrees(R.Root, TreeCap) : 0};
    ++Out.Attempted;
    Out.Failed += !Check.agrees(S->epoch().grammar(), Input, Got);
    Out.ReadTokens += double(Input.size());
    Out.GssNodes += double(R.GssNodes);
    Out.GssEdges += double(R.GssEdges);
    Out.Paths += double(R.ReductionPaths);
    Out.ForestNodes += double(F->numNodes());
    Out.ForestAlts += double(F->numAlternatives());
    Out.ForestPacked += double(F->numPackedAmbiguities());
    CountAllocs = Traced;
  }
  CountAllocs = false;
}

/// Runs the writer and the reader once, each checking against its own
/// oracle (kept across passes so repeated checks hit the memo).
PassResult pass(const Inputs &In, Workbench &W, SpanLog &WLog, SpanLog &RLog,
                bool Traced, Oracle (&Checks)[2]) {
  PassResult Out, ReadOut;
  std::thread Reader(reader, std::cref(In), std::ref(W), std::ref(RLog),
                     Traced, std::ref(Checks[1]), std::ref(ReadOut));
  writer(In, W, WLog, Traced, Checks[0], Out);
  Reader.join();
  Out.ReadUs = std::move(ReadOut.ReadUs);
  Out.Failed += ReadOut.Failed;
  Out.Attempted += ReadOut.Attempted;
  Out.ReadTokens = ReadOut.ReadTokens;
  Out.GssNodes = ReadOut.GssNodes;
  Out.GssEdges = ReadOut.GssEdges;
  Out.Paths = ReadOut.Paths;
  Out.ForestNodes = ReadOut.ForestNodes;
  Out.ForestAlts = ReadOut.ForestAlts;
  Out.ForestPacked = ReadOut.ForestPacked;
  if (Traced) {
    // End-of-run state: the documents' forests against scratch parses,
    // and the current epoch's set table.
    for (DocumentSession &D : W.Docs) {
      ParseDocument Scratch(D.epoch().graph());
      Scratch.setTokens(D.document().tokens());
      Scratch.reparse();
      Out.LiveRatio += double(D.document().forest().numNodes()) /
                       double(std::max<size_t>(1, Scratch.forest().numNodes()));
    }
    Out.LiveRatio /= double(W.Docs.size());
    std::shared_ptr<GraphEpoch> E = W.Server->epoch();
    Out.SetRecords = E->graph().numSetIds();
    Out.LiveFrac = double(E->graph().numLive()) / double(Out.SetRecords);
  }
  return Out;
}

} // namespace

uint64_t grammarEditStreamHash(const Options &Opt) {
  return makeInputs(Opt).Hash;
}

RunResult runGrammarEdit(const Options &Opt) {
  RunResult Res;
  const Inputs In = makeInputs(Opt);
  Res.StreamHash = In.Hash;
  Res.Notes.push_back(
      "writer ops=" + std::to_string(In.Script.size()) + " (fig7.1/live/" +
      "clone/burst=" + std::to_string(In.PerKind[ModifyOp::Fig71]) + "/" +
      std::to_string(In.PerKind[ModifyOp::Live]) + "/" +
      std::to_string(In.PerKind[ModifyOp::Clone]) + "/" +
      std::to_string(In.PerKind[ModifyOp::Burst]) + ") rule edits=" +
      std::to_string(In.Edits) + " reader parses=" +
      std::to_string(In.ReaderDraw.size()));

  SpanLog Off, Off2;
  Oracle Checks[2];
  std::vector<double> SetupS;
  std::vector<std::vector<double>> ModifyReps, ReadReps;
  PassClock Clock(Opt);
  while (Clock.next()) {
    std::unique_ptr<Workbench> WP;
    timedSetups(WP, SetupS, [&] { return std::make_unique<Workbench>(Off); });
    Workbench &W = *WP;
    PassResult P = pass(In, W, Off, Off2, false, Checks);
    ModifyReps.push_back(std::move(P.ModifyUs));
    ReadReps.push_back(std::move(P.ReadUs));
    Res.Attempted += P.Attempted;
    Res.Failed += P.Failed;
  }
  Res.Notes.push_back("oracle: " +
                      std::to_string(Checks[0].calls() + Checks[1].calls()) +
                      " distinct inputs parsed by Earley");
  Res.Passes = Clock.passes();
  Res.Notes.push_back(repsNote("modify_us", ModifyReps));
  Res.Notes.push_back(estimatorNote("modify_us", ModifyReps));
  const std::vector<double> ModifyUs = perOpBest(ModifyReps);
  const std::vector<double> ReadUs = perOpBest(ReadReps);
  Res.Notes.push_back(tenthsNote("modify_us", ModifyUs));
  std::vector<size_t> KindOf;
  for (const ModifyOp &Op : In.Script)
    KindOf.push_back(Op.K);
  Res.Notes.push_back(categoryNote("modify_us", "edit kind", ModifyUs, KindOf,
                                   {"fig7.1", "live", "clone", "burst"}));

  if (!Opt.Trace) {
    addLatency(Res, "modify", ModifyUs);
    addLatency(Res, "parse", ReadUs);
    finishEndToEnd(Res, ModifyUs, SetupS);
    return Res;
  }

  SpanLog WLog(true, 1), RLog(true, 2);
  uint64_t Base = startLibraryTrace();
  Workbench W(WLog);
  LrCounters LrBefore = LrCounters::read();
  PassResult P = pass(In, W, WLog, RLog, true, Checks);
  LrCounters Lr = LrCounters::read() - LrBefore;
  stopLibraryTrace();
  Res.Attempted += P.Attempted;
  Res.Failed += P.Failed;

  SpanStats S = SpanStats::of({&WLog, &RLog});
  const double Ops = double(In.Script.size());
  const double Migrations = Ops * double(W.Docs.size());
  setLayer(Res, "lr.expansions_per_op", double(Lr.Expansions) / Ops);
  setLayer(Res, "lr.closure_items_per_op", double(Lr.ClosureItems) / Ops);
  setLayer(Res, "lr.reexpansions_per_op", double(Lr.ReExpansions) / Ops);
  setLayer(Res, "lr.dirty_marks_per_edit",
           double(Lr.DirtyMarks) / double(In.Edits));
  setLayer(Res, "glr.gss_nodes_per_token", P.GssNodes / P.ReadTokens);
  setLayer(Res, "glr.gss_edges_per_token", P.GssEdges / P.ReadTokens);
  setLayer(Res, "glr.reduction_paths_per_token", P.Paths / P.ReadTokens);
  setLayer(Res, "glr.nodes_constructed_per_op",
           double(Lr.NodesConstructed) / (Ops + double(In.ReaderDraw.size())));
  setLayer(Res, "glr.allocs_per_token",
           double(S.Allocs["glr.parse"] + S.Allocs["session.reparse"]) /
               (P.ReadTokens + P.SessionTokens));
  setLayer(Res, "glr.parse_self_us", S.selfP50("glr.parse"));
  setLayer(Res, "forest.nodes_per_token", P.ForestNodes / P.ReadTokens);
  setLayer(Res, "forest.alternatives_per_token", P.ForestAlts / P.ReadTokens);
  setLayer(Res, "forest.packed_per_token", P.ForestPacked / P.ReadTokens);
  setLayer(Res, "forest.live_ratio", P.LiveRatio);
  const std::vector<double> &Forks = S.DurUs["server.fork"];
  setLayer(Res, "server.fork_self_us.p50", quantile(S.SelfUs["server.fork"], 0.5));
  setLayer(Res, "server.fork_self_us.p99",
           quantile(S.SelfUs["server.fork"], 0.99));
  setLayer(Res, "server.fork_drift", drift(Forks));
  setLayer(Res, "server.epoch_set_records", double(P.SetRecords));
  setLayer(Res, "server.epoch_live_frac", P.LiveFrac);
  setLayer(Res, "server.live_epochs_max", double(P.LiveEpochsMax));
  setLayer(Res, "session.migrate_self_us", S.selfP50("session.migrate"));
  setLayer(Res, "session.reparse_self_us", S.selfP50("session.reparse"));
  setLayer(Res, "session.drift", drift(P.SessionUs));
  using M = DocumentSession::Migration;
  setLayer(Res, "session.reused_frac",
           double(P.Migrations[size_t(M::Reused)]) / Migrations);
  setLayer(Res, "session.bounded_frac",
           double(P.Migrations[size_t(M::Bounded)]) / Migrations);
  setLayer(Res, "session.full_frac",
           double(P.Migrations[size_t(M::Full)]) / Migrations);
  setLayer(Res, "session.resumed_at_frac",
           P.Reparses ? P.ResumedAtFrac / P.Reparses : 0);
  finishLayer(Res, S, "op.modify", ModifyUs);
  if (!Opt.TraceFile.empty())
    writeChromeTrace(Opt.TraceFile, {&WLog, &RLog}, Base);
  return Res;
}

} // namespace pb
