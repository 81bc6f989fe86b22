//===- perfbench/src/Keystroke.cpp - The keystroke workload ---------------===//
///
/// \file
/// Editor buffers: pumped json, c_subset and sql_select documents, one
/// ParseDocument each over one warm Ipg graph per grammar, one thread
/// interleaving the documents round-robin. An operation is one keystroke
/// from the seeded cursor model (Gen.h), timed from applying the edit to
/// the buffer until ParseDocument::reparse() returns.
///
/// The documents live for the whole run, so the latency of a keystroke
/// depends on the keystrokes before it; the run length is a fixed
/// keystroke count for that reason.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "core/Ipg.h"
#include "incremental/ParseDocument.h"
#include "support/StringUtils.h"

#include <memory>

using namespace ipg;

namespace pb {
namespace {

constexpr size_t DocsPerGrammar = 2;
constexpr size_t Keystrokes = 1200;

/// Document sizes are stratified so every seed measures the same mix:
/// per grammar one small and one large buffer, jittered within its band.
/// sql_select's bands are lower because the Earley oracle is quadratic on
/// its long select lists.
size_t docSize(Rng &R, const ListLanguage &L, size_t Band) {
  if (std::string_view(L.Name) == "sql_select")
    return Band == 0 ? R.range(520, 580) : R.range(850, 950);
  return Band == 0 ? R.range(650, 720) : R.range(1500, 1650);
}

/// The generated inputs: initial buffers and the keystroke script.
struct Inputs {
  std::vector<std::string> Sources; ///< BNF source per grammar.
  std::vector<size_t> GrammarOf;    ///< Per document.
  std::vector<Tokens> Initial;      ///< Per document.
  std::vector<Tokens> Warm;         ///< Two per grammar: every template,
                                    ///< then the same with a break in it.
  std::vector<Keystroke> Script;
  uint64_t Hash = 0;
  size_t Jumps = 0;
  size_t PerKind[Keystroke::NumKinds] = {};
};

Inputs makeInputs(const Options &Opt) {
  Inputs In;
  Rng R(Opt.Seed, 0x646f63);
  std::vector<ListDocument> Models;
  StreamHash H;
  for (const ListLanguage &L : listLanguages()) {
    In.Sources.push_back(readFile(Opt.Where.CorpusDir + "/" + L.Name + ".bnf"));
    Grammar G;
    buildBnf(G, In.Sources.back());
    for (size_t Band = 0; Band < DocsPerGrammar; ++Band) {
      ListDocument D(L, G);
      D.grow(R, docSize(R, L, Band));
      In.GrammarOf.push_back(In.Sources.size() - 1);
      In.Initial.push_back(D.flatten());
      H.add(In.Initial.back());
      Models.push_back(std::move(D));
    }
    // One element of each template (a slot takes its class's first
    // spelling), whole and with the breaker after the first element, so
    // set-up expands what the cursor model reaches.
    std::string Text;
    size_t FirstEnd = 0;
    auto Append = [&](std::string_view W) {
      Text += W;
      Text += ' ';
    };
    for (const std::string &W : L.Prefix)
      Append(W);
    for (size_t T = 0; T < L.Templates.size(); ++T) {
      if (T && !L.Sep.empty())
        Append(L.Sep);
      for (std::string_view W : splitWords(L.Templates[T].Words))
        Append(W[0] == '$' ? std::string_view(L.Classes[size_t(W[1] - '0')][0])
                           : W);
      if (T == 0)
        FirstEnd = Text.size();
    }
    for (const std::string &W : L.Suffix)
      Append(W);
    In.Warm.push_back(lookupWords(G, Text));
    In.Warm.push_back(lookupWords(G, Text.insert(FirstEnd, L.Breaker + " ")));
  }
  KeystrokeModel Model(Opt.Seed, std::move(Models));
  const uint32_t NumDocs = uint32_t(In.Initial.size());
  for (size_t I = 0; I < Keystrokes; ++I) {
    Keystroke K = Model.next(uint32_t(I % NumDocs));
    H.add(K.Doc);
    H.add(K.Begin);
    H.add(K.End);
    H.add(K.Repl);
    In.Jumps += K.Jumped;
    ++In.PerKind[K.K];
    In.Script.push_back(std::move(K));
  }
  In.Hash = H.value();
  return In;
}

/// The system under test for one pass: grammars, generators, documents.
struct Editor {
  std::vector<std::unique_ptr<Grammar>> Grammars;
  std::vector<std::unique_ptr<Ipg>> Gens;
  std::vector<std::unique_ptr<ParseDocument>> Docs;

  Editor(const Inputs &In, SpanLog &Log) {
    for (const std::string &Src : In.Sources) {
      Grammars.push_back(std::make_unique<Grammar>());
      {
        Span S(Log, "grammar.build");
        buildBnf(*Grammars.back(), Src);
      }
      Gens.push_back(std::make_unique<Ipg>(*Grammars.back()));
      for (size_t K = 0; K < 2; ++K) {
        ParseDocument W(Gens.back()->graph());
        W.setTokens(In.Warm[2 * (Gens.size() - 1) + K]);
        W.reparse();
      }
    }
    for (size_t D = 0; D < In.Initial.size(); ++D) {
      Docs.push_back(std::make_unique<ParseDocument>(
          Gens[In.GrammarOf[D]]->graph()));
      Docs.back()->setTokens(In.Initial[D]);
      Docs.back()->reparse();
    }
  }
};

/// Per-keystroke observations of the traced pass.
struct LayerTotals {
  double Tokens = 0;
  double GssNodes = 0, GssEdges = 0, ReductionPaths = 0, Gotos = 0;
  double ForestNodes = 0, ForestAlts = 0, ForestPacked = 0;
  double Restep = 0, IsoFailures = 0;
  size_t Paths[4] = {};
  LrCounters Lr;
};

/// Replays the whole script against \p Ed and returns each keystroke's
/// latency in µs. With \p Check, defers every result to the oracle; with
/// \p Tot, collects the traced pass's counts around each keystroke.
std::vector<double> replay(const Inputs &In, Editor &Ed, SpanLog &Log,
                           Oracle *Check, LayerTotals *Tot) {
  std::vector<double> Lat;
  Lat.reserve(In.Script.size());
  for (size_t I = 0; I < In.Script.size(); ++I) {
    const Keystroke &K = In.Script[I];
    ParseDocument &Doc = *Ed.Docs[K.Doc];
    Log.beginOp(I);
    LrCounters LrBefore;
    uint64_t GotoBefore = 0;
    size_t FN = 0, FA = 0, FP = 0;
    if (Tot) {
      CountAllocs = false;
      LrBefore = LrCounters::read();
      GotoBefore = Doc.graph().stats().GotoCalls;
      FN = Doc.forest().numNodes();
      FA = Doc.forest().numAlternatives();
      FP = Doc.forest().numPackedAmbiguities();
      CountAllocs = true;
    }
    uint64_t T0 = nowNs();
    const GlrResult *R;
    {
      Span Op(Log, "op.keystroke");
      {
        Span S(Log, "doc.replace");
        Doc.replace(K.Begin, K.End, ArrayView<SymbolId>(K.Repl));
      }
      Span S(Log, "doc.reparse");
      R = &Doc.reparse();
    }
    Lat.push_back(double(nowNs() - T0) * 1e-3);

    if (Check) {
      Verdict Got{R->Accepted,
                  R->Accepted ? Doc.forest().countTrees(R->Root, TreeCap) : 0};
      Check->defer(*Ed.Grammars[In.GrammarOf[K.Doc]], Doc.tokens(), Got);
    }
    if (Tot) {
      CountAllocs = false;
      const ReparseStats &RS = Doc.lastReparse();
      LrCounters D = LrCounters::read() - LrBefore;
      Tot->Lr.Expansions += D.Expansions;
      Tot->Lr.ClosureItems += D.ClosureItems;
      Tot->Lr.ReExpansions += D.ReExpansions;
      Tot->Lr.NodesConstructed += D.NodesConstructed;
      Tot->Gotos += double(Doc.graph().stats().GotoCalls - GotoBefore);
      Tot->Tokens += double(Doc.size());
      Tot->GssNodes += double(R->GssNodes);
      Tot->GssEdges += double(R->GssEdges);
      Tot->ReductionPaths += double(R->ReductionPaths);
      Tot->ForestNodes += double(Doc.forest().numNodes() - FN);
      Tot->ForestAlts += double(Doc.forest().numAlternatives() - FA);
      Tot->ForestPacked += double(Doc.forest().numPackedAmbiguities() - FP);
      ++Tot->Paths[RS.Path];
      if (RS.ConvergedAt > RS.ResumedAt)
        Tot->Restep += double(RS.ConvergedAt - RS.ResumedAt);
      Tot->IsoFailures += double(RS.IsoWalkFailures);
      CountAllocs = true;
    }
  }
  CountAllocs = false;
  return Lat;
}

} // namespace

uint64_t keystrokeStreamHash(const Options &Opt) { return makeInputs(Opt).Hash; }

RunResult runKeystroke(const Options &Opt) {
  RunResult Res;
  const Inputs In = makeInputs(Opt);
  Res.StreamHash = In.Hash;

  // Untraced repetitions of the whole script, each on a fresh set-up: the
  // end-to-end metrics (each keystroke's fastest replay), or the traced
  // run's baseline.
  Oracle Check;
  SpanLog Off;
  std::vector<double> SetupS;
  std::vector<std::vector<double>> RepUs;
  PassClock Clock(Opt);
  while (Clock.next()) {
    std::unique_ptr<Editor> EdP;
    timedSetups(EdP, SetupS, [&] { return std::make_unique<Editor>(In, Off); });
    Editor &Ed = *EdP;
    RepUs.push_back(replay(In, Ed, Off, &Check, nullptr));
    Res.Attempted += In.Script.size();
    // Earley is quadratic on these long lists; check on three threads,
    // while the grammars the checks refer to are alive.
    Res.Failed += Check.runDeferred(3);
  }
  Res.Passes = Clock.passes();
  Res.Notes.push_back(repsNote("keystroke_us", RepUs));
  Res.Notes.push_back(estimatorNote("keystroke_us", RepUs));
  const std::vector<double> OpUs = perOpBest(RepUs);
  Res.Notes.push_back("oracle: " + std::to_string(Check.calls()) +
                      " distinct buffers parsed by Earley");
  Res.Notes.push_back(tenthsNote("keystroke_us", OpUs));
  std::vector<size_t> KindOf, JumpOf;
  for (const Keystroke &K : In.Script) {
    KindOf.push_back(K.K);
    JumpOf.push_back(K.Jumped);
  }
  Res.Notes.push_back(categoryNote(
      "keystroke_us", "kind", OpUs, KindOf,
      {"retype", "substitute", "insert", "delete", "break", "repair"}));
  Res.Notes.push_back(categoryNote("keystroke_us", "cursor", OpUs, JumpOf,
                                   {"local", "jumped"}));

  if (!Opt.Trace) {
    addLatency(Res, "keystroke", OpUs);
    finishEndToEnd(Res, OpUs, SetupS);
  } else {
    LayerTotals Tot;
    SpanLog Log(true, 1);
    uint64_t Base = startLibraryTrace();
    Editor Ed(In, Log);
    replay(In, Ed, Log, &Check, &Tot);
    stopLibraryTrace();
    Res.Attempted += In.Script.size();
    Res.Failed += Check.runDeferred(3);

    // End-of-run state against a scratch parse of the same buffers.
    double Live = 0, Arena = 0;
    for (const auto &Doc : Ed.Docs) {
      ParseDocument Scratch(Doc->graph());
      Scratch.setTokens(Doc->tokens());
      Scratch.reparse();
      Live += double(Doc->forest().numNodes()) /
              double(std::max<size_t>(1, Scratch.forest().numNodes()));
      Arena += double(Doc->engine().numArenaNodes()) /
               double(std::max<size_t>(1, Scratch.engine().numArenaNodes()));
    }
    const double Docs = double(Ed.Docs.size());
    setLayer(Res, "forest.live_ratio", Live / Docs);
    setLayer(Res, "doc.arena_ratio", Arena / Docs);

    SpanStats S = SpanStats::of({&Log});
    const double Ops = double(In.Script.size());
    setLayer(Res, "lr.expansions_per_op", double(Tot.Lr.Expansions) / Ops);
    setLayer(Res, "lr.closure_items_per_op", double(Tot.Lr.ClosureItems) / Ops);
    setLayer(Res, "lr.reexpansions_per_op", double(Tot.Lr.ReExpansions) / Ops);
    setLayer(Res, "lr.goto_calls_per_token", Tot.Gotos / Tot.Tokens);
    setLayer(Res, "glr.gss_nodes_per_token", Tot.GssNodes / Tot.Tokens);
    setLayer(Res, "glr.gss_edges_per_token", Tot.GssEdges / Tot.Tokens);
    setLayer(Res, "glr.reduction_paths_per_token",
             Tot.ReductionPaths / Tot.Tokens);
    setLayer(Res, "glr.nodes_constructed_per_op",
             double(Tot.Lr.NodesConstructed) / Ops);
    setLayer(Res, "glr.allocs_per_token",
             double(S.Allocs["doc.reparse"]) / Tot.Tokens);
    setLayer(Res, "forest.nodes_per_token", Tot.ForestNodes / Tot.Tokens);
    setLayer(Res, "forest.alternatives_per_token", Tot.ForestAlts / Tot.Tokens);
    setLayer(Res, "forest.packed_per_token", Tot.ForestPacked / Tot.Tokens);
    setLayer(Res, "doc.replace_self_us", S.selfP50("doc.replace"));
    setLayer(Res, "doc.reparse_self_us", S.selfP50("doc.reparse"));
    setLayer(Res, "doc.grafted_frac",
             double(Tot.Paths[ReparseStats::Grafted]) / Ops);
    setLayer(Res, "doc.resumed_frac",
             double(Tot.Paths[ReparseStats::Resumed]) / Ops);
    setLayer(Res, "doc.scratch_frac",
             double(Tot.Paths[ReparseStats::Scratch]) / Ops);
    setLayer(Res, "doc.restep_layers", Tot.Restep / Ops);
    setLayer(Res, "doc.iso_walk_failures_per_op", Tot.IsoFailures / Ops);
    setLayer(Res, "doc.latency_drift", drift(OpUs));
    finishLayer(Res, S, "op.keystroke", OpUs);
    if (!Opt.TraceFile.empty())
      writeChromeTrace(Opt.TraceFile, {&Log}, Base);
  }

  Res.Notes.push_back("documents=" + std::to_string(In.Initial.size()) +
                      " keystrokes=" + std::to_string(In.Script.size()) +
                      " jumps=" + std::to_string(In.Jumps));
  std::string Kinds = "kinds retype/substitute/insert/delete/break/repair=";
  for (size_t K = 0; K < Keystroke::NumKinds; ++K) {
    if (K)
      Kinds += '/'; // Not "/" + ...: GCC 12 -Wrestrict misfires at -O3.
    Kinds += std::to_string(In.PerKind[K]);
  }
  Res.Notes.push_back(Kinds);
  return Res;
}

} // namespace pb
