//===- perfbench/src/ColdStart.cpp - The cold_start workload --------------===//
///
/// \file
/// A tool invocation, repeated: one thread loops over fresh starts. An
/// operation is one start, timed from nothing to the first verdict: build
/// the 12x-SDF or a corpus grammar from its source, optionally load a
/// snapshot, tokenize a document and parse it. Each start takes one seeded
/// variant:
///
///   lazy   no snapshot: EXPAND from an empty graph;
///   warm   a snapshot of the same grammar, adopted;
///   stale  the grammar gained a rule since the snapshot was saved, so the
///          load replays the difference through the §6 repair.
///
/// Set-up writes one snapshot per grammar, saved from a graph warmed on
/// that grammar's documents.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "core/Ipg.h"
#include "sdf/Samples.h"
#include "support/Metrics.h"

#include <cstdio>
#include <filesystem>
#include <optional>
#include <unistd.h>

using namespace ipg;

namespace pb {
namespace {

constexpr size_t Starts = 3000;
constexpr size_t DocsPerCorpusGrammar = 6;
constexpr size_t StaleEditsPerGrammar = 16;

enum GrammarIdx { Sdf, Json, CSubset, Sql, NumGrammars };
const char *const GrammarNames[NumGrammars] = {"12x-SDF", "json", "c_subset",
                                               "sql_select"};
enum Variant { Lazy, Warm, Stale, NumVariants };
const char *const VariantNames[NumVariants] = {"lazy", "warm", "stale"};

/// One start: which grammar, variant, document and (stale) rule edit.
struct Start {
  GrammarIdx G;
  Variant V;
  uint32_t Doc;
  uint32_t Edit;
};

struct Inputs {
  std::vector<std::string> Sources;            ///< BNF (empty for SDF).
  std::vector<std::vector<std::string>> Texts; ///< Per grammar: documents.
  std::vector<std::vector<RuleEdit>> Edits;    ///< Per grammar: stale edits.
  std::vector<Start> Script;
  uint64_t Hash = 0;
};

/// Builds grammar \p I "from its source", as every start does.
void buildGrammar(Grammar &G, const Inputs &In, GrammarIdx I) {
  if (I == Sdf)
    buildScaledSdf(G, SdfCopies);
  else
    buildBnf(G, In.Sources[I]);
  internEditKeywords(G, 1);
}

Inputs makeInputs(const Options &Opt) {
  Inputs In;
  Rng R(Opt.Seed, 0x636f6c);
  StreamHash H;
  In.Sources.resize(NumGrammars);
  In.Texts.resize(NumGrammars);
  In.Edits.resize(NumGrammars);
  for (int I = Json; I < NumGrammars; ++I)
    In.Sources[I] =
        readFile(Opt.Where.CorpusDir + "/" + GrammarNames[I] + ".bnf");
  for (const SdfSample &S : sdfSamples())
    In.Texts[Sdf].emplace_back(S.Text);
  for (int I = 0; I < NumGrammars; ++I) {
    Grammar G;
    buildGrammar(G, In, GrammarIdx(I));
    for (size_t K = 0; I != Sdf && K < DocsPerCorpusGrammar; ++K) {
      ListDocument D(listLanguages()[size_t(I - Json)], G);
      D.grow(R, 100 + K * 50 + R.below(20));
      In.Texts[I].push_back(spell(G, D.flatten()));
    }
    // Edited rules evenly spaced over the grammar from a seeded offset:
    // how much a stale load repairs depends on which rule changed.
    const double Phase = R.unit();
    for (size_t K = 0; K < StaleEditsPerGrammar; ++K)
      In.Edits[I].push_back(makeStaleEdit(
          G, (Phase + double(K)) / double(StaleEditsPerGrammar)));
    for (const std::string &T : In.Texts[I])
      H.add(T);
    for (const RuleEdit &E : In.Edits[I]) {
      H.add(E.Lhs);
      H.add(E.Rhs);
    }
  }
  // Every (grammar, variant) cell gets the same number of starts, and
  // within a cell the documents and stale edits take turns: the seed
  // changes the order and the documents' content, not the mix.
  const size_t Cells = size_t(NumGrammars) * NumVariants;
  for (size_t I = 0; I < Starts; ++I) {
    Start S;
    S.G = GrammarIdx(I % Cells / NumVariants);
    S.V = Variant(I % Cells % NumVariants);
    S.Doc = uint32_t(I / Cells % In.Texts[S.G].size());
    S.Edit = uint32_t(I / Cells % StaleEditsPerGrammar);
    In.Script.push_back(S);
  }
  R.shuffle(In.Script);
  for (const Start &S : In.Script) {
    H.add(S.G);
    H.add(S.V);
    H.add(S.Doc);
    H.add(S.Edit);
  }
  In.Hash = H.value();
  return In;
}

/// Set-up: one snapshot file per grammar, from a graph warmed on all of
/// that grammar's documents. Removes the files when destroyed.
struct SnapshotFiles {
  std::vector<std::string> Paths;
  double Bytes = 0;

  SnapshotFiles(const Inputs &In, const std::string &Dir) {
    for (int I = 0; I < NumGrammars; ++I) {
      Grammar G;
      buildGrammar(G, In, GrammarIdx(I));
      Ipg Gen(G);
      for (const std::string &T : In.Texts[I]) {
        Tokens Toks = I == Sdf ? tokenizeSdf(G, T) : lookupWords(G, T);
        Forest F;
        Gen.parse(Toks, F);
      }
      std::string Path = Dir + "/cold-start-" + std::to_string(getpid()) +
                         "-" + std::to_string(I) + ".snap";
      Expected<size_t> Saved = Gen.saveSnapshot(Path);
      if (!Saved) {
        std::fprintf(stderr, "perfbench: cannot save %s: %s\n", Path.c_str(),
                     Saved.error().str().c_str());
        std::exit(2);
      }
      Bytes += double(*Saved);
      Paths.push_back(std::move(Path));
    }
  }
  ~SnapshotFiles() {
    for (const std::string &P : Paths)
      std::remove(P.c_str());
  }
  SnapshotFiles(const SnapshotFiles &) = delete;
  SnapshotFiles &operator=(const SnapshotFiles &) = delete;
};

/// Snapshot-layer registry counters.
struct SnapCounters {
  uint64_t Adopted = 0, Decoded = 0, V1 = 0;
  static SnapCounters read() {
    MetricsRegistry &R = MetricsRegistry::process();
    return {R.counter("ipg.snapshot.v2_adopted").total(),
            R.counter("ipg.snapshot.v2_decoded").total(),
            R.counter("ipg.snapshot.loads_v1").total()};
  }
};

/// Traced-pass totals.
struct LayerTotals {
  double Tokens = 0, GssNodes = 0, GssEdges = 0, Paths = 0, Gotos = 0;
  double ForestNodes = 0, ForestAlts = 0, ForestPacked = 0;
  double Loads = 0, RulesReplayed = 0, StaleStarts = 0;
  LrCounters Lr;
};

/// Runs every start once and returns its latency in µs.
std::vector<double> replay(const Inputs &In, const SnapshotFiles &Snaps,
                           SpanLog &Log, Oracle &Check, RunResult &Res,
                           LayerTotals *Tot) {
  std::vector<double> Lat;
  for (size_t I = 0; I < In.Script.size(); ++I) {
    const Start &S = In.Script[I];
    Log.beginOp(I);
    LrCounters LrBefore;
    if (Tot) {
      CountAllocs = false;
      LrBefore = LrCounters::read();
      CountAllocs = true;
    }
    Grammar G;
    std::optional<Ipg> Gen;
    std::optional<Forest> F;
    Tokens Toks;
    GlrResult R;
    bool LoadOk = true;
    std::optional<SnapshotLoadResult> Load;
    uint64_t GotoBefore = 0, T0 = nowNs();
    {
      Span Op(Log, "op.cold_start");
      {
        Span B(Log, "grammar.build");
        buildGrammar(G, In, S.G);
        if (S.V == Stale) {
          const RuleEdit &E = In.Edits[S.G][S.Edit];
          G.addRule(E.Lhs, E.Rhs);
        }
      }
      Gen.emplace(G);
      if (S.V != Lazy) {
        Span L(Log, S.V == Warm ? "snap.load.warm" : "snap.load.stale");
        Expected<SnapshotLoadResult> Loaded = Gen->loadSnapshot(Snaps.Paths[S.G]);
        LoadOk = bool(Loaded);
        if (Loaded)
          Load = *Loaded;
      }
      {
        Span T(Log, "lexer.tokenize");
        const std::string &Text = In.Texts[S.G][S.Doc];
        Toks = S.G == Sdf ? tokenizeSdf(G, Text) : lookupWords(G, Text);
      }
      if (Tot)
        GotoBefore = Gen->stats().GotoCalls;
      F.emplace();
      Span P(Log, "glr.parse");
      R = Gen->parse(Toks, *F);
    }
    Lat.push_back(double(nowNs() - T0) * 1e-3);
    CountAllocs = false;

    Verdict Got{R.Accepted, R.Accepted ? F->countTrees(R.Root, TreeCap) : 0};
    ++Res.Attempted;
    Res.Failed += !LoadOk || !Check.agrees(G, Toks, Got);
    if (Tot) {
      LrCounters D = LrCounters::read() - LrBefore;
      Tot->Lr.Expansions += D.Expansions;
      Tot->Lr.ClosureItems += D.ClosureItems;
      Tot->Lr.ReExpansions += D.ReExpansions;
      Tot->Lr.DirtyMarks += D.DirtyMarks;
      Tot->Lr.NodesConstructed += D.NodesConstructed;
      Tot->Gotos += double(Gen->stats().GotoCalls - GotoBefore);
      Tot->Tokens += double(Toks.size());
      Tot->GssNodes += double(R.GssNodes);
      Tot->GssEdges += double(R.GssEdges);
      Tot->Paths += double(R.ReductionPaths);
      Tot->ForestNodes += double(F->numNodes());
      Tot->ForestAlts += double(F->numAlternatives());
      Tot->ForestPacked += double(F->numPackedAmbiguities());
      Tot->StaleStarts += S.V == Stale;
      if (Load) {
        ++Tot->Loads;
        Tot->RulesReplayed += double(Load->RulesAdded + Load->RulesRemoved);
      }
      CountAllocs = true;
    }
  }
  CountAllocs = false;
  return Lat;
}

} // namespace

uint64_t coldStartStreamHash(const Options &Opt) { return makeInputs(Opt).Hash; }

RunResult runColdStart(const Options &Opt) {
  RunResult Res;
  const Inputs In = makeInputs(Opt);
  Res.StreamHash = In.Hash;
  std::filesystem::create_directories(Opt.Where.WorkDir);

  std::vector<double> SetupS;
  std::unique_ptr<SnapshotFiles> Snaps;
  Oracle Check;
  SpanLog Off;
  std::vector<std::vector<double>> RepUs;
  PassClock Clock(Opt);
  while (Clock.next()) {
    timedSetups(Snaps, SetupS, [&] {
      return std::make_unique<SnapshotFiles>(In, Opt.Where.WorkDir);
    });
    if (Clock.passes() == 1) {
      // Warm the process (code, allocator, page cache) with one start of
      // each grammar and variant; these are checked but not timed.
      Inputs Warmup = In;
      Warmup.Script.clear();
      for (int G = 0; G < NumGrammars; ++G)
        for (int V = 0; V < NumVariants; ++V)
          Warmup.Script.push_back({GrammarIdx(G), Variant(V), 0, 0});
      replay(Warmup, *Snaps, Off, Check, Res, nullptr);
    }
    RepUs.push_back(replay(In, *Snaps, Off, Check, Res, nullptr));
  }
  Res.Passes = Clock.passes();
  Res.Notes.push_back(repsNote("first_parse_us", RepUs));
  Res.Notes.push_back(estimatorNote("first_parse_us", RepUs));
  const std::vector<double> OpUs = perOpBest(RepUs);

  std::vector<size_t> VariantOf, GrammarOf;
  for (const Start &S : In.Script) {
    VariantOf.push_back(S.V);
    GrammarOf.push_back(S.G);
  }
  Res.Notes.push_back(categoryNote(
      "first_parse_us", "variant", OpUs, VariantOf,
      std::vector<std::string>(VariantNames, VariantNames + NumVariants)));
  Res.Notes.push_back(categoryNote(
      "first_parse_us", "grammar", OpUs, GrammarOf,
      std::vector<std::string>(GrammarNames, GrammarNames + NumGrammars)));

  if (!Opt.Trace) {
    addLatency(Res, "first_parse", OpUs);
    finishEndToEnd(Res, OpUs, SetupS);
    return Res;
  }

  LayerTotals Tot;
  SpanLog Log(true, 1);
  SnapCounters Before = SnapCounters::read();
  uint64_t Base = startLibraryTrace();
  CountAllocs = true;
  replay(In, *Snaps, Log, Check, Res, &Tot);
  stopLibraryTrace();
  SnapCounters After = SnapCounters::read();

  SpanStats S = SpanStats::of({&Log});
  const double Ops = double(In.Script.size());
  setLayer(Res, "lr.expansions_per_op", double(Tot.Lr.Expansions) / Ops);
  setLayer(Res, "lr.closure_items_per_op", double(Tot.Lr.ClosureItems) / Ops);
  setLayer(Res, "lr.reexpansions_per_op", double(Tot.Lr.ReExpansions) / Ops);
  setLayer(Res, "lr.dirty_marks_per_edit",
           Tot.StaleStarts ? double(Tot.Lr.DirtyMarks) / Tot.StaleStarts : 0);
  setLayer(Res, "lr.goto_calls_per_token", Tot.Gotos / Tot.Tokens);
  setLayer(Res, "glr.gss_nodes_per_token", Tot.GssNodes / Tot.Tokens);
  setLayer(Res, "glr.gss_edges_per_token", Tot.GssEdges / Tot.Tokens);
  setLayer(Res, "glr.reduction_paths_per_token", Tot.Paths / Tot.Tokens);
  setLayer(Res, "glr.nodes_constructed_per_op",
           double(Tot.Lr.NodesConstructed) / Ops);
  setLayer(Res, "glr.allocs_per_token",
           double(S.Allocs["glr.parse"]) / Tot.Tokens);
  setLayer(Res, "glr.parse_self_us", S.selfP50("glr.parse"));
  setLayer(Res, "forest.nodes_per_token", Tot.ForestNodes / Tot.Tokens);
  setLayer(Res, "forest.alternatives_per_token", Tot.ForestAlts / Tot.Tokens);
  setLayer(Res, "forest.packed_per_token", Tot.ForestPacked / Tot.Tokens);
  setLayer(Res, "snap.load_self_us.warm", S.selfP50("snap.load.warm"));
  setLayer(Res, "snap.load_self_us.stale", S.selfP50("snap.load.stale"));
  setLayer(Res, "snap.file_bytes", Snaps->Bytes / double(NumGrammars));
  const double Loads = std::max(1.0, Tot.Loads);
  setLayer(Res, "snap.adopted_frac", double(After.Adopted - Before.Adopted) / Loads);
  setLayer(Res, "snap.decoded_frac", double(After.Decoded - Before.Decoded) / Loads);
  setLayer(Res, "snap.v1_loads", double(After.V1 - Before.V1));
  setLayer(Res, "snap.rules_replayed_per_load", Tot.RulesReplayed / Loads);
  finishLayer(Res, S, "op.cold_start", OpUs);
  if (!Opt.TraceFile.empty())
    writeChromeTrace(Opt.TraceFile, {&Log}, Base);
  return Res;
}

} // namespace pb
