//===- perfbench/src/Parse.cpp - The parse workload -----------------------===//
///
/// \file
/// Batch parsing on warm graphs: two client threads, each holding one
/// ParseSession per GrammarServer, parse a seeded draw of documents in a
/// closed loop. An operation is one whole-document parse into a fresh
/// Forest, timed until the verdict. The draw mixes the four SDF samples
/// over the 12x-SDF grammar (a large graph), pumped json / c_subset /
/// sql_select documents (small graphs) and inputs of the ambiguous
/// ambiguous_expr and palindrome grammars.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include "sdf/Samples.h"
#include "server/GrammarServer.h"

#include <latch>
#include <memory>
#include <optional>
#include <thread>

using namespace ipg;

namespace pb {
namespace {

constexpr unsigned Clients = 2;
constexpr size_t OpsPerClient = 1500;
constexpr size_t ListPoolPerGrammar = 16;
constexpr size_t PoolPerGrammar = 6; ///< Inputs per ambiguous grammar.

/// The grammars, in server order.
enum GrammarIdx { Sdf, Json, CSubset, Sql, AmbExpr, Palindrome, NumGrammars };
const char *const GrammarNames[NumGrammars] = {
    "12x-SDF", "json", "c_subset", "sql_select", "ambiguous_expr",
    "palindrome"};

/// Share of operations per category: SDF samples, the three list
/// languages, the two ambiguous grammars. No record of real traffic
/// exists to take them from; they are set so that each category takes a
/// fifth or more of the parse time (the category note of every run shows
/// the shares), so that a change confined to one category moves
/// op_p50_us.
const std::vector<double> CategoryWeights = {0.30, 0.40, 0.30};

/// Index into CategoryWeights.
size_t categoryOf(GrammarIdx G) { return G == Sdf ? 0 : G < AmbExpr ? 1 : 2; }

struct Doc {
  GrammarIdx G;
  Tokens Toks;
};

struct Inputs {
  std::vector<std::string> Sources; ///< BNF per grammar (empty for SDF).
  std::vector<Doc> Pool;
  std::vector<std::vector<size_t>> ByGrammar;
  std::vector<std::vector<uint32_t>> Draw; ///< Per client: pool indices.
  uint64_t Hash = 0;
};

void buildGrammar(Grammar &G, const Inputs &In, GrammarIdx I) {
  if (I == Sdf)
    buildScaledSdf(G, SdfCopies);
  else
    buildBnf(G, In.Sources[I]);
}

Inputs makeInputs(const Options &Opt) {
  Inputs In;
  Rng R(Opt.Seed, 0x706172);
  StreamHash H;
  In.Sources.resize(NumGrammars);
  In.ByGrammar.resize(NumGrammars);
  for (int I = Json; I < NumGrammars; ++I)
    In.Sources[I] =
        readFile(Opt.Where.CorpusDir + "/" + GrammarNames[I] + ".bnf");
  auto Add = [&](GrammarIdx G, Tokens T) {
    H.add(T);
    In.ByGrammar[G].push_back(In.Pool.size());
    In.Pool.push_back({G, std::move(T)});
  };
  {
    Grammar G;
    buildGrammar(G, In, Sdf);
    for (const SdfSample &S : sdfSamples())
      Add(Sdf, tokenizeSdf(G, S.Text));
  }
  for (int I = Json; I <= Sql; ++I) {
    Grammar G;
    buildGrammar(G, In, GrammarIdx(I));
    // Sizes stratified over 150..1000 tokens.
    for (size_t K = 0; K < ListPoolPerGrammar; ++K) {
      ListDocument D(listLanguages()[size_t(I - Json)], G);
      D.grow(R, 150 + K * 55 + R.below(20));
      Add(GrammarIdx(I), D.flatten());
    }
  }
  for (int I = AmbExpr; I <= Palindrome; ++I) {
    Grammar G;
    buildGrammar(G, In, GrammarIdx(I));
    for (size_t K = 0; K < PoolPerGrammar; ++K)
      Add(GrammarIdx(I), I == AmbExpr
                             ? makeAmbiguousExpr(G, R, 12 + 4 * K)
                             : makePalindrome(G, R, 40 + 40 * K + R.below(4)));
  }
  const std::vector<std::vector<GrammarIdx>> Categories = {
      {Sdf}, {Json, CSubset, Sql}, {AmbExpr, Palindrome}};
  // Each client parses every pool document a fixed number of times, in a
  // seeded order: the category shares hold exactly, whatever the seed.
  for (unsigned C = 0; C < Clients; ++C) {
    Rng D(Opt.Seed, 0x647261 + C);
    std::vector<uint32_t> Draw;
    for (size_t Cat = 0; Cat < Categories.size(); ++Cat) {
      size_t Docs = 0;
      for (GrammarIdx G : Categories[Cat])
        Docs += In.ByGrammar[G].size();
      size_t Each = size_t(CategoryWeights[Cat] * double(OpsPerClient) /
                               double(Docs) +
                           0.5);
      for (GrammarIdx G : Categories[Cat])
        for (size_t P : In.ByGrammar[G])
          Draw.insert(Draw.end(), Each, uint32_t(P));
    }
    D.shuffle(Draw);
    for (uint32_t P : Draw)
      H.add(P);
    In.Draw.push_back(std::move(Draw));
  }
  In.Hash = H.value();
  return In;
}

/// One server per grammar, warmed by parsing every pool document.
struct Service {
  std::vector<std::unique_ptr<GrammarServer>> Servers;

  Service(const Inputs &In, SpanLog &Log) {
    for (int I = 0; I < NumGrammars; ++I) {
      Grammar G;
      {
        Span S(Log, "grammar.build");
        buildGrammar(G, In, GrammarIdx(I));
      }
      Servers.push_back(std::make_unique<GrammarServer>(G));
    }
    for (const Doc &D : In.Pool) {
      ParseSession S = Servers[D.G]->openSession();
      Forest F;
      S.parse(D.Toks, F);
    }
  }
};

/// One client's observations of one pass.
struct ClientRun {
  std::vector<double> Us;
  std::vector<Verdict> Got;
  double Tokens = 0, BusyUs = 0;
  // Traced-pass counts.
  double GssNodes = 0, GssEdges = 0, Paths = 0;
  double ForestNodes = 0, ForestAlts = 0, ForestPacked = 0;
};

void client(const Inputs &In, Service &Svc, unsigned C, SpanLog &Log,
            bool Traced, std::latch &Go, ClientRun &Out) {
  std::vector<ParseSession> Sessions;
  for (const auto &Server : Svc.Servers)
    Sessions.push_back(Server->openSession());
  Go.arrive_and_wait();
  CountAllocs = Traced;
  for (size_t I = 0; I < In.Draw[C].size(); ++I) {
    const Doc &D = In.Pool[In.Draw[C][I]];
    Log.beginOp(I);
    std::optional<Forest> F;
    GlrResult R;
    uint64_t T0 = nowNs();
    {
      Span Op(Log, "op.parse");
      F.emplace();
      Span S(Log, "glr.parse");
      R = Sessions[D.G].parse(D.Toks, *F);
    }
    Out.Us.push_back(double(nowNs() - T0) * 1e-3);
    CountAllocs = false;
    Out.BusyUs += Out.Us.back();
    Out.Tokens += double(D.Toks.size());
    Out.Got.push_back(
        {R.Accepted, R.Accepted ? F->countTrees(R.Root, TreeCap) : 0});
    Out.GssNodes += double(R.GssNodes);
    Out.GssEdges += double(R.GssEdges);
    Out.Paths += double(R.ReductionPaths);
    Out.ForestNodes += double(F->numNodes());
    Out.ForestAlts += double(F->numAlternatives());
    Out.ForestPacked += double(F->numPackedAmbiguities());
    F.reset();
    CountAllocs = Traced;
  }
  CountAllocs = false;
}

/// Runs both clients once; returns their observations.
std::vector<ClientRun> pass(const Inputs &In, Service &Svc,
                            std::vector<SpanLog> &Logs, bool Traced) {
  std::vector<ClientRun> Runs(Clients);
  std::latch Go(Clients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back(client, std::cref(In), std::ref(Svc), C,
                         std::ref(Logs[C]), Traced, std::ref(Go),
                         std::ref(Runs[C]));
  for (std::thread &T : Threads)
    T.join();
  return Runs;
}

} // namespace

uint64_t parseStreamHash(const Options &Opt) { return makeInputs(Opt).Hash; }

RunResult runParse(const Options &Opt) {
  RunResult Res;
  const Inputs In = makeInputs(Opt);
  Res.StreamHash = In.Hash;

  // Untraced repetitions, each on freshly built and warmed servers.
  SpanLog Off;
  std::vector<double> SetupS;
  std::unique_ptr<Service> Svc;
  std::vector<SpanLog> OffLogs(Clients);
  std::vector<std::vector<double>> RepUs;
  std::vector<double> TokPerS;
  Oracle Check;
  PassClock Clock(Opt);
  while (Clock.next()) {
    timedSetups(Svc, SetupS, [&] { return std::make_unique<Service>(In, Off); });
    std::vector<ClientRun> Runs = pass(In, *Svc, OffLogs, false);
    RepUs.emplace_back();
    double Tput = 0;
    for (unsigned C = 0; C < Clients; ++C) {
      RepUs.back().insert(RepUs.back().end(), Runs[C].Us.begin(),
                          Runs[C].Us.end());
      Tput += Runs[C].Tokens / (Runs[C].BusyUs * 1e-6);
      for (size_t I = 0; I < Runs[C].Got.size(); ++I) {
        const Doc &D = In.Pool[In.Draw[C][I]];
        ++Res.Attempted;
        Res.Failed += !Check.agrees(Svc->Servers[D.G]->epoch()->grammar(),
                                    D.Toks, Runs[C].Got[I]);
      }
    }
    TokPerS.push_back(Tput);
  }
  Res.Passes = Clock.passes();
  Res.Notes.push_back(repsNote("parse_us", RepUs));
  Res.Notes.push_back(estimatorNote("parse_us", RepUs));
  const std::vector<double> OpUs = perOpBest(RepUs);
  std::vector<size_t> CatOf;
  for (unsigned C = 0; C < Clients; ++C)
    for (uint32_t P : In.Draw[C])
      CatOf.push_back(categoryOf(In.Pool[P].G));
  Res.Notes.push_back(categoryNote("parse_us", "category", OpUs, CatOf,
                                   {"sdf", "list", "ambiguous"}));

  double Tokens = 0, AmbTokens = 0, SdfTokens = 0;
  for (unsigned C = 0; C < Clients; ++C)
    for (uint32_t P : In.Draw[C]) {
      double N = double(In.Pool[P].Toks.size());
      Tokens += N;
      AmbTokens += In.Pool[P].G >= AmbExpr ? N : 0;
      SdfTokens += In.Pool[P].G == Sdf ? N : 0;
    }
  Res.Notes.push_back("clients=" + std::to_string(Clients) + " parses=" +
                      std::to_string(OpUs.size()) + " tokens=" +
                      std::to_string(uint64_t(Tokens)) + " sdf_token_share=" +
                      std::to_string(SdfTokens / Tokens) +
                      " ambiguous_token_share=" +
                      std::to_string(AmbTokens / Tokens));

  if (!Opt.Trace) {
    addLatency(Res, "parse", OpUs);
    // The fastest pass's throughput, as for the latencies.
    Res.Named["parse_tokens_per_s"] = {quantile(TokPerS, 1.0), "tok/s",
                                       TokPerS.size()};
    finishEndToEnd(Res, OpUs, SetupS);
    return Res;
  }

  std::vector<SpanLog> Logs;
  for (unsigned C = 0; C < Clients; ++C)
    Logs.emplace_back(true, C + 1);
  std::vector<const ItemSetGraph *> Graphs;
  std::vector<std::shared_ptr<GraphEpoch>> Pins;
  for (const auto &S : Svc->Servers) {
    Pins.push_back(S->epoch());
    Graphs.push_back(&Pins.back()->graph());
  }
  LrCounters LrBefore = LrCounters::read();
  uint64_t GotoBefore = sumStats(Graphs).GotoCalls;
  uint64_t Base = startLibraryTrace();
  std::vector<ClientRun> Runs = pass(In, *Svc, Logs, true);
  stopLibraryTrace();
  LrCounters Lr = LrCounters::read() - LrBefore;
  double Gotos = double(sumStats(Graphs).GotoCalls - GotoBefore);

  for (unsigned C = 0; C < Clients; ++C)
    for (size_t I = 0; I < Runs[C].Got.size(); ++I) {
      const Doc &D = In.Pool[In.Draw[C][I]];
      ++Res.Attempted;
      Res.Failed += !Check.agrees(Svc->Servers[D.G]->epoch()->grammar(),
                                  D.Toks, Runs[C].Got[I]);
    }

  ClientRun T;
  for (const ClientRun &R : Runs) {
    T.Tokens += R.Tokens;
    T.GssNodes += R.GssNodes;
    T.GssEdges += R.GssEdges;
    T.Paths += R.Paths;
    T.ForestNodes += R.ForestNodes;
    T.ForestAlts += R.ForestAlts;
    T.ForestPacked += R.ForestPacked;
  }
  std::vector<const SpanLog *> LogPtrs;
  for (const SpanLog &L : Logs)
    LogPtrs.push_back(&L);
  SpanStats S = SpanStats::of(LogPtrs);
  const double Ops = double(OpUs.size());
  setLayer(Res, "lr.expansions_per_op", double(Lr.Expansions) / Ops);
  setLayer(Res, "lr.closure_items_per_op", double(Lr.ClosureItems) / Ops);
  setLayer(Res, "lr.reexpansions_per_op", double(Lr.ReExpansions) / Ops);
  setLayer(Res, "lr.goto_calls_per_token", Gotos / T.Tokens);
  setLayer(Res, "glr.gss_nodes_per_token", T.GssNodes / T.Tokens);
  setLayer(Res, "glr.gss_edges_per_token", T.GssEdges / T.Tokens);
  setLayer(Res, "glr.reduction_paths_per_token", T.Paths / T.Tokens);
  setLayer(Res, "glr.nodes_constructed_per_op",
           double(Lr.NodesConstructed) / Ops);
  setLayer(Res, "glr.allocs_per_token",
           double(S.Allocs["glr.parse"]) / T.Tokens);
  setLayer(Res, "glr.parse_self_us", S.selfP50("glr.parse"));
  setLayer(Res, "forest.nodes_per_token", T.ForestNodes / T.Tokens);
  setLayer(Res, "forest.alternatives_per_token", T.ForestAlts / T.Tokens);
  setLayer(Res, "forest.packed_per_token", T.ForestPacked / T.Tokens);
  finishLayer(Res, S, "op.parse", OpUs);
  if (!Opt.TraceFile.empty())
    writeChromeTrace(Opt.TraceFile, LogPtrs, Base);
  return Res;
}

} // namespace pb
