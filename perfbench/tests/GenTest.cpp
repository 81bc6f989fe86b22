//===- perfbench/tests/GenTest.cpp - Workload generator tests -------------===//
///
/// \file
/// The benchmark's own tests (run with `python3 perfbench/run.py
/// --self-test`): the generators are pure functions of the seed, different
/// seeds give different streams, and the keystroke model keeps documents
/// in the language outside its deliberate break/repair windows, as the
/// Earley parser judges.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Gen.h"

#include <algorithm>
#include <cstdio>
#include <string>

using namespace ipg;
using namespace pb;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  std::printf("%s %s\n", Ok ? "[ok]  " : "[FAIL]", What.c_str());
  Failures += !Ok;
}

bool accepts(const Grammar &G, const Tokens &T) {
  EarleyParser P(G);
  return P.recognize(TokenView(T));
}

void testStreamHashes(const std::string &Corpus) {
  using HashFn = uint64_t (*)(const Options &);
  const std::pair<const char *, HashFn> Workloads[] = {
      {"keystroke", keystrokeStreamHash},
      {"parse", parseStreamHash},
      {"grammar_edit", grammarEditStreamHash},
      {"cold_start", coldStartStreamHash}};
  for (const auto &[Name, Hash] : Workloads) {
    Options A, B, C;
    A.Where.CorpusDir = B.Where.CorpusDir = C.Where.CorpusDir = Corpus;
    A.Seed = B.Seed = 7;
    C.Seed = 8;
    check(Hash(A) == Hash(B),
          std::string(Name) + ": the same seed gives the same stream");
    check(Hash(A) != Hash(C),
          std::string(Name) + ": different seeds give different streams");
  }
}

/// Consecutive seeds must give unrelated streams, not one stream shifted
/// by a draw: a set of runs over seeds N..N+9 would otherwise measure
/// nearly the same inputs ten times.
void testSeedsAreUnrelated() {
  size_t Shared = 0;
  for (uint64_t Seed = 1; Seed < 100; ++Seed) {
    Rng A(Seed), B(Seed + 1);
    std::vector<uint64_t> Xs;
    for (int I = 0; I < 8; ++I)
      Xs.push_back(A.next());
    for (int I = 0; I < 8; ++I)
      Shared += std::find(Xs.begin(), Xs.end(), B.next()) != Xs.end();
  }
  check(Shared == 0, "rng: consecutive seeds share no draws");
}

/// Replays \p Steps keystrokes per document and checks every buffer: it
/// equals the model's document outside breaks, and Earley accepts it
/// exactly when the model says it is valid.
void testKeystrokeModel(const std::string &Corpus, uint64_t Seed) {
  std::vector<Grammar> Grammars(listLanguages().size());
  std::vector<ListDocument> Docs;
  std::vector<Tokens> Buffers;
  Rng R(Seed);
  for (size_t L = 0; L < listLanguages().size(); ++L) {
    const ListLanguage &Lang = listLanguages()[L];
    buildBnf(Grammars[L], readFile(Corpus + "/" + Lang.Name + ".bnf"));
    ListDocument D(Lang, Grammars[L]);
    D.grow(R, 120);
    Buffers.push_back(D.flatten());
    Docs.push_back(std::move(D));
  }
  for (size_t L = 0; L < Buffers.size(); ++L)
    check(accepts(Grammars[L], Buffers[L]),
          std::string(listLanguages()[L].Name) +
              ": generated document is in the language");

  KeystrokeModel Model(Seed, Docs);
  KeystrokeModel Twin(Seed, Docs);
  size_t Mismatch = 0, Diverged = 0, Breaks = 0, Broken = 0, Kinds = 0;
  bool Seen[Keystroke::NumKinds] = {};
  for (size_t I = 0; I < 600; ++I) {
    uint32_t Doc = uint32_t(I % Buffers.size());
    Keystroke K = Model.next(Doc);
    Keystroke T = Twin.next(Doc);
    Diverged += K.Begin != T.Begin || K.End != T.End || K.Repl != T.Repl;
    Tokens &B = Buffers[Doc];
    B.erase(B.begin() + K.Begin, B.begin() + K.End);
    B.insert(B.begin() + K.Begin, K.Repl.begin(), K.Repl.end());
    Seen[K.K] = true;
    Breaks += K.K == Keystroke::Break;
    Broken += !K.ExpectValid;
    if (K.ExpectValid && B != Model.doc(Doc).flatten())
      ++Mismatch;
    if (accepts(Grammars[Doc], B) != K.ExpectValid)
      ++Mismatch;
  }
  for (bool S : Seen)
    Kinds += S;
  std::string Tag = "seed " + std::to_string(Seed) + ": ";
  check(Diverged == 0, Tag + "the same seed replays the same keystrokes");
  check(Mismatch == 0, Tag + "buffers follow the model and are in the "
                             "language exactly outside break windows");
  check(Kinds == Keystroke::NumKinds, Tag + "every keystroke kind occurs");
  check(Breaks > 0 && Broken < 600 / 5,
        Tag + "breaks are a small share of the keystrokes");
}

void testModifyScript() {
  Grammar G;
  buildScaledSdf(G, SdfCopies);
  internEditKeywords(G, EditKeywords);
  for (const char *Name : {"(", "CF-ELEM+", ")?"})
    G.symbols().intern(Name);
  std::vector<ModifyOp> A = makeModifyScript(G, 3, 2);
  std::vector<ModifyOp> B = makeModifyScript(G, 3, 2);
  std::vector<ModifyOp> C = makeModifyScript(G, 4, 2);
  auto Same = [](const std::vector<ModifyOp> &X,
                 const std::vector<ModifyOp> &Y) {
    if (X.size() != Y.size())
      return false;
    for (size_t I = 0; I < X.size(); ++I) {
      if (X[I].Edits.size() != Y[I].Edits.size())
        return false;
      for (size_t J = 0; J < X[I].Edits.size(); ++J)
        if (X[I].Edits[J].Add != Y[I].Edits[J].Add ||
            X[I].Edits[J].Lhs != Y[I].Edits[J].Lhs ||
            X[I].Edits[J].Rhs != Y[I].Edits[J].Rhs)
          return false;
    }
    return true;
  };
  check(Same(A, B), "grammar_edit: the same seed gives the same script");
  check(!Same(A, C), "grammar_edit: different seeds give different scripts");
  size_t Invalid = 0, Kinds[ModifyOp::NumKinds] = {};
  for (const ModifyOp &Op : A) {
    ++Kinds[Op.K];
    for (const RuleEdit &E : Op.Edits)
      Invalid += E.Add ? !G.addRule(E.Lhs, E.Rhs).second
                       : !G.removeRule(E.Lhs, E.Rhs).second;
  }
  check(Invalid == 0, "grammar_edit: every edit is valid in script order");
  bool Shares = Kinds[ModifyOp::Fig71] == 2 * A.size() / 5;
  for (size_t K = ModifyOp::Live; K < ModifyOp::NumKinds; ++K)
    Shares &= Kinds[K] == A.size() / 5;
  check(Shares, "grammar_edit: Fig 7.1 toggles are two fifths of the "
                "operations, every other kind a fifth");
}

void testAmbiguousInputs(const std::string &Corpus) {
  Grammar E, P;
  buildBnf(E, readFile(Corpus + "/ambiguous_expr.bnf"));
  buildBnf(P, readFile(Corpus + "/palindrome.bnf"));
  Rng R(5);
  bool Ok = true;
  for (size_t N = 1; N < 12; ++N)
    Ok &= accepts(E, makeAmbiguousExpr(E, R, N)) &&
          accepts(P, makePalindrome(P, R, N));
  check(Ok, "parse: ambiguous_expr and palindrome inputs are sentences");
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_gen_test <corpus dir>\n");
    return 2;
  }
  const std::string Corpus = argv[1];
  testSeedsAreUnrelated();
  testStreamHashes(Corpus);
  for (uint64_t Seed : {1, 2, 3})
    testKeystrokeModel(Corpus, Seed);
  testModifyScript();
  testAmbiguousInputs(Corpus);
  std::printf("%s: %d failure(s)\n", Failures ? "FAILED" : "PASSED",
              Failures);
  return Failures ? 1 : 0;
}
