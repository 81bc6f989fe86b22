//===- perfbench/src/Gen.cpp - Seeded workload generators -----------------===//

#include "Gen.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace ipg;

namespace pb {

const std::vector<ListLanguage> &listLanguages() {
  static const std::vector<ListLanguage> Langs = {
      {"json",
       {"["},
       {"]"},
       ",",
       ":",
       {{"number", "string", "true", "false", "null"}},
       {{"$0", 3},
        {"{ string : $0 }", 1},
        {"{ string : $0 , string : $0 }", 1},
        {"[ $0 , $0 , $0 ]", 1},
        {"{ string : [ $0 , $0 ] , string : { string : $0 } }", 0.5},
        {"[ ]", 0.3},
        {"{ }", 0.3}}},
      {"c_subset",
       {},
       {},
       "",
       ")",
       {{"id", "num"}, {"+", "-", "*", "/"}, {"int", "char"}},
       {{"id = $0 $1 $0 ;", 3},
        {"$2 id , id = $0 ;", 1},
        {"if ( id ) { return $0 ; } else return $0 ;", 1},
        {"while ( ! id ) id = id $1 $0 ;", 1},
        {"return id ( $0 , $0 ) ;", 1},
        {"{ id = $0 ; }", 1},
        {"if ( id ) if ( id ) ; else ;", 0.3}}},
      {"sql_select",
       {"SELECT"},
       {"FROM", "name"},
       ",",
       ")",
       {{"name", "num", "str"}, {"+", "-", "*", "/"}, {"=", "<", ">", "<>"}},
       {{"name", 2},
        {"name . name", 1},
        {"$0 $1 $0", 2},
        {"$0 $2 $0", 0.5},
        {"$0 AS name", 1},
        {"name ( * )", 0.5},
        {"name ( $0 , $0 )", 1},
        {"( $0 $1 $0 ) AS name", 1}}},
  };
  return Langs;
}

static SymbolId mustLookup(const Grammar &G, std::string_view Word) {
  SymbolId S = G.symbols().lookup(Word);
  if (S == InvalidSymbol) {
    std::fprintf(stderr, "perfbench: '%.*s' is not a symbol of the grammar\n",
                 int(Word.size()), Word.data());
    std::exit(2);
  }
  return S;
}

ListDocument::ListDocument(const ListLanguage &L, const Grammar &G) {
  for (const std::string &W : L.Prefix)
    Prefix.push_back(mustLookup(G, W));
  for (const std::string &W : L.Suffix)
    Suffix.push_back(mustLookup(G, W));
  Sep = L.Sep.empty() ? InvalidSymbol : mustLookup(G, L.Sep);
  Breaker = mustLookup(G, L.Breaker);
  for (const std::vector<std::string> &C : L.Classes) {
    Classes.emplace_back();
    for (const std::string &W : C)
      Classes.back().push_back(mustLookup(G, W));
  }
  for (const ListLanguage::Template &T : L.Templates) {
    Templates.emplace_back();
    for (std::string_view W : splitWords(T.Words))
      Templates.back().push_back(
          W[0] == '$' ? Word{InvalidSymbol, W[1] - '0'}
                      : Word{mustLookup(G, W), -1});
    Weights.push_back(T.Weight);
  }
}

ListDocument::Elem ListDocument::randomElement(Rng &R) const {
  Elem E;
  for (const Word &W : Templates[R.weighted(Weights)]) {
    if (W.Class < 0) {
      E.Toks.push_back(W.Fixed);
    } else {
      const std::vector<SymbolId> &C = Classes[size_t(W.Class)];
      E.Toks.push_back(C[R.below(C.size())]);
    }
    E.Slot.push_back(W.Class);
  }
  return E;
}

size_t ListDocument::numTokens() const {
  size_t N = Prefix.size() + Suffix.size();
  for (const Elem &E : Elems)
    N += E.Toks.size();
  if (Sep != InvalidSymbol && !Elems.empty())
    N += Elems.size() - 1;
  return N;
}

size_t ListDocument::offsetOf(size_t K) const {
  size_t Off = Prefix.size();
  for (size_t I = 0; I < K; ++I)
    Off += Elems[I].Toks.size() + (Sep != InvalidSymbol ? 1 : 0);
  return Off;
}

void ListDocument::grow(Rng &R, size_t MinTokens) {
  size_t N = numTokens();
  while (N < MinTokens || Elems.size() < 2) {
    Elems.push_back(randomElement(R));
    N += Elems.back().Toks.size() +
         (Sep != InvalidSymbol && Elems.size() > 1 ? 1 : 0);
  }
}

Tokens ListDocument::flatten() const {
  Tokens Out(Prefix);
  for (size_t I = 0; I < Elems.size(); ++I) {
    if (I && Sep != InvalidSymbol)
      Out.push_back(Sep);
    Out.insert(Out.end(), Elems[I].Toks.begin(), Elems[I].Toks.end());
  }
  Out.insert(Out.end(), Suffix.begin(), Suffix.end());
  return Out;
}

KeystrokeModel::KeystrokeModel(uint64_t Seed, std::vector<ListDocument> Docs)
    : R(Seed, 0x6b6579) {
  for (ListDocument &D : Docs)
    State.push_back({std::move(D)});
  for (DocState &S : State) {
    S.Phase = R.unit();
    S.Cursor = size_t(S.Phase * double(S.D.numElements()));
  }
}

Keystroke KeystrokeModel::next(uint32_t Doc) {
  DocState &S = State[Doc];
  ListDocument &D = S.D;
  Keystroke K;
  K.Doc = Doc;
  if (S.Broken && S.RepairIn == 0) {
    K.K = Keystroke::Repair;
    K.Begin = uint32_t(S.BreakAt);
    K.End = K.Begin + 1;
    S.Broken = false;
    return K;
  }

  const size_t N = D.Elems.size();
  if (S.Keys++ % 4 == 0) {
    // Every fourth keystroke jumps, to targets on a golden-ratio sequence
    // from a seeded phase, so every run visits the whole document evenly:
    // edit cost at the commit that introduced the benchmark grows with the
    // suffix after the edit, and clustered targets or uneven dwell times
    // would make the median seed-dependent.
    double At = S.Phase + double(++S.Jumps) * 0.6180339887498949;
    S.Cursor = size_t((At - double(uint64_t(At))) * double(N));
    K.Jumped = true;
  } else {
    uint64_t Step = R.below(4); // left, stay, stay, right
    if (Step == 0 && S.Cursor > 0)
      --S.Cursor;
    else if (Step == 3 && S.Cursor + 1 < N)
      ++S.Cursor;
  }
  S.Cursor = std::min(S.Cursor, N - 1);

  static const std::vector<double> Weights = {0.52, 0.28, 0.08, 0.08, 0.04};
  static const std::vector<double> BrokenWeights = {0.65, 0.35};
  auto Kind = Keystroke::Kind(R.weighted(S.Broken ? BrokenWeights : Weights));
  if (Kind == Keystroke::Delete && N <= 2)
    Kind = Keystroke::Retype;

  ListDocument::Elem &E = D.Elems[S.Cursor];
  const size_t ElemAt = D.offsetOf(S.Cursor);
  const size_t ElemEnd = ElemAt + E.Toks.size();
  // Model positions past the breaker sit one token later in the buffer.
  auto Buf = [&](size_t Pos) {
    return uint32_t(S.Broken && Pos >= S.BreakAt ? Pos + 1 : Pos);
  };
  const bool HasSep = D.Sep != InvalidSymbol;

  if (Kind == Keystroke::Substitute) {
    std::vector<size_t> Slots;
    for (size_t I = 0; I < E.Slot.size(); ++I)
      if (E.Slot[I] >= 0)
        Slots.push_back(I);
    if (Slots.empty()) {
      Kind = Keystroke::Retype;
    } else {
      size_t I = Slots[R.below(Slots.size())];
      const std::vector<SymbolId> &C = D.Classes[size_t(E.Slot[I])];
      SymbolId Next = C[R.below(C.size() - 1)];
      if (Next == E.Toks[I])
        Next = C.back();
      E.Toks[I] = Next;
      K.Begin = Buf(ElemAt + I);
      K.End = K.Begin + 1;
      K.Repl = {Next};
    }
  }
  switch (Kind) {
  case Keystroke::Retype: {
    size_t I = R.below(E.Toks.size());
    K.Begin = Buf(ElemAt + I);
    K.End = K.Begin + 1;
    K.Repl = {E.Toks[I]};
    break;
  }
  case Keystroke::Insert: {
    ListDocument::Elem New = D.randomElement(R);
    K.Begin = K.End = uint32_t(ElemEnd);
    if (HasSep)
      K.Repl.push_back(D.Sep);
    K.Repl.insert(K.Repl.end(), New.Toks.begin(), New.Toks.end());
    D.Elems.insert(D.Elems.begin() + std::ptrdiff_t(S.Cursor) + 1,
                   std::move(New));
    ++S.Cursor;
    break;
  }
  case Keystroke::Delete: {
    // Take one adjacent separator with the element.
    size_t Begin = ElemAt, End = ElemEnd;
    if (HasSep) {
      if (S.Cursor > 0)
        --Begin;
      else
        ++End;
    }
    K.Begin = uint32_t(Begin);
    K.End = uint32_t(End);
    D.Elems.erase(D.Elems.begin() + std::ptrdiff_t(S.Cursor));
    S.Cursor = std::min(S.Cursor, D.Elems.size() - 1);
    break;
  }
  case Keystroke::Break:
    K.Begin = K.End = uint32_t(ElemEnd);
    K.Repl = {D.Breaker};
    S.Broken = true;
    S.BreakAt = ElemEnd;
    S.RepairIn = int(R.range(2, 4));
    K.K = Keystroke::Break;
    K.ExpectValid = false;
    return K;
  default:
    break;
  }
  K.K = Kind;
  if (S.Broken) {
    K.ExpectValid = false;
    --S.RepairIn;
  }
  return K;
}

Tokens makeAmbiguousExpr(const Grammar &G, Rng &R, size_t Operators) {
  SymbolId A = mustLookup(G, "a"), Plus = mustLookup(G, "+"),
           Times = mustLookup(G, "*");
  Tokens Out = {A};
  for (size_t I = 0; I < Operators; ++I) {
    Out.push_back(R.chance(0.5) ? Plus : Times);
    Out.push_back(A);
  }
  return Out;
}

Tokens makePalindrome(const Grammar &G, Rng &R, size_t Half) {
  SymbolId AB[2] = {mustLookup(G, "a"), mustLookup(G, "b")};
  Tokens Out;
  for (size_t I = 0; I < Half; ++I)
    Out.push_back(AB[R.below(2)]);
  Tokens Back(Out.rbegin(), Out.rend());
  if (uint64_t Mid = R.below(3))
    Out.push_back(AB[Mid - 1]);
  Out.insert(Out.end(), Back.begin(), Back.end());
  return Out;
}

static std::string keyword(size_t I) {
  std::string K = "pbkw"; // += rather than +: GCC 12 -Wrestrict misfires.
  K += std::to_string(I);
  return K;
}

std::vector<SymbolId> internEditKeywords(Grammar &G, size_t N) {
  std::vector<SymbolId> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(G.symbols().intern(keyword(I)));
  return Out;
}

/// Live (input-reachable) rules, excluding START's: the M<k># clones are
/// the only names with a '#'.
static std::vector<RuleId> liveRules(const Grammar &G, bool Clones) {
  std::vector<RuleId> Out;
  for (RuleId Id : G.activeRules()) {
    const Rule &Ru = G.rule(Id);
    if (Ru.Lhs == G.startSymbol())
      continue;
    bool IsClone = G.symbols().name(Ru.Lhs).find('#') != std::string::npos;
    if (IsClone == Clones)
      Out.push_back(Id);
  }
  return Out;
}

RuleEdit makeStaleEdit(const Grammar &G, double At) {
  std::vector<RuleId> Live = liveRules(G, false);
  const Rule &Base = G.rule(Live[size_t(At * double(Live.size()))]);
  RuleEdit E;
  E.Lhs = Base.Lhs;
  E.Rhs = Base.Rhs;
  E.Rhs.push_back(mustLookup(G, keyword(0)));
  return E;
}

std::vector<ModifyOp> makeModifyScript(const Grammar &G, uint64_t Seed,
                                       size_t Cycles) {
  Rng R(Seed, 0x6d6f64);
  struct Candidate {
    RuleEdit Rule;
    bool Present;
  };
  // Category 0: the Fig 7.1 rule. 1: new rules on live nonterminals,
  // each ending in an edit keyword. 2: existing rules of the clones.
  std::vector<Candidate> Cats[3];
  Cats[0].push_back({{true,
                      mustLookup(G, "CF-ELEM"),
                      {mustLookup(G, "("), mustLookup(G, "CF-ELEM+"),
                       mustLookup(G, ")?")}},
                     false});
  // Every live rule is a candidate: how much of the documents a live edit
  // re-parses, and how many item sets it re-expands, depends heavily on
  // which rule it extends, so a seeded pick of a few would make one seed's
  // run much heavier than another's.
  std::vector<RuleId> Live = liveRules(G, false);
  for (size_t I = 0; I < Live.size(); ++I) {
    const Rule &Base = G.rule(Live[I]);
    Candidate C{{true, Base.Lhs, Base.Rhs}, false};
    C.Rule.Rhs.push_back(mustLookup(G, keyword(I % EditKeywords)));
    Cats[1].push_back(std::move(C));
  }
  // As many distinct clone rules, drawn by the seed; no input reaches
  // them, so which ones hardly matters.
  std::vector<RuleId> Clones = liveRules(G, true);
  R.shuffle(Clones);
  for (size_t I = 0; I < Live.size(); ++I) {
    const Rule &Base = G.rule(Clones[I]);
    Cats[2].push_back({{false, Base.Lhs, Base.Rhs}, true});
  }

  // Each category's candidates are edited in a seeded cyclic order, each
  // one twice in a row: added and removed again, or removed and restored.
  // So the grammar never holds more than one pending edit per category.
  size_t Next[3] = {};
  for (std::vector<Candidate> &Cat : Cats)
    R.shuffle(Cat);
  auto Toggle = [&](int Cat) {
    Candidate &C = Cats[Cat][Next[Cat]++ / 2 % Cats[Cat].size()];
    RuleEdit E = C.Rule;
    E.Add = !C.Present;
    C.Present = !C.Present;
    return E;
  };
  // Exact shares in a seeded order: two fifths Fig 7.1 toggles, a fifth
  // each of the other kinds. The issue names the kinds but no shares.
  // Four fifths of the operations make the documents repair and re-parse,
  // so the median operation is a real migration, not a Reused no-op. The
  // kinds' costs hardly overlap (clone < Fig 7.1 < live < burst), and
  // with equal quarters the median fell on the seam between the Fig 7.1
  // and live operations, where a small shift in either moved it by a
  // quarter; now it falls inside the Fig 7.1 operations. A burst edits
  // one rule of each category, so the live and clone categories each get
  // 2 × PerKind edits: Cycles add/remove pairs of every candidate.
  const size_t PerKind = Cycles * Live.size();
  std::vector<ModifyOp::Kind> Kinds(PerKind, ModifyOp::Fig71);
  for (size_t I = 0; I < PerKind * ModifyOp::NumKinds; ++I)
    Kinds.push_back(ModifyOp::Kind(I % ModifyOp::NumKinds));
  R.shuffle(Kinds);
  std::vector<ModifyOp> Script;
  for (ModifyOp::Kind K : Kinds) {
    ModifyOp Op;
    Op.K = K;
    if (Op.K == ModifyOp::Burst) {
      std::vector<int> Order = {0, 1, 2};
      R.shuffle(Order);
      for (int Cat : Order)
        Op.Edits.push_back(Toggle(Cat));
    } else {
      Op.Edits.push_back(Toggle(int(Op.K)));
    }
    Script.push_back(std::move(Op));
  }
  return Script;
}

} // namespace pb
