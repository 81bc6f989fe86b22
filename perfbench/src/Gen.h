//===- perfbench/src/Gen.h - Seeded workload generators ---------*- C++ -*-===//
///
/// \file
/// Every input the benchmark feeds the program comes from here, as a pure
/// function of the workload seed: pumped corpus documents, the keystroke
/// cursor model, the parse draw, the grammar-edit script and the cold-start
/// variants. The program under test sees only the generated tokens and
/// edits. tests/GenTest.cpp pins determinism, seed sensitivity and the
/// keystroke model's in-language guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef IPG_PERFBENCH_GEN_H
#define IPG_PERFBENCH_GEN_H

#include "Bench.h"

#include <string>
#include <vector>

namespace pb {

/// A corpus grammar whose sentences are a list of elements: Prefix, then
/// elements joined by Sep, then Suffix. Element templates mark slots with
/// "$<k>": any spelling of class k fits there, so substituting within a
/// class keeps the document in the language.
struct ListLanguage {
  const char *Name; ///< Corpus grammar (tests/data/corpus/<Name>.bnf).
  std::vector<std::string> Prefix, Suffix;
  std::string Sep;     ///< Empty: elements are simply concatenated.
  std::string Breaker; ///< A token no element boundary admits.
  std::vector<std::vector<std::string>> Classes;
  struct Template {
    std::string Words;
    double Weight;
  };
  std::vector<Template> Templates;
};

/// json, c_subset and sql_select, in that order.
const std::vector<ListLanguage> &listLanguages();

/// A document of a ListLanguage, resolved against one grammar's symbols,
/// kept as elements so edits know where element boundaries are.
class ListDocument {
public:
  ListDocument(const ListLanguage &L, const ipg::Grammar &G);

  /// Appends random elements until the document has at least \p MinTokens.
  void grow(Rng &R, size_t MinTokens);
  Tokens flatten() const;
  size_t numElements() const { return Elems.size(); }
  size_t numTokens() const;

private:
  friend class KeystrokeModel;
  struct Elem {
    std::vector<SymbolId> Toks;
    std::vector<int> Slot; ///< Class index per token, -1 for fixed words.
  };
  Elem randomElement(Rng &R) const;
  /// Token offset of element \p K in flatten().
  size_t offsetOf(size_t K) const;

  struct Word {
    SymbolId Fixed;
    int Class;
  };
  Tokens Prefix, Suffix;
  SymbolId Sep;
  SymbolId Breaker;
  std::vector<std::vector<SymbolId>> Classes;
  std::vector<std::vector<Word>> Templates;
  std::vector<double> Weights;
  std::vector<Elem> Elems;
};

/// One keystroke: replace tokens [Begin, End) of document Doc.
struct Keystroke {
  enum Kind : uint8_t {
    Retype,     ///< Replace a token with itself.
    Substitute, ///< Replace a slot token with another of its class.
    Insert,     ///< Insert a whole list element.
    Delete,     ///< Delete a whole list element.
    Break,      ///< Insert the breaker token at an element boundary.
    Repair,     ///< Delete the breaker again.
    NumKinds
  };
  uint32_t Doc = 0;
  uint32_t Begin = 0, End = 0;
  Tokens Repl;
  Kind K = Retype;
  bool Jumped = false;     ///< The cursor jumped before this keystroke.
  bool ExpectValid = true; ///< False only inside a break/repair window.
};

/// The seeded cursor model behind the keystroke workload: edits at a
/// cursor that moves one element at a time and jumps every fourth
/// keystroke, and a small share of breaks repaired a few keystrokes (of
/// that document) later.
class KeystrokeModel {
public:
  KeystrokeModel(uint64_t Seed, std::vector<ListDocument> Docs);
  /// The next keystroke of document \p Doc; the model applies it to its
  /// own copy, so successive keystrokes compose.
  Keystroke next(uint32_t Doc);
  const ListDocument &doc(size_t I) const { return State[I].D; }

private:
  struct DocState {
    ListDocument D;
    size_t Cursor = 0;
    bool Broken = false;
    size_t BreakAt = 0;
    int RepairIn = 0;
    double Phase = 0; ///< Offset of the low-discrepancy jump sequence.
    uint64_t Jumps = 0;
    uint64_t Keys = 0; ///< Keystrokes generated for this document.
  };
  Rng R;
  std::vector<DocState> State;
};

/// Ambiguous-grammar inputs of the parse workload.
Tokens makeAmbiguousExpr(const ipg::Grammar &G, Rng &R, size_t Operators);
Tokens makePalindrome(const ipg::Grammar &G, Rng &R, size_t Half);

/// One rule of the grammar-edit script, by symbol id.
struct RuleEdit {
  bool Add = true;
  SymbolId Lhs = ipg::InvalidSymbol;
  Tokens Rhs;
};

/// One writer operation of the grammar_edit workload: one or more rule
/// edits, after which every open document migrates and re-parses.
struct ModifyOp {
  enum Kind : uint8_t { Fig71, Live, Clone, Burst, NumKinds };
  Kind K = Fig71;
  std::vector<RuleEdit> Edits;
};

/// Terminals the edit scripts add rules over; intern them into a grammar
/// before a server or generator is built on it so ids agree everywhere.
std::vector<SymbolId> internEditKeywords(ipg::Grammar &G, size_t N);
inline constexpr size_t EditKeywords = 8;

/// The seeded grammar-edit script over the 12x-SDF grammar \p G (which
/// must carry the edit keywords): the Fig 7.1 CF-ELEM rule toggled, new
/// rules on live-copy nonterminals toggled, existing rules of the unused
/// M<k># clones toggled, and bursts of one edit of each of those. Fig 7.1
/// toggles get two fifths of the operations, the other kinds a fifth
/// each. Every live-copy rule (and as many clone rules) is added and
/// removed again \p Cycles times, so the seed changes the order of the
/// edits but not which edits are made; that makes 5 × Cycles × (number of
/// live-copy rules) operations. Every
/// edit is valid when applied in order (adds only absent rules, removes
/// only present ones).
std::vector<ModifyOp> makeModifyScript(const ipg::Grammar &G, uint64_t Seed,
                                       size_t Cycles);

/// A rule edit a stale cold start applies before loading its snapshot: a
/// new alternative for the live rule at fraction \p At (in [0, 1)) of the
/// grammar's live rules, ending in an edit keyword.
RuleEdit makeStaleEdit(const ipg::Grammar &G, double At);

} // namespace pb

#endif // IPG_PERFBENCH_GEN_H
