//===- core/Isomorphism.cpp ------------------------------------------------===//
//
// Implements paper Algorithm 1. `A` denotes instruction-side expressions,
// `B` operation-side expressions, following the paper's convention.
//
//===----------------------------------------------------------------------===//

#include "core/Isomorphism.h"

#include "ir/ExprUtil.h"
#include "ir/Printer.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace unit;

const OperandBinding *IsoResult::bindingFor(const TensorRef &T) const {
  for (const OperandBinding &B : Bindings)
    if (B.InstrTensor == T)
      return &B;
  return nullptr;
}

namespace {

/// Mutable matching state: instruction tensor -> bound operation load.
struct BindState {
  std::vector<OperandBinding> Bindings;
  std::string Failure;

  OperandBinding *find(const TensorNode *InstrTensor) {
    for (OperandBinding &B : Bindings)
      if (B.InstrTensor.get() == InstrTensor)
        return &B;
    return nullptr;
  }

  bool fail(const std::string &Why) {
    if (Failure.empty())
      Failure = Why;
    return false;
  }

  /// Binds instruction load \p A to operation load \p B; a register cannot
  /// correspond to two different data sources (paper §III.B.1).
  bool bindLoad(const LoadNode *A, const LoadNode *B) {
    OperandBinding *Existing = find(A->Buf.get());
    if (!Existing) {
      OperandBinding NewBind;
      NewBind.InstrTensor = A->Buf;
      NewBind.InstrLoad = A;
      NewBind.OpTensor = B->Buf;
      NewBind.OpLoad = B;
      Bindings.push_back(NewBind);
      return true;
    }
    if (Existing->IsAccumulator)
      return fail("register '" + A->Buf->name() +
                  "' already bound as the accumulator");
    if (Existing->OpTensor != B->Buf)
      return fail("register '" + A->Buf->name() +
                  "' bound to two different tensors ('" +
                  Existing->OpTensor->name() + "' and '" + B->Buf->name() +
                  "')");
    // Same tensor: the access pattern must be identical too, otherwise one
    // register lane would need two addresses.
    if (Existing->OpLoad->Indices.size() != B->Indices.size())
      return fail("register '" + A->Buf->name() + "' bound to two accesses");
    for (size_t I = 0; I < B->Indices.size(); ++I)
      if (!structuralEqual(Existing->OpLoad->Indices[I], B->Indices[I]))
        return fail("register '" + A->Buf->name() +
                    "' bound to two different access patterns");
    return true;
  }

  /// Binds instruction register \p InstrTensor as the accumulator fed by
  /// the operation's output.
  bool bindAccumulator(const TensorRef &InstrTensor, const LoadNode *A) {
    if (find(InstrTensor.get()))
      return fail("accumulator register '" + InstrTensor->name() +
                  "' already bound to an input");
    OperandBinding NewBind;
    NewBind.InstrTensor = InstrTensor;
    NewBind.InstrLoad = A;
    NewBind.IsAccumulator = true;
    Bindings.push_back(NewBind);
    return true;
  }
};

/// Core of Algorithm 1: recursive topology/opcode/dtype match.
bool inspect(const ExprRef &A, const ExprRef &B, BindState &State) {
  if (A->dtype() != B->dtype())
    return State.fail("type mismatch: " + A->dtype().str() + " vs " +
                      B->dtype().str());

  // Leaves.
  if (const auto *AL = dyn_cast<LoadNode>(A.get())) {
    const auto *BL = dyn_cast<LoadNode>(B.get());
    if (!BL)
      return State.fail("register operand matched against non-load: " +
                        exprToString(B));
    return State.bindLoad(AL, BL);
  }
  if (const auto *AI = dyn_cast<IntImmNode>(A.get())) {
    const auto *BI = dyn_cast<IntImmNode>(B.get());
    if (!BI || BI->Value != AI->Value)
      return State.fail("immediate mismatch");
    return true;
  }
  if (const auto *AF = dyn_cast<FloatImmNode>(A.get())) {
    const auto *BF = dyn_cast<FloatImmNode>(B.get());
    if (!BF || BF->Value != AF->Value)
      return State.fail("immediate mismatch");
    return true;
  }

  // Interior arithmetic: opcodes must agree.
  if (A->kind() != B->kind())
    return State.fail("opcode mismatch at " + exprToString(A) + " vs " +
                      exprToString(B));

  if (const auto *AB = dyn_cast<BinaryNode>(A.get())) {
    const auto *BB = cast<BinaryNode>(B.get());
    return inspect(AB->LHS, BB->LHS, State) &&
           inspect(AB->RHS, BB->RHS, State);
  }
  if (const auto *AC = dyn_cast<CastNode>(A.get())) {
    const auto *BC = cast<CastNode>(B.get());
    return inspect(AC->Value, BC->Value, State);
  }
  return State.fail("unsupported node in instruction semantics: " +
                    exprToString(A));
}

} // namespace

namespace {

/// Serialization state for canonicalComputeKey: positional ids for loop
/// variables and tensors so names never reach the key.
struct KeyPrinter {
  std::map<const IterVarNode *, int> VarIds;
  std::map<const TensorNode *, int> TensorIds;
  std::vector<TensorRef> TensorTable; ///< Id order, for the shape suffix.
  std::string Out;

  int varId(const IterVarNode *IV) {
    auto It = VarIds.find(IV);
    if (It != VarIds.end())
      return It->second;
    int Id = static_cast<int>(VarIds.size());
    VarIds.emplace(IV, Id);
    return Id;
  }

  int tensorId(const TensorRef &T) {
    auto It = TensorIds.find(T.get());
    if (It != TensorIds.end())
      return It->second;
    int Id = static_cast<int>(TensorIds.size());
    TensorIds.emplace(T.get(), Id);
    TensorTable.push_back(T);
    return Id;
  }

  void print(const ExprRef &E) {
    switch (E->kind()) {
    case ExprNode::Kind::IntImm:
      // Immediates carry their dtype: inspect() rejects dtype mismatches,
      // so the key must separate them too.
      Out += "i" + std::to_string(cast<IntImmNode>(E.get())->Value) + ":" +
             E->dtype().str();
      return;
    case ExprNode::Kind::FloatImm: {
      // Hex-float round-trips exactly; to_string's fixed 6 decimals would
      // collapse distinct immediates onto one key.
      char Buf[48];
      std::snprintf(Buf, sizeof(Buf), "f%a:",
                    cast<FloatImmNode>(E.get())->Value);
      Out += Buf;
      Out += E->dtype().str();
      return;
    }
    case ExprNode::Kind::Var:
      Out += "%" + std::to_string(varId(cast<VarNode>(E.get())->IV.get()));
      return;
    case ExprNode::Kind::Cast: {
      const auto *C = cast<CastNode>(E.get());
      Out += "cast<" + E->dtype().str() + ">(";
      print(C->Value);
      Out += ")";
      return;
    }
    case ExprNode::Kind::Load: {
      const auto *L = cast<LoadNode>(E.get());
      Out += "@" + std::to_string(tensorId(L->Buf)) + "[";
      for (size_t I = 0; I < L->Indices.size(); ++I) {
        if (I)
          Out += ",";
        print(L->Indices[I]);
      }
      Out += "]";
      return;
    }
    case ExprNode::Kind::Select: {
      const auto *S = cast<SelectNode>(E.get());
      Out += "sel(";
      print(S->Cond);
      Out += ",";
      print(S->TrueValue);
      Out += ",";
      print(S->FalseValue);
      Out += ")";
      return;
    }
    case ExprNode::Kind::Call: {
      const auto *C = cast<CallNode>(E.get());
      Out += "call:" + C->Callee + "(";
      for (size_t I = 0; I < C->Args.size(); ++I) {
        if (I)
          Out += ",";
        print(C->Args[I]);
      }
      Out += ")";
      return;
    }
    case ExprNode::Kind::Reduce: {
      const auto *R = cast<ReduceNode>(E.get());
      Out += "red" + std::to_string(static_cast<int>(R->RKind)) + "<";
      for (size_t I = 0; I < R->Axes.size(); ++I) {
        if (I)
          Out += ",";
        Out += "%" + std::to_string(varId(R->Axes[I].get()));
      }
      Out += ">(";
      print(R->Source);
      if (R->Init) {
        Out += ";";
        print(R->Init);
      }
      Out += ")";
      return;
    }
    default:
      // Binary arithmetic (Add..Max) and the vector-level nodes (Ramp,
      // Broadcast, Concat) share the generic opcode rendering.
      if (const auto *B = dyn_cast<BinaryNode>(E.get())) {
        Out += "op" + std::to_string(static_cast<int>(E->kind())) + "(";
        print(B->LHS);
        Out += ",";
        print(B->RHS);
        Out += ")";
        return;
      }
      if (const auto *R = dyn_cast<RampNode>(E.get())) {
        Out += "ramp" + std::to_string(R->Stride) + "x" +
               std::to_string(E->dtype().lanes()) + "(";
        print(R->Base);
        Out += ")";
        return;
      }
      if (const auto *B = dyn_cast<BroadcastNode>(E.get())) {
        Out += "bcast" + std::to_string(B->Repeat) + "(";
        print(B->Value);
        Out += ")";
        return;
      }
      if (const auto *C = dyn_cast<ConcatNode>(E.get())) {
        Out += "cat(";
        for (size_t I = 0; I < C->Parts.size(); ++I) {
          if (I)
            Out += ",";
          print(C->Parts[I]);
        }
        Out += ")";
        return;
      }
      unit_unreachable("unhandled expression node in canonicalComputeKey");
    }
  }
};

} // namespace

std::string unit::canonicalComputeKey(const ComputeOp &Op) {
  KeyPrinter P;
  // Axes first, declaration order, so the body's variable ids line up for
  // any naming of the same loop structure.
  P.Out += "dp[";
  for (size_t I = 0; I < Op.axes().size(); ++I) {
    if (I)
      P.Out += ",";
    P.Out += std::to_string(Op.axes()[I]->extent());
    P.varId(Op.axes()[I].get());
  }
  P.Out += "]rd[";
  for (size_t I = 0; I < Op.reduceAxes().size(); ++I) {
    if (I)
      P.Out += ",";
    P.Out += std::to_string(Op.reduceAxes()[I]->extent());
    P.varId(Op.reduceAxes()[I].get());
  }
  P.Out += "]";
  if (Op.isInPlaceUpdate())
    P.Out += "inplace;";
  P.tensorId(Op.output()); // Output is always tensor @0.
  P.Out += "body:";
  P.print(Op.body());
  // Tensor table: dtype and shape per positional id (names excluded).
  P.Out += ";tensors:";
  for (size_t I = 0; I < P.TensorTable.size(); ++I) {
    const TensorRef &T = P.TensorTable[I];
    if (I)
      P.Out += "|";
    P.Out += T->dtype().str() + "[";
    for (unsigned D = 0; D < T->rank(); ++D) {
      if (D)
        P.Out += ",";
      P.Out += std::to_string(T->dim(D));
    }
    P.Out += "]";
  }
  return P.Out;
}

IsoResult unit::matchCompute(const ComputeOp &Instr, const ComputeOp &Op) {
  IsoResult Result;
  const ReduceNode *AR = Instr.reduceRoot();
  const ReduceNode *BR = Op.reduceRoot();

  // Both sides must agree on reduction presence and combiner.
  if (static_cast<bool>(AR) != static_cast<bool>(BR)) {
    Result.FailureReason = "reduction structure mismatch";
    return Result;
  }

  BindState State;
  if (AR) {
    if (AR->RKind != BR->RKind) {
      Result.FailureReason = "reduction combiner mismatch";
      return Result;
    }
    if (!inspect(AR->Source, BR->Source, State)) {
      Result.FailureReason = State.Failure;
      return Result;
    }
    // Accumulator initialization. Cases (instruction side):
    //  * Init = Load(c): VNNI/DOT style explicit accumulator register.
    //    - op Init null  -> c is fed the operation's own accumulation
    //      state (bind as accumulator-to-output).
    //    - op Init Load  -> bind c to that tensor like a normal operand.
    //  * In-place += (Tensor Core): accumulator register is the output;
    //    the op must be a plain reduction (Init null) so its output can
    //    serve as the live accumulator.
    if (Instr.isInPlaceUpdate()) {
      if (BR->Init && !Op.isInPlaceUpdate()) {
        Result.FailureReason =
            "in-place instruction cannot seed a custom accumulator init";
        return Result;
      }
    } else if (AR->Init) {
      const auto *AInit = dyn_cast<LoadNode>(AR->Init.get());
      if (!AInit) {
        Result.FailureReason = "unsupported instruction init expression";
        return Result;
      }
      if (!BR->Init) {
        if (!State.bindAccumulator(AInit->Buf, AInit)) {
          Result.FailureReason = State.Failure;
          return Result;
        }
      } else {
        if (AR->Init->dtype() != BR->Init->dtype()) {
          Result.FailureReason = "accumulator type mismatch";
          return Result;
        }
        if (!inspect(AR->Init, BR->Init, State)) {
          Result.FailureReason = State.Failure;
          return Result;
        }
      }
    } else if (BR->Init) {
      Result.FailureReason =
          "operation has an accumulator init the instruction cannot honor";
      return Result;
    }
  } else {
    if (!inspect(Instr.body(), Op.body(), State)) {
      Result.FailureReason = State.Failure;
      return Result;
    }
  }

  Result.Matched = true;
  Result.Bindings = std::move(State.Bindings);
  return Result;
}

//===----------------------------------------------------------------------===//
// Structural distance (transfer tuning, docs/TUNING.md)
//===----------------------------------------------------------------------===//

namespace {

/// Calls \p Emit with each structural token of \p Key, in order.
template <typename EmitFn>
void forEachToken(std::string_view Key, EmitFn Emit) {
  size_t I = 0;
  auto IsDigit = [](char C) { return C >= '0' && C <= '9'; };
  auto IsIdent = [](char C) {
    return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
  };
  while (I < Key.size()) {
    size_t Start = I;
    if (IsDigit(Key[I])) {
      while (I < Key.size() && IsDigit(Key[I]))
        ++I;
    } else if (IsIdent(Key[I])) {
      while (I < Key.size() && IsIdent(Key[I]))
        ++I;
    } else {
      ++I;
    }
    Emit(Key.substr(Start, I - Start));
  }
}

/// A token packed for comparison: its first 7 bytes and its length
/// (capped at 255) in one word. Only tokens longer than 7 bytes, whose
/// words can be equal while they differ, also compare their text.
struct PackedToken {
  uint64_t Word;
  std::string_view Text;
  bool operator==(const PackedToken &O) const {
    return Word == O.Word && ((Word >> 56) <= 7 || Text == O.Text);
  }
};

void packTokens(std::string_view Key, std::vector<PackedToken> &Out) {
  Out.clear();
  forEachToken(Key, [&Out](std::string_view Tok) {
    uint64_t Word = std::min<uint64_t>(Tok.size(), 255) << 56;
    for (size_t I = 0; I < Tok.size() && I < 7; ++I)
      Word |= uint64_t(static_cast<unsigned char>(Tok[I])) << (8 * I);
    Out.push_back({Word, Tok});
  });
}

/// Edit distance between sequences of \p N and \p M tokens, where
/// Same(I, J) says whether the first's I-th token equals the second's
/// J-th, by diagonal transition (Ukkonen 1985; Landau and Vishkin 1989).
/// For d = 0, 1, ..., each diagonal k = j - i holds the furthest row
/// reachable with d edits, slid along equal tokens, until diagonal M - N
/// reaches row N. A diagonal more than Cutoff - d away from M - N cannot
/// finish within the cutoff and is skipped, so near-equal sequences cost
/// O(N + d^2). Returns Cutoff + 1 when the distance exceeds \p Cutoff.
template <typename SameFn>
size_t diagonalDistance(size_t N, size_t M, size_t Cutoff, SameFn Same) {
  if ((N > M ? N - M : M - N) > Cutoff)
    return Cutoff + 1;
  // No distance exceeds max(N, M), so K sizes the row by the sequences.
  const long K = static_cast<long>(std::min(Cutoff, std::max(N, M)));
  const long LN = static_cast<long>(N), LM = static_cast<long>(M);
  const long Goal = LM - LN, Off = K + 1;
  // Row[Off + k]; never-reached diagonals read far below any row, and the
  // -1 on diagonal 0 starts d = 0 at row 0.
  std::vector<long> Row(static_cast<size_t>(2 * K + 3), -LN - LM - 2);
  Row[Off] = -1;
  for (long D = 0; D <= K; ++D) {
    long Lo = std::max({-D, -LN, Goal - (K - D)});
    long Hi = std::min({D, LM, Goal + (K - D)});
    long Left = Row[Off + Lo - 1]; // Diagonal k - 1 before this round.
    for (long Kd = Lo; Kd <= Hi; ++Kd) {
      long Old = Row[Off + Kd];
      long R = std::min({std::max({Old + 1, Left, Row[Off + Kd + 1] + 1}),
                         LN, LM - Kd});
      while (R < LN && R + Kd < LM &&
             Same(static_cast<size_t>(R), static_cast<size_t>(R + Kd)))
        ++R;
      Left = Old;
      Row[Off + Kd] = R;
    }
    if (Row[Off + Goal] == LN)
      return static_cast<size_t>(D);
  }
  return Cutoff + 1;
}

} // namespace

std::vector<std::string_view> unit::structuralTokens(std::string_view Key) {
  std::vector<std::string_view> Tokens;
  forEachToken(Key,
               [&Tokens](std::string_view Tok) { Tokens.push_back(Tok); });
  return Tokens;
}

size_t unit::structuralDistance(const std::string &A, const std::string &B,
                                size_t Cutoff) {
  if (A == B)
    return 0;
  // A scan compares one query A with many keys, so A's tokens are kept
  // per thread, keyed by A's content (LastA is a copy), never its address.
  thread_local std::string LastA;
  thread_local std::vector<PackedToken> TokA, TokB;
  if (A != LastA) {
    LastA = A;
    packTokens(LastA, TokA);
  }
  packTokens(B, TokB);
  return diagonalDistance(
      TokA.size(), TokB.size(), Cutoff,
      [](size_t I, size_t J) { return TokA[I] == TokB[J]; });
}

size_t unit::structuralDistance(const std::vector<uint32_t> &A,
                                const std::vector<uint32_t> &B,
                                size_t Cutoff) {
  return diagonalDistance(A.size(), B.size(), Cutoff,
                          [&](size_t I, size_t J) { return A[I] == B[J]; });
}
