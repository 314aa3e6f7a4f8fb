//===- tir/Lower.cpp -------------------------------------------------------===//

#include "tir/Lower.h"

#include "ir/ExprVisitor.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace unit;

ExprRef unit::flattenIndex(const TensorRef &Buf,
                           const std::vector<ExprRef> &Indices) {
  assert(Indices.size() == Buf->rank() && "rank mismatch in flatten");
  return flattenIndexBy(Buf, [&](size_t I) { return Indices[I]; });
}

namespace {

/// Rewrites every multi-index Load into a flat single-index Load.
class FlattenMutator : public ExprMutator {
public:
  ExprRef mutateLoad(const ExprRef &, const LoadNode *N) override {
    std::vector<ExprRef> Indices;
    Indices.reserve(N->Indices.size());
    for (const ExprRef &I : N->Indices)
      Indices.push_back(mutate(I));
    if (Indices.size() == 1)
      return makeVectorLoad(N->Buf, Indices.front());
    return makeVectorLoad(N->Buf, flattenIndex(N->Buf, Indices));
  }
};

ExprNode::Kind combinerOpcode(ReduceKind K) {
  switch (K) {
  case ReduceKind::Sum:
    return ExprNode::Kind::Add;
  case ReduceKind::Max:
    return ExprNode::Kind::Max;
  case ReduceKind::Min:
    return ExprNode::Kind::Min;
  }
  unit_unreachable("unknown reduce kind");
}

/// Combiner identity element for initialization.
ExprRef combinerIdentity(ReduceKind K, DataType DType) {
  switch (K) {
  case ReduceKind::Sum:
    return DType.isFloat() ? makeFloatImm(0.0, DType) : makeIntImm(0, DType);
  case ReduceKind::Max:
    // A sufficiently small value; exact min-of-type for the integral types
    // we use. Floats use -inf-ish large negative.
    if (DType.isFloat())
      return makeFloatImm(-1e300, DType);
    return makeIntImm(DType.isUInt() ? 0
                                     : -(int64_t(1) << (DType.bits() - 1)),
                      DType);
  case ReduceKind::Min:
    if (DType.isFloat())
      return makeFloatImm(1e300, DType);
    if (DType.isUInt())
      return makeIntImm((int64_t(1) << DType.bits()) - 1, DType);
    return makeIntImm((int64_t(1) << (DType.bits() - 1)) - 1, DType);
  }
  unit_unreachable("unknown reduce kind");
}

/// The scalar main-nest body: `out = combine(out, source)` (or the
/// elementwise body) over the resolved root axes, inside its residue
/// guards.
StmtRef scalarBody(const Schedule &S) {
  const ComputeOp &Op = *S.op();
  const TensorRef &Out = Op.output();
  Schedule::Resolution Resolved = S.resolve();
  const VarSubst &Roots = Resolved.Roots;
  FlattenMutator Flatten;

  // Output flat index in terms of leaf variables.
  std::vector<ExprRef> OutIdx;
  for (const IterVar &Axis : Op.axes())
    OutIdx.push_back(Roots.at(Axis.get()));
  ExprRef OutFlat = flattenIndex(Out, OutIdx);

  ExprRef StoreValue;
  if (const ReduceNode *Reduce = Op.reduceRoot()) {
    ExprRef Source = Flatten.mutate(substitute(Reduce->Source, Roots));
    ExprRef Current = makeVectorLoad(Out, OutFlat);
    StoreValue =
        makeBinary(combinerOpcode(Reduce->RKind), Current, std::move(Source));
  } else {
    StoreValue = Flatten.mutate(substitute(Op.body(), Roots));
  }
  StmtRef Body = makeStore(Out, OutFlat, std::move(StoreValue));

  // Residue guards around the store, wrapped in `likely`.
  for (const ExprRef &Pred : Resolved.Guards) {
    ExprRef Guard = makeCall("likely", CallKind::Pure, {Pred},
                             DataType::i32());
    Body = makeIfThenElse(std::move(Guard), std::move(Body));
  }
  return Body;
}

/// Wraps \p Body in \p Leaf's pragmas, first pragma innermost.
StmtRef wrapPragmas(const Schedule &S, const IterVar &Leaf, StmtRef Body) {
  for (const auto &[Key, Value] : S.pragmas(Leaf))
    Body = makePragma(Key, Value, std::move(Body));
  return Body;
}

} // namespace

StmtRef unit::lower(const Schedule &S) {
  const ComputeOp &Op = *S.op();
  const TensorRef &Out = Op.output();
  const std::vector<IterVar> &Leaves = S.leaves();
  const ReduceNode *Reduce = Op.reduceRoot();

  // --- Main nest ---
  // It stops at the outermost tensorize leaf: the Replacer fills that
  // pragma's region with the tensorized call, so no scalar body and no
  // loop is built at or below it.
  auto Stop = std::find_if(Leaves.begin(), Leaves.end(), [&](auto &Leaf) {
    for (const auto &[Key, Value] : S.pragmas(Leaf))
      if (Key == "tensorize")
        return true;
    return false;
  });
  StmtRef Body =
      Stop == Leaves.end()
          ? scalarBody(S)
          : wrapPragmas(S, *Stop,
                        std::make_shared<SeqNode>(std::vector<StmtRef>{}));

  // Wrap the leaf loops above it inside-out.
  for (auto It = std::make_reverse_iterator(Stop); It != Leaves.rend();
       ++It)
    Body = wrapPragmas(S, *It, makeFor(*It, S.annotation(*It),
                                      std::move(Body)));

  if (!Reduce || Op.isInPlaceUpdate())
    return Body;

  // --- Initialization nest (reduction ops only) ---
  // Loops directly over the root data-parallel axes; the init value is the
  // reduce's Init expression or the combiner identity.
  ExprRef InitValue = Reduce->Init
                          ? FlattenMutator().mutate(Reduce->Init)
                          : combinerIdentity(Reduce->RKind,
                                             Out->dtype());
  StmtRef Init = makeStore(
      Out, flattenIndexBy(Out, [&](size_t I) { return makeVar(Op.axes()[I]); }),
      std::move(InitValue));
  for (auto It = Op.axes().rbegin(), E = Op.axes().rend(); It != E; ++It)
    Init = makeFor(*It, ForKind::Serial, std::move(Init));

  return makeSeq({std::move(Init), std::move(Body)});
}
