//===- ir/Expr.h - Tensor DSL expression tree ------------------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable expression nodes for the tensor DSL and the tensor IR. The
/// same node set serves both levels (paper §II.C): at the DSL level Load
/// nodes carry multi-dimensional indices; after lowering to tensor IR all
/// accesses are flattened to a single (possibly vector) index expression.
///
/// Casting uses the LLVM isa/cast/dyn_cast idiom keyed on ExprNode::Kind.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_IR_EXPR_H
#define UNIT_IR_EXPR_H

#include "ir/Tensor.h"
#include "support/Casting.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace unit {

class ExprNode;
using ExprRef = std::shared_ptr<const ExprNode>;

/// Loop axis annotation (paper Fig. 4: `loop_axis` vs `reduce_axis`).
enum class IterKind : uint8_t {
  DataParallel, ///< Iterations are independent.
  Reduce,       ///< Iterations accumulate into the same output element.
};

/// A loop axis: name, trip count, and data-parallel/reduce annotation.
/// Identity is by node pointer; schedules create fresh IterVars when
/// splitting or fusing loops.
class IterVarNode {
  std::string Name;
  int64_t Extent;
  IterKind Kind;

public:
  IterVarNode(std::string Name, int64_t Extent, IterKind Kind)
      : Name(std::move(Name)), Extent(Extent), Kind(Kind) {}

  const std::string &name() const { return Name; }
  int64_t extent() const { return Extent; }
  IterKind kind() const { return Kind; }
  bool isReduce() const { return Kind == IterKind::Reduce; }
};

using IterVar = std::shared_ptr<const IterVarNode>;

/// Creates a data-parallel loop axis.
IterVar makeAxis(std::string Name, int64_t Extent);
/// Creates a reduction loop axis.
IterVar makeReduceAxis(std::string Name, int64_t Extent);

//===----------------------------------------------------------------------===//
// Expression nodes
//===----------------------------------------------------------------------===//

/// Base of all expression nodes.
class ExprNode {
public:
  enum class Kind : uint8_t {
    IntImm,
    FloatImm,
    Var,
    // Binary arithmetic (kept contiguous; see BinaryNode::classof).
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Min,
    Max,
    // End of binary arithmetic.
    Cast,
    Load,
    Select,
    Ramp,
    Broadcast,
    Concat,
    Call,
    Reduce,
  };

private:
  const Kind K;
  const DataType DType;

protected:
  ExprNode(Kind K, DataType DType) : K(K), DType(DType) {}

public:
  virtual ~ExprNode();

  Kind kind() const { return K; }
  DataType dtype() const { return DType; }
};

/// Integer immediate (also used for unsigned via dtype).
class IntImmNode : public ExprNode {
public:
  const int64_t Value;

  IntImmNode(int64_t Value, DataType DType)
      : ExprNode(Kind::IntImm, DType), Value(Value) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::IntImm; }
};

/// Floating-point immediate.
class FloatImmNode : public ExprNode {
public:
  const double Value;

  FloatImmNode(double Value, DataType DType)
      : ExprNode(Kind::FloatImm, DType), Value(Value) {}

  static bool classof(const ExprNode *E) {
    return E->kind() == Kind::FloatImm;
  }
};

/// Reference to a loop axis. Loop variables are i32.
class VarNode : public ExprNode {
public:
  const IterVar IV;

  explicit VarNode(IterVar IV)
      : ExprNode(Kind::Var, DataType::i32()), IV(std::move(IV)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Var; }
};

/// Binary arithmetic. A single node class covers Add..Max; `kind()` is the
/// opcode, which is what the Inspector's isomorphism check compares.
class BinaryNode : public ExprNode {
public:
  const ExprRef LHS, RHS;

  BinaryNode(Kind Op, ExprRef LHS, ExprRef RHS, DataType DType)
      : ExprNode(Op, DType), LHS(std::move(LHS)), RHS(std::move(RHS)) {}

  static bool classof(const ExprNode *E) {
    return E->kind() >= Kind::Add && E->kind() <= Kind::Max;
  }
};

/// Data type conversion. Lane count is preserved.
class CastNode : public ExprNode {
public:
  const ExprRef Value;

  CastNode(DataType DType, ExprRef Value)
      : ExprNode(Kind::Cast, DType), Value(std::move(Value)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Cast; }
};

/// Tensor element (or vector) read.
///
/// DSL level: `Indices.size() == tensor rank`, each index scalar.
/// Tensor IR level: `Indices.size() == 1`, a flattened element index whose
/// lane count equals the load's lane count.
class LoadNode : public ExprNode {
public:
  const TensorRef Buf;
  const std::vector<ExprRef> Indices;

  LoadNode(TensorRef Buf, std::vector<ExprRef> Indices, DataType DType)
      : ExprNode(Kind::Load, DType), Buf(std::move(Buf)),
        Indices(std::move(Indices)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Load; }
};

/// Ternary select (used for residue guards' masked values).
class SelectNode : public ExprNode {
public:
  const ExprRef Cond, TrueValue, FalseValue;

  SelectNode(ExprRef Cond, ExprRef TrueValue, ExprRef FalseValue)
      : ExprNode(Kind::Select, TrueValue->dtype()), Cond(std::move(Cond)),
        TrueValue(std::move(TrueValue)), FalseValue(std::move(FalseValue)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Select; }
};

/// Affine vector index: Base + [0, Stride, 2*Stride, ...] with `lanes()`
/// entries. Produces a vector i32.
class RampNode : public ExprNode {
public:
  const ExprRef Base;
  const int64_t Stride;

  RampNode(ExprRef Base, int64_t Stride, unsigned Lanes)
      : ExprNode(Kind::Ramp, DataType::i32(Lanes)), Base(std::move(Base)),
        Stride(Stride) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Ramp; }
};

/// Tile-repeat broadcast: the value vector repeated `Repeat` times
/// ([v0..vn v0..vn ...]). With a scalar operand this is the conventional
/// SIMD broadcast. This is the "broadcast along ki by 16" of paper Fig. 5.
class BroadcastNode : public ExprNode {
public:
  const ExprRef Value;
  const unsigned Repeat;

  BroadcastNode(ExprRef Value, unsigned Repeat)
      : ExprNode(Kind::Broadcast,
                 Value->dtype().withLanes(Value->dtype().lanes() * Repeat)),
        Value(std::move(Value)), Repeat(Repeat) {}

  static bool classof(const ExprNode *E) {
    return E->kind() == Kind::Broadcast;
  }
};

/// Lane concatenation of same-scalar-type vectors — the "unrolled and
/// concatenated along ki" operand rule of paper Fig. 5.
class ConcatNode : public ExprNode {
public:
  const std::vector<ExprRef> Parts;

  ConcatNode(std::vector<ExprRef> Parts, DataType DType)
      : ExprNode(Kind::Concat, DType), Parts(std::move(Parts)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Concat; }
};

/// Call classification.
enum class CallKind : uint8_t {
  Pure,      ///< Side-effect-free builtin (e.g. "likely").
  Tensorized ///< A tensorized hardware instruction; name keys the registry.
};

/// Builtin or tensorized-instruction call.
class CallNode : public ExprNode {
public:
  const std::string Callee;
  const CallKind CKind;
  const std::vector<ExprRef> Args;

  CallNode(std::string Callee, CallKind CKind, std::vector<ExprRef> Args,
           DataType DType)
      : ExprNode(Kind::Call, DType), Callee(std::move(Callee)), CKind(CKind),
        Args(std::move(Args)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Call; }
};

/// Reduction combiner.
enum class ReduceKind : uint8_t { Sum, Max, Min };

/// Reduction over one or more reduce axes; only valid at the root of a
/// ComputeOp body. `Init` is the accumulator initializer: null means the
/// combiner identity (0 for Sum), an expression means "accumulate on top of
/// this" (the `c[i] +` of VNNI's semantics, paper Fig. 4a).
class ReduceNode : public ExprNode {
public:
  const ReduceKind RKind;
  const ExprRef Source;
  const std::vector<IterVar> Axes;
  const ExprRef Init; ///< May be null.

  ReduceNode(ReduceKind RKind, ExprRef Source, std::vector<IterVar> Axes,
             ExprRef Init)
      : ExprNode(Kind::Reduce, Source->dtype()), RKind(RKind),
        Source(std::move(Source)), Axes(std::move(Axes)),
        Init(std::move(Init)) {}

  static bool classof(const ExprNode *E) { return E->kind() == Kind::Reduce; }
};

//===----------------------------------------------------------------------===//
// Factory helpers
//===----------------------------------------------------------------------===//

/// An integer immediate. Small i32 values (-128 to 1024) come from one
/// shared node per value; any other value or type gets a fresh node.
ExprRef makeIntImm(int64_t Value, DataType DType = DataType::i32());
ExprRef makeFloatImm(double Value, DataType DType = DataType::f32());
ExprRef makeVar(const IterVar &IV);
/// Binary op with light constant folding and algebraic identities
/// (x+0, x*1, x*0, const@const); keeps index expressions tidy.
ExprRef makeBinary(ExprNode::Kind Op, ExprRef LHS, ExprRef RHS);
ExprRef makeCast(DataType DType, ExprRef Value);
ExprRef makeLoad(const TensorRef &Buf, std::vector<ExprRef> Indices);
/// Vector load with explicit result lanes (tensor IR level, flat index).
ExprRef makeVectorLoad(const TensorRef &Buf, ExprRef FlatIndex);
ExprRef makeSelect(ExprRef Cond, ExprRef TrueValue, ExprRef FalseValue);
ExprRef makeRamp(ExprRef Base, int64_t Stride, unsigned Lanes);
ExprRef makeBroadcast(ExprRef Value, unsigned Repeat);
ExprRef makeConcat(std::vector<ExprRef> Parts);
ExprRef makeCall(std::string Callee, CallKind CKind, std::vector<ExprRef> Args,
                 DataType DType);
ExprRef makeReduce(ReduceKind RKind, ExprRef Source, std::vector<IterVar> Axes,
                   ExprRef Init = nullptr);

// Operator sugar for writing DSL programs in tests/examples.
ExprRef operator+(ExprRef LHS, ExprRef RHS);
ExprRef operator-(ExprRef LHS, ExprRef RHS);
ExprRef operator*(ExprRef LHS, ExprRef RHS);
ExprRef operator/(ExprRef LHS, ExprRef RHS);
ExprRef operator%(ExprRef LHS, ExprRef RHS);

} // namespace unit

#endif // UNIT_IR_EXPR_H
