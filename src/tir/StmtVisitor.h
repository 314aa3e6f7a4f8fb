//===- tir/StmtVisitor.h - Statement visitors and mutators -----------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Read-only and rebuilding walks over tensor IR statements, mirroring
/// ir/ExprVisitor.h. StmtMutator also exposes an expression hook so passes
/// can rewrite expressions embedded in statements.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TIR_STMTVISITOR_H
#define UNIT_TIR_STMTVISITOR_H

#include "tir/Stmt.h"

namespace unit {

/// Read-only recursive statement walk.
class StmtVisitor {
public:
  virtual ~StmtVisitor();

  void visit(const StmtRef &S);

  virtual void visitFor(const ForNode *N);
  virtual void visitStore(const StoreNode *N);
  virtual void visitSeq(const SeqNode *N);
  virtual void visitIfThenElse(const IfThenElseNode *N);
  virtual void visitPragma(const PragmaNode *N);
  virtual void visitEvaluate(const EvaluateNode *N);

  /// Called for every expression embedded in a statement; default no-op.
  virtual void visitExpr(const ExprRef &) {}
};

/// Rebuilding statement walk preserving sharing.
class StmtMutator {
public:
  virtual ~StmtMutator();

  StmtRef mutate(const StmtRef &S);

  virtual StmtRef mutateFor(const StmtRef &S, const ForNode *N);
  virtual StmtRef mutateStore(const StmtRef &S, const StoreNode *N);
  virtual StmtRef mutateSeq(const StmtRef &S, const SeqNode *N);
  virtual StmtRef mutateIfThenElse(const StmtRef &S, const IfThenElseNode *N);
  virtual StmtRef mutatePragma(const StmtRef &S, const PragmaNode *N);
  virtual StmtRef mutateEvaluate(const StmtRef &S, const EvaluateNode *N);

  /// Expression rewrite hook applied to embedded expressions; identity by
  /// default.
  virtual ExprRef mutateExpr(const ExprRef &E) { return E; }
};

} // namespace unit

#endif // UNIT_TIR_STMTVISITOR_H
