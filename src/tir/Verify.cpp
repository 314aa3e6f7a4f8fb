//===- tir/Verify.cpp ------------------------------------------------------===//

#include "tir/Verify.h"

#include "ir/ExprVisitor.h"
#include "tir/StmtVisitor.h"

#include <algorithm>
#include <vector>

using namespace unit;

namespace {

/// Scans one embedded expression for violations.
class ExprChecker : public ExprVisitor {
public:
  const std::vector<const IterVarNode *> &InScope;
  std::string Error;

  explicit ExprChecker(const std::vector<const IterVarNode *> &InScope)
      : InScope(InScope) {}

  void visitVar(const VarNode *N) override {
    if (std::find(InScope.begin(), InScope.end(), N->IV.get()) ==
        InScope.end())
      Error = "loop variable '" + N->IV->name() +
              "' used outside its loop";
  }

  void visitLoad(const LoadNode *N) override {
    if (N->Indices.size() != 1)
      Error = "load from '" + N->Buf->name() +
              "' is not flattened to a single index";
    ExprVisitor::visitLoad(N);
  }

  void visitReduce(const ReduceNode *) override {
    Error = "Reduce node present in tensor IR";
  }
};

/// Walks statements tracking loop scope: the enclosing loops' variables,
/// outermost first.
class StmtChecker : public StmtVisitor {
public:
  std::vector<const IterVarNode *> InScope;
  std::string Error;

  void check(const ExprRef &E) {
    if (!Error.empty())
      return;
    ExprChecker C(InScope);
    C.visit(E);
    if (!C.Error.empty())
      Error = C.Error;
  }

  void visitExpr(const ExprRef &E) override { check(E); }

  void visitFor(const ForNode *N) override {
    if (!Error.empty())
      return;
    if (N->extent() <= 0) {
      Error = "loop '" + N->LoopVar->name() + "' has non-positive extent";
      return;
    }
    if (std::find(InScope.begin(), InScope.end(), N->LoopVar.get()) !=
        InScope.end()) {
      Error = "loop variable '" + N->LoopVar->name() + "' shadowed";
      return;
    }
    InScope.push_back(N->LoopVar.get());
    StmtVisitor::visitFor(N);
    InScope.pop_back();
  }

  void visitPragma(const PragmaNode *N) override {
    if (N->Key == "tensorize" && Error.empty())
      Error = "tensorize region for '" + N->Value + "' was never replaced";
    StmtVisitor::visitPragma(N);
  }

  void visitStore(const StoreNode *N) override {
    if (!Error.empty())
      return;
    if (N->Index->dtype().lanes() != N->Value->dtype().lanes()) {
      Error = "store to '" + N->Buf->name() + "' has mismatched lanes";
      return;
    }
    StmtVisitor::visitStore(N);
  }
};

} // namespace

VerifyResult unit::verifyTIR(const StmtRef &S) {
  StmtChecker C;
  C.InScope.reserve(16); // Deeper nests than this are rare.
  C.visit(S);
  return VerifyResult{C.Error};
}
