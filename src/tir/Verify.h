//===- tir/Verify.h - Tensor IR well-formedness checks ---------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the tensor IR constraints of paper §II.C.3: canonical loops
/// with distinct variables, flattened restrict accesses, no Reduce nodes,
/// every variable dominated by its loop, and lane-consistent vector stores.
/// A `tensorize` pragma still present is an error: lower() leaves its
/// region empty for the Replacer, so the program would compute nothing
/// there.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_TIR_VERIFY_H
#define UNIT_TIR_VERIFY_H

#include "tir/Stmt.h"

#include <string>

namespace unit {

/// Verification result; `ok()` is true when no violation was found.
struct VerifyResult {
  std::string Error; ///< Empty when valid.

  bool ok() const { return Error.empty(); }
};

/// Checks \p S against the tensor IR invariants.
VerifyResult verifyTIR(const StmtRef &S);

} // namespace unit

#endif // UNIT_TIR_VERIFY_H
