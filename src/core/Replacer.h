//===- core/Replacer.h - Tensorized instruction injection ------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tensor-IR transformation of paper §IV.B step 3: fills the region
/// lower() (tir/Lower.h) leaves empty under a `#pragma tensorize
/// <intrinsic>` with a single vector store of the tensorized call, whose
/// register operands come from the operand generation rules (OperandGen.h).
/// It alone resolves a tensorized schedule: once, at the tile origin.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_CORE_REPLACER_H
#define UNIT_CORE_REPLACER_H

#include "core/Rewriter.h"
#include "tir/Stmt.h"

namespace unit {

/// Replaces every `tensorize` pragma of \p Lowered that names \p Plan's
/// intrinsic. Residue guards from outer imperfect splits are
/// re-established around the replacement store.
StmtRef replaceTensorized(const StmtRef &Lowered, const TensorizePlan &Plan);

} // namespace unit

#endif // UNIT_CORE_REPLACER_H
