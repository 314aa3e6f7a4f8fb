//===- core/Isomorphism.h - Compute isomorphism (paper Algorithm 1) -------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first Inspector step (paper §III.B.1): decide whether a tensorized
/// instruction and a tensor operation are *arithmetically equivalent* by
/// checking isomorphism of their expression trees — same topology, same
/// opcodes, same data types — while binding each instruction register
/// (tensor) to exactly one data source in the operation.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_CORE_ISOMORPHISM_H
#define UNIT_CORE_ISOMORPHISM_H

#include "ir/ComputeOp.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace unit {

/// One register binding: the instruction's operand tensor, the operation
/// tensor it binds to, and representative loads on both sides (index
/// expressions feed the access-isomorphism check and operand generation).
struct OperandBinding {
  TensorRef InstrTensor;
  const LoadNode *InstrLoad = nullptr;
  TensorRef OpTensor;              ///< Null for accumulator-to-output binds.
  const LoadNode *OpLoad = nullptr;
  /// True when this register is the accumulator fed with the operation's
  /// own output (instruction init `c[i] +` matched against an identity
  /// init, or an in-place `+=` instruction).
  bool IsAccumulator = false;
  /// The operation's flat-index stride along each lane axis of the
  /// register, in lane-layout order: opLaneStrides (core/Inspector.h)
  /// under the match's mapping, which inspect() records once per match.
  /// Empty for the accumulator and before a mapping is chosen.
  std::vector<int64_t> LaneStrides;
};

/// Result of the compute-isomorphism check.
struct IsoResult {
  bool Matched = false;
  std::vector<OperandBinding> Bindings; ///< One per instruction tensor.
  std::string FailureReason;            ///< Set when !Matched.

  /// The binding of instruction tensor \p T, or null.
  const OperandBinding *bindingFor(const TensorRef &T) const;
};

/// Runs Algorithm 1 between \p Instr's and \p Op's compute bodies:
/// matches the reduction structure (combiner kind, elementwise source
/// trees, accumulator initialization) and produces register bindings.
IsoResult matchCompute(const ComputeOp &Instr, const ComputeOp &Op);

/// Canonical structural serialization of \p Op. Loop variables and tensors
/// are numbered by first appearance (axes in declaration order, tensors
/// output-first), so two operations that differ only in variable, tensor,
/// or operation names — the renamings matchCompute treats as isomorphic —
/// serialize to the same string, while any difference in topology, opcodes,
/// extents, shapes, or data types produces a different one. The runtime's
/// KernelCache uses this as its kernel key (runtime/KernelCache.h).
std::string canonicalComputeKey(const ComputeOp &Op);

/// Structural distance between two canonicalComputeKey serializations:
/// token-level edit distance (numbers, identifiers, and punctuation are
/// single tokens, so `224` vs `225` costs one edit, not a digit-wise
/// count). A metric on serializations — zero iff the strings are equal
/// (renamed-isomorphic ops, which serialize identically, are at distance
/// zero), symmetric, triangle inequality. \p Cutoff bounds the work: the
/// result is exact when it is at most Cutoff and Cutoff + 1 otherwise,
/// and the diagonal-transition computation (Ukkonen; Landau–Vishkin)
/// costs O(len + d^2) for keys d edits apart, so nearest-neighbor scans
/// over many cached keys stay cheap. The CompilerSession's transfer
/// tuning uses this to find a near-isomorphic neighbor whose cached
/// winner seeds a new key's search (docs/TUNING.md).
size_t structuralDistance(const std::string &A, const std::string &B,
                          size_t Cutoff);

/// structuralDistance over keys already split by structuralTokens and
/// interned: equal tokens carry equal ids. Both overloads run the same
/// computation; the string overload compares tokens packed in place and
/// keeps \p A's tokens per thread while A's content stays the same, so a
/// scan of one query against many keys tokenizes the query once. Callers
/// that compare one key against many (the transfer index,
/// runtime/TransferIndex.h) tokenize and intern each key once instead.
size_t structuralDistance(const std::vector<uint32_t> &A,
                          const std::vector<uint32_t> &B, size_t Cutoff);

/// The comparison units of structuralDistance, as views into \p Key:
/// maximal digit runs, maximal identifier runs ([A-Za-z_]+), and single
/// punctuation characters, so one changed extent costs one edit whatever
/// its digit count.
std::vector<std::string_view> structuralTokens(std::string_view Key);

} // namespace unit

#endif // UNIT_CORE_ISOMORPHISM_H
