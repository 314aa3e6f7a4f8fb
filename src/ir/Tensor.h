//===- ir/Tensor.h - Named tensor placeholders ----------------------------===//
//
// Part of the UNIT reproduction (CGO 2021). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TensorNode is a named, shaped, typed array placeholder. At the DSL level
/// tensors are the operands of ComputeOps; inside a tensorized instruction's
/// semantics program they abstract the instruction's *registers* (paper
/// §III.A), which is why the Inspector insists each instruction tensor binds
/// to exactly one operation tensor.
///
//===----------------------------------------------------------------------===//

#ifndef UNIT_IR_TENSOR_H
#define UNIT_IR_TENSOR_H

#include "ir/DataType.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace unit {

/// A named array placeholder with static shape and scalar element type.
class TensorNode {
  std::string Name;
  std::vector<int64_t> Shape;
  std::vector<int64_t> Strides; ///< Row-major, from Shape at construction.
  DataType DType;

public:
  TensorNode(std::string Name, std::vector<int64_t> Shape, DataType DType);

  const std::string &name() const { return Name; }
  const std::vector<int64_t> &shape() const { return Shape; }
  DataType dtype() const { return DType; }

  unsigned rank() const { return static_cast<unsigned>(Shape.size()); }
  int64_t dim(unsigned I) const { return Shape[I]; }

  /// Total element count.
  int64_t numElements() const;

  /// Row-major element strides (innermost dimension has stride 1).
  const std::vector<int64_t> &strides() const { return Strides; }
};

using TensorRef = std::shared_ptr<const TensorNode>;

/// Creates a tensor placeholder.
TensorRef makeTensor(std::string Name, std::vector<int64_t> Shape,
                     DataType DType);

} // namespace unit

#endif // UNIT_IR_TENSOR_H
