//===- ir/Tensor.cpp -------------------------------------------------------===//

#include "ir/Tensor.h"

#include "support/ErrorHandling.h"

#include <cassert>

using namespace unit;

TensorNode::TensorNode(std::string Name, std::vector<int64_t> Shape,
                       DataType DType)
    : Name(std::move(Name)), Shape(std::move(Shape)),
      Strides(this->Shape.size(), 1), DType(DType) {
  assert(DType.isScalar() && "tensor element type must be scalar");
  for ([[maybe_unused]] int64_t D : this->Shape)
    assert(D > 0 && "tensor dimensions must be positive");
  for (size_t I = this->Shape.size(); I-- > 1;)
    Strides[I - 1] = Strides[I] * this->Shape[I];
}

int64_t TensorNode::numElements() const {
  int64_t N = 1;
  for (int64_t D : Shape)
    N *= D;
  return N;
}

TensorRef unit::makeTensor(std::string Name, std::vector<int64_t> Shape,
                           DataType DType) {
  return std::make_shared<TensorNode>(std::move(Name), std::move(Shape),
                                      DType);
}
