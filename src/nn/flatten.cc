#include "nn/flatten.h"

namespace apots::nn {

const Tensor* Flatten::Run(const Tensor& input, Pass pass,
                           tensor::Workspace* ws) {
  APOTS_CHECK_GE(input.rank(), 2u);
  if (pass.record) cached_shape_ = input.shape();
  const size_t batch = input.dim(0);
  return ws->AcquireCopy(input, {batch, input.size() / batch});
}

Tensor Flatten::Backward(const Tensor& grad_output) {
  return grad_output.Reshape(cached_shape_);
}

}  // namespace apots::nn
