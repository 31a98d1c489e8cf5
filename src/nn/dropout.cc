#include "nn/dropout.h"

#include "tensor/tensor_ops.h"
#include "util/string_util.h"

namespace apots::nn {

Dropout::Dropout(float rate, apots::Rng* rng) : rate_(rate), rng_(rng) {
  APOTS_CHECK_GE(rate, 0.0f);
  APOTS_CHECK_LT(rate, 1.0f);
  APOTS_CHECK(rng != nullptr);
}

const Tensor* Dropout::Run(const Tensor& input, Pass pass,
                           tensor::Workspace* ws) {
  if (!pass.training || rate_ == 0.0f) {
    // Identity: pass the input through without copying. Only a recording
    // pass may touch the tape (concurrent inference forwards share this
    // layer).
    if (pass.record) mask_ = nullptr;
    return &input;
  }
  const float keep = 1.0f - rate_;
  Tensor* mask = ws->Acquire(input.shape());
  float* pm = mask->data();
  for (size_t i = 0; i < mask->size(); ++i) {
    pm[i] = rng_->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  mask_ = mask;
  Tensor* out = ws->Acquire(input.shape());
  const float* px = input.data();
  float* po = out->data();
  for (size_t i = 0; i < out->size(); ++i) po[i] = px[i] * pm[i];
  return out;
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  if (mask_ == nullptr) return grad_output;
  APOTS_CHECK(grad_output.SameShape(*mask_));
  return apots::tensor::Mul(grad_output, *mask_);
}

std::string Dropout::Name() const {
  return apots::StrFormat("Dropout(%.2f)", static_cast<double>(rate_));
}

}  // namespace apots::nn
