#ifndef APOTS_NN_ACTIVATIONS_H_
#define APOTS_NN_ACTIVATIONS_H_

#include <string>

#include "nn/module.h"

namespace apots::nn {

/// Rectified linear unit, elementwise max(0, x).
class Relu : public Layer {
 public:
  Relu() = default;
  const Tensor* Run(const Tensor& input, Pass pass,
                    tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Relu"; }

 private:
  const Tensor* cached_input_ = nullptr;  // tape: the recorded input
};

/// Leaky ReLU with configurable negative slope (default 0.2, the usual GAN
/// discriminator choice).
class LeakyRelu : public Layer {
 public:
  explicit LeakyRelu(float slope = 0.2f) : slope_(slope) {}
  const Tensor* Run(const Tensor& input, Pass pass,
                    tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;

 private:
  float slope_;
  const Tensor* cached_input_ = nullptr;  // tape: the recorded input
};

/// Logistic sigmoid, elementwise 1 / (1 + exp(-x)).
class Sigmoid : public Layer {
 public:
  Sigmoid() = default;
  const Tensor* Run(const Tensor& input, Pass pass,
                    tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Sigmoid"; }

 private:
  const Tensor* cached_output_ = nullptr;  // tape: the arena output
};

/// Hyperbolic tangent.
class Tanh : public Layer {
 public:
  Tanh() = default;
  const Tensor* Run(const Tensor& input, Pass pass,
                    tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override { return "Tanh"; }

 private:
  const Tensor* cached_output_ = nullptr;  // tape: the arena output
};

/// Scalar math shared with the LSTM cell.
float SigmoidScalar(float x);
float TanhScalar(float x);

}  // namespace apots::nn

#endif  // APOTS_NN_ACTIVATIONS_H_
