#ifndef APOTS_NN_MODULE_H_
#define APOTS_NN_MODULE_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/quant.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"

namespace apots::nn {

using apots::tensor::Tensor;

/// A trainable weight: value plus accumulated gradient of the same shape.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string name_in, Tensor value_in)
      : name(std::move(name_in)),
        value(std::move(value_in)),
        grad(Tensor::Zeros(value.shape())) {}

  /// Clears the accumulated gradient.
  void ZeroGrad() { grad.Fill(0.0f); }
};

/// How a forward body runs. `training` toggles train-only behaviour (e.g.
/// dropout); `record` makes the body keep the backward tape — whatever
/// Backward reads — in arena slots of the pass's workspace. Training
/// implies recording.
struct Pass {
  bool training = false;
  bool record = false;
};

/// Base class for differentiable layers. Every layer has exactly one
/// forward body, Run, behind two call forms; Backward consumes the tape the
/// last recording pass left, accumulates parameter gradients, and returns
/// the gradient with respect to the layer input.
///
/// Batch conventions: Dense-style layers take [batch, features]; Conv2d
/// takes [batch, channels, height, width]; Lstm takes
/// [batch, time, features].
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Training form: runs the body on the layer's own arena with the tape
  /// recorded (for either value of `training`, so a gradient check may
  /// call Forward(x, false) and then Backward) and returns an owned copy
  /// of the output. The next call of this form reuses the arena, which
  /// replaces the tape.
  Tensor Forward(const Tensor& input, bool training);

  /// Workspace form: borrows the output and all scratch from `ws`; the
  /// returned pointer lives until `ws->Reset()` and may alias `&input` for
  /// identity layers. With `training` false it writes no layer member, so
  /// concurrent inference forwards on a shared layer are safe, and it is
  /// the only call that reads PrepareQuantized weights. With `training`
  /// true it records the tape into `ws`; `ws` and `input` must then stay
  /// untouched until the matching Backward.
  const Tensor* Forward(const Tensor& input, bool training,
                        tensor::Workspace* ws) {
    return Run(input, Pass{training, training}, ws);
  }

  /// The forward body both forms run. It borrows every tensor it writes
  /// from `ws` (contents dirty, so it fully overwrites them), writes layer
  /// members only when `pass.record` is set, and uses packed
  /// reduced-precision weights only when it is not. A recording pass may
  /// keep pointers to `input` and to its own slots: inside a Sequential
  /// each layer's input is the previous layer's output slot, which lives
  /// as long as the tape.
  virtual const Tensor* Run(const Tensor& input, Pass pass,
                            tensor::Workspace* ws) = 0;

  /// Backpropagates `grad_output` (gradient of the loss w.r.t. this layer's
  /// output), accumulating into parameter grads, and returns the gradient
  /// w.r.t. the layer's input. Must be called after a matching Forward.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Packs this layer's frozen weights for reduced-precision inference
  /// (tensor::QuantMode). Only a non-recording pass consults the packed
  /// weights; recording passes always run fp32, so gradients are
  /// unaffected. The packed copy snapshots the weights at call time — call
  /// again after any weight mutation, or with kOff to drop the packed copy
  /// and return to exact fp32 inference. Default: no-op (layers without
  /// matmul weights have nothing to quantize).
  virtual void PrepareQuantized(tensor::QuantMode mode) { (void)mode; }

  /// Trainable parameters (empty for stateless layers). Pointers remain
  /// valid for the layer's lifetime.
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Short human-readable layer description.
  virtual std::string Name() const = 0;

 protected:
  Layer() = default;

 private:
  tensor::Workspace arena_;  ///< backs the training form's passes
};

/// Zeroes the gradients of all `params`.
void ZeroAllGrads(const std::vector<Parameter*>& params);

/// Total number of scalar weights across `params`.
size_t CountWeights(const std::vector<Parameter*>& params);

/// Global L2 norm of all gradients (diagnostic / clipping input).
double GradNorm(const std::vector<Parameter*>& params);

/// Scales gradients so their global L2 norm is at most `max_norm`.
void ClipGradNorm(const std::vector<Parameter*>& params, double max_norm);

}  // namespace apots::nn

#endif  // APOTS_NN_MODULE_H_
