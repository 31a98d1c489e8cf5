#ifndef APOTS_NN_DROPOUT_H_
#define APOTS_NN_DROPOUT_H_

#include <string>

#include "nn/module.h"
#include "util/rng.h"

namespace apots::nn {

/// Inverted dropout: during training each unit is zeroed with probability
/// `rate` and survivors are scaled by 1/(1-rate); at inference it is the
/// identity. The RNG is owned by the caller so whole-model determinism is
/// controlled from one seed.
class Dropout : public Layer {
 public:
  Dropout(float rate, apots::Rng* rng);

  const Tensor* Run(const Tensor& input, Pass pass,
                    tensor::Workspace* ws) override;
  Tensor Backward(const Tensor& grad_output) override;
  std::string Name() const override;

 private:
  float rate_;
  apots::Rng* rng_;  // not owned
  // Tape: the last training pass's mask; null after an identity pass.
  const Tensor* mask_ = nullptr;
};

}  // namespace apots::nn

#endif  // APOTS_NN_DROPOUT_H_
