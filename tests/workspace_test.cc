// Tests for the tensor::Workspace bump arena: slot reuse across Reset,
// alignment of borrowed storage, grow-only buffers, non-aliasing of
// tensors borrowed within one generation, and forward passes (training and
// inference) staying bitwise stable on dirty arena slots.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/discriminator.h"
#include "core/predictor.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "tensor/workspace.h"
#include "util/rng.h"

namespace apots::tensor {
namespace {

TEST(WorkspaceTest, AcquireShapesAndSlotAccounting) {
  Workspace ws;
  EXPECT_EQ(ws.slots_in_use(), 0u);
  EXPECT_EQ(ws.capacity_slots(), 0u);

  Tensor* a = ws.Acquire({2, 3});
  Tensor* b = ws.Acquire({4});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->shape(), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(b->shape(), (std::vector<size_t>{4}));
  EXPECT_EQ(ws.slots_in_use(), 2u);
  EXPECT_EQ(ws.capacity_slots(), 2u);
  EXPECT_EQ(ws.capacity_floats(), 10u);
}

TEST(WorkspaceTest, ResetReusesSlotsWithoutGrowth) {
  Workspace ws;
  Tensor* first = ws.Acquire({8, 8});
  const float* first_data = first->data();
  ws.Reset();
  EXPECT_EQ(ws.slots_in_use(), 0u);

  // Steady state: the same slot (and its buffer) comes back.
  Tensor* again = ws.Acquire({8, 8});
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->data(), first_data);
  EXPECT_EQ(ws.capacity_slots(), 1u);
  EXPECT_EQ(ws.generation(), 1u);
}

TEST(WorkspaceTest, BorrowedStorageIs64ByteAligned) {
  Workspace ws;
  for (size_t n : {1u, 3u, 17u, 64u, 1000u}) {
    Tensor* t = ws.Acquire({n});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t->data()) % 64, 0u)
        << "slot of " << n << " floats";
  }
}

TEST(WorkspaceTest, BuffersGrowButNeverReallocOnShrink) {
  Workspace ws;
  Tensor* slot = ws.Acquire({16, 16});
  const float* big_data = slot->data();
  EXPECT_EQ(ws.high_water_floats(), 256u);

  // A smaller request in the same slot reuses the existing buffer — the
  // pointer is stable, so steady-state forwards never touch the heap.
  ws.Reset();
  Tensor* small = ws.Acquire({4, 4});
  EXPECT_EQ(small, slot);
  EXPECT_EQ(small->data(), big_data);
  EXPECT_EQ(small->size(), 16u);
  // The high-water mark remembers the largest generation.
  EXPECT_EQ(ws.high_water_floats(), 256u);
}

TEST(WorkspaceTest, TensorsWithinOneGenerationNeverAlias) {
  Workspace ws;
  // Two warm-up generations so all buffers exist and get recycled.
  for (int gen = 0; gen < 3; ++gen) {
    ws.Reset();
    std::vector<Tensor*> borrowed;
    for (size_t n : {32u, 7u, 128u, 1u}) borrowed.push_back(ws.Acquire({n}));
    for (size_t i = 0; i < borrowed.size(); ++i) {
      const float* lo_i = borrowed[i]->data();
      const float* hi_i = lo_i + borrowed[i]->size();
      for (size_t j = i + 1; j < borrowed.size(); ++j) {
        const float* lo_j = borrowed[j]->data();
        const float* hi_j = lo_j + borrowed[j]->size();
        EXPECT_TRUE(hi_i <= lo_j || hi_j <= lo_i)
            << "slots " << i << " and " << j << " overlap in generation "
            << gen;
      }
    }
  }
}

TEST(WorkspaceTest, AcquireCopyKeepsValuesInTheNewShape) {
  Workspace ws;
  (void)ws.Acquire({6});
  ws.Reset();  // the copy lands in a dirty, recycled slot
  const Tensor src = Tensor::FromMatrix(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor* copy = ws.AcquireCopy(src, {3, 2});
  EXPECT_EQ(copy->shape(), (std::vector<size_t>{3, 2}));
  for (size_t i = 0; i < src.size(); ++i) EXPECT_EQ((*copy)[i], src[i]);
  EXPECT_EQ(ws.slots_in_use(), 1u);
}

// What one recording forward + Backward leaves behind: the output, the
// input gradient and every parameter gradient.
struct TapeRun {
  Tensor output;
  Tensor input_grad;
  std::vector<Tensor> param_grads;
};

Tensor Random(std::vector<size_t> shape, uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  FillUniform(&t, &rng, -1.0f, 1.0f);
  return t;
}

TapeRun Record(const std::function<Tensor(const Tensor&)>& forward,
               const std::function<Tensor(const Tensor&)>& backward,
               const std::vector<nn::Parameter*>& params,
               const Tensor& input) {
  nn::ZeroAllGrads(params);
  TapeRun run;
  run.output = forward(input);
  run.input_grad = backward(Random(run.output.shape(), 77));
  for (const nn::Parameter* p : params) run.param_grads.push_back(p->grad);
  return run;
}

void ExpectSameBits(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0)
      << what;
}

void ExpectSameRun(const TapeRun& got, const TapeRun& want,
                   const std::string& what) {
  ExpectSameBits(got.output, want.output, what + " output");
  ExpectSameBits(got.input_grad, want.input_grad, what + " input grad");
  ASSERT_EQ(got.param_grads.size(), want.param_grads.size()) << what;
  for (size_t i = 0; i < want.param_grads.size(); ++i) {
    ExpectSameBits(got.param_grads[i], want.param_grads[i],
                   what + " grad of parameter " + std::to_string(i));
  }
}

// Training forwards run on arenas whose slots are dirty from earlier
// passes. A recording forward + Backward must give the same bits on a
// fresh object as after a pass at another batch size has dirtied every
// slot, through both call forms; and the inference form must reproduce
// the recorded output over several dirty generations.
TEST(WorkspaceTest, RecordedTapeIsBitwiseOnDirtyArena) {
  using core::PredictorType;
  const size_t rows = 5;
  const size_t alpha = 6;
  for (PredictorType type : {PredictorType::kFc, PredictorType::kLstm,
                             PredictorType::kCnn, PredictorType::kHybrid}) {
    const std::string label = core::PredictorTypeLabel(type);
    Rng rng(7);
    auto predictor = core::MakePredictor(
        core::PredictorHparams::Scaled(type, 32), rows, alpha, &rng);
    const std::vector<nn::Parameter*> params = predictor->Parameters();
    const Tensor input = Random({4, rows, alpha}, 1);
    const Tensor other = Random({9, rows, alpha}, 2);
    const auto backward = [&](const Tensor& g) {
      return predictor->Backward(g);
    };

    const auto own_arena = [&](const Tensor& x) {
      return predictor->Forward(x, /*training=*/true);
    };
    const TapeRun fresh = Record(own_arena, backward, params, input);
    Record(own_arena, backward, params, other);
    ExpectSameRun(Record(own_arena, backward, params, input), fresh,
                  label + " training form");

    Workspace ws;
    const auto caller_arena = [&](const Tensor& x) {
      ws.Reset();
      return Tensor(*predictor->Forward(x, /*training=*/true, &ws));
    };
    Record(caller_arena, backward, params, other);
    ExpectSameRun(Record(caller_arena, backward, params, input), fresh,
                  label + " workspace form");

    for (int gen = 0; gen < 3; ++gen) {
      ws.Reset();
      (void)predictor->Forward(other, /*training=*/false, &ws);
      ws.Reset();
      const Tensor* got = predictor->Forward(input, /*training=*/false, &ws);
      ExpectSameBits(*got, fresh.output,
                     label + " inference, generation " + std::to_string(gen));
    }
  }

  Rng rng(9);
  core::Discriminator disc(core::DiscriminatorHparams::Scaled(32), alpha,
                           /*context_width=*/3, &rng);
  const auto forward = [&](const Tensor& x) {
    return disc.Forward(x, Random({x.dim(0), 3}, x.dim(0)), true);
  };
  const auto backward = [&](const Tensor& g) { return disc.Backward(g); };
  const Tensor input = Random({4, alpha}, 3);
  const TapeRun fresh = Record(forward, backward, disc.Parameters(), input);
  Record(forward, backward, disc.Parameters(), Random({9, alpha}, 4));
  ExpectSameRun(Record(forward, backward, disc.Parameters(), input), fresh,
                "Discriminator");
}

}  // namespace
}  // namespace apots::tensor
