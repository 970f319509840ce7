// The serving contract of Module::infer: bit-identical to forward(), batch
// rows independent (stacked == per-sample), and safe to run concurrently on
// one shared model instance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "math/rng.hpp"
#include "nn/models.hpp"

namespace {

using namespace maps;

nn::Tensor random_input(std::vector<index_t> shape, unsigned seed) {
  math::Rng rng(seed);
  nn::Tensor x(std::move(shape));
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

bool bit_identical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

nn::ModelConfig small_config(nn::ModelKind kind) {
  nn::ModelConfig cfg;
  cfg.kind = kind;
  cfg.in_channels = 4;
  cfg.out_channels = 2;
  cfg.width = 4;
  cfg.modes = 2;
  cfg.depth = 1;
  cfg.n_outputs = 3;
  return cfg;
}

TEST(Infer, MatchesForwardBitIdenticalAcrossModels) {
  for (const auto kind : {nn::ModelKind::Fno, nn::ModelKind::Ffno,
                          nn::ModelKind::UNetKind, nn::ModelKind::NeurOLight,
                          nn::ModelKind::SParam}) {
    const auto model = nn::make_model(small_config(kind));
    const nn::Tensor x = random_input({2, 4, 16, 16}, 7);
    const nn::Tensor via_forward = model->forward(x);
    const nn::Tensor via_infer = model->infer(x);
    EXPECT_TRUE(bit_identical(via_forward, via_infer))
        << "model " << nn::model_name(kind);
  }
}

TEST(Infer, StackedBatchMatchesPerSample) {
  // Batch rows are independent: row k of a stacked (N, C, H, W) forward is
  // bit-identical to sample k's own forward. Training batches rely on it.
  const auto model = nn::make_model(small_config(nn::ModelKind::Fno));
  constexpr index_t kBatch = 5;
  const nn::Tensor stacked = random_input({kBatch, 4, 16, 16}, 100);
  const nn::Tensor batched = model->infer(stacked);
  const index_t in_row = stacked.numel() / kBatch;
  const index_t out_row = batched.numel() / kBatch;
  for (index_t k = 0; k < kBatch; ++k) {
    nn::Tensor input({1, 4, 16, 16});
    std::copy(stacked.data() + k * in_row, stacked.data() + (k + 1) * in_row,
              input.data());
    const nn::Tensor single = model->infer(input);
    ASSERT_EQ(single.numel(), out_row);
    EXPECT_EQ(std::memcmp(single.data(), batched.data() + k * out_row,
                          static_cast<std::size_t>(out_row) * sizeof(float)),
              0)
        << "sample " << k;
  }
}

TEST(Infer, ConcurrentInfersOnSharedModelAgree) {
  const auto model = nn::make_model(small_config(nn::ModelKind::Fno));
  const nn::Tensor x = random_input({1, 4, 16, 16}, 3);
  const nn::Tensor reference = model->infer(x);

  constexpr int kThreads = 4;
  constexpr int kReps = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kReps; ++r) {
        if (!bit_identical(model->infer(x), reference)) ++mismatches[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

TEST(Infer, SequentialStillSupportsTraining) {
  // infer() must not disturb forward/backward state: a forward, an infer,
  // then a backward must behave as if the infer never happened.
  const auto a = nn::make_model(small_config(nn::ModelKind::Fno));
  const auto b = nn::make_model(small_config(nn::ModelKind::Fno));
  const nn::Tensor x = random_input({1, 4, 16, 16}, 9);
  const nn::Tensor g = random_input({1, 2, 16, 16}, 10);

  (void)a->forward(x);
  const nn::Tensor ga = a->backward(g);

  (void)b->forward(x);
  (void)b->infer(random_input({1, 4, 16, 16}, 11));  // interleaved inference
  const nn::Tensor gb = b->backward(g);
  EXPECT_TRUE(bit_identical(ga, gb));
}

}  // namespace
