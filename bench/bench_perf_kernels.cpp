// google-benchmark microbenchmarks for the numerical substrates: the
// complex-symmetric band LDL^T every direct solve runs (double and fp32, plus
// one factorization of the pivoted BandMatrix<cplx> LU reference), FDFD
// assembly (CSR and straight into the band), GEMM, spectral/standard
// convolution (direct reference vs im2col+GEMM), blur, mode solver, and an
// end-to-end NN training step.
#include <benchmark/benchmark.h>

#include "fdfd/assembler.hpp"
#include "fdfd/mode_solver.hpp"
#include "math/banded.hpp"
#include "math/csr.hpp"
#include "math/gemm.hpp"
#include "math/rng.hpp"
#include "nn/layers.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "nn/spectral.hpp"
#include "param/blur.hpp"

using namespace maps;

namespace {

fdfd::FdfdOperator make_op(index_t n) {
  grid::GridSpec spec{n, n, 0.1};
  math::Rng rng(3);
  math::RealGrid eps(n, n);
  for (index_t k = 0; k < eps.size(); ++k) eps[k] = 2.0 + 10.0 * rng.uniform();
  fdfd::PmlSpec pml;
  pml.ncells = static_cast<int>(n / 8);
  return fdfd::assemble(spec, eps, 4.05, pml);
}

/// Eight random right-hand sides for the multi-RHS solve benches.
std::vector<std::vector<cplx>> random_rhs8(index_t n) {
  std::vector<std::vector<cplx>> bs(8);
  math::Rng rng(21);
  for (auto& b : bs) {
    b.resize(static_cast<std::size_t>(n * n));
    for (auto& v : b) v = {rng.uniform(), rng.uniform()};
  }
  return bs;
}

}  // namespace

static void BM_FdfdAssemble(benchmark::State& state) {
  const index_t n = state.range(0);
  grid::GridSpec spec{n, n, 0.1};
  math::RealGrid eps(n, n, 6.0);
  fdfd::PmlSpec pml;
  pml.ncells = static_cast<int>(n / 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fdfd::assemble(spec, eps, 4.05, pml));
  }
}
BENCHMARK(BM_FdfdAssemble)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_FdfdAssembleBanded(benchmark::State& state) {
  // The direct solver's assembly: the lower band of W·A straight into the
  // LDL^T kernel's storage, no CSR.
  const index_t n = state.range(0);
  grid::GridSpec spec{n, n, 0.1};
  math::RealGrid eps(n, n, 6.0);
  fdfd::PmlSpec pml;
  pml.ncells = static_cast<int>(n / 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fdfd::assemble_banded_t<double>(spec, eps, 4.05, pml));
  }
}
BENCHMARK(BM_FdfdAssembleBanded)->Arg(64)->Unit(benchmark::kMillisecond);

static void BM_BandedFactorize(benchmark::State& state) {
  // The production kernel: LDL^T of S = W·A. Each iteration copies the
  // assembled band into the same storage (no allocation or page faults in
  // the timing) and factorizes it.
  const index_t n = state.range(0);
  const auto s = fdfd::symmetric_band_t<double>(make_op(n));
  auto band = s;
  for (auto _ : state) {
    band = s;
    band.factorize();
    benchmark::DoNotOptimize(band);
  }
}
BENCHMARK(BM_BandedFactorize)->Arg(32)->Arg(64)->Arg(96)->Arg(128)
    ->Unit(benchmark::kMillisecond);

static void BM_BandedFactorizeF(benchmark::State& state) {
  // The mixed-precision path's fp32 LDL^T of the same S.
  const index_t n = state.range(0);
  const auto s = fdfd::symmetric_band_t<float>(make_op(n));
  auto band = s;
  for (auto _ : state) {
    band = s;
    band.factorize();
    benchmark::DoNotOptimize(band);
  }
}
BENCHMARK(BM_BandedFactorizeF)->Arg(64)->Unit(benchmark::kMillisecond);

static void BM_BandedFactorizeReference(benchmark::State& state) {
  // Pivoted LU of the same operator on the interleaved BandMatrix<cplx>
  // reference the LDL^T kernel is tested against. This over
  // BM_BandedFactorize is the band_factorize_ldlt_vs_reference CI gate.
  const index_t n = state.range(0);
  const auto ref = math::to_band(make_op(n).A);
  auto band = ref;
  for (auto _ : state) {
    band = ref;
    band.factorize();
    benchmark::DoNotOptimize(band);
  }
}
BENCHMARK(BM_BandedFactorizeReference)->Arg(64)->Unit(benchmark::kMillisecond);

namespace {

math::SymBandLdlt factorized_s(index_t n) {
  auto s = fdfd::symmetric_band_t<double>(make_op(n));
  s.factorize();
  return s;
}

}  // namespace

static void BM_BandedTriangularSolve(benchmark::State& state) {
  const index_t n = state.range(0);
  const auto band = factorized_s(n);
  const std::vector<cplx> b(static_cast<std::size_t>(n * n), cplx{1.0, 0.5});
  for (auto _ : state) {
    std::vector<std::vector<cplx>> x(1, b);
    band.solve_multi_inplace(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_BandedTriangularSolve)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_BandedSolveLoop8(benchmark::State& state) {
  // 8 independent solve passes, each streaming the full band array: the
  // per-RHS path the multi-RHS sweep below replaces.
  const index_t n = state.range(0);
  const auto band = factorized_s(n);
  const auto bs = random_rhs8(n);
  for (auto _ : state) {
    for (const auto& b : bs) {
      std::vector<std::vector<cplx>> x(1, b);
      band.solve_multi_inplace(x);
      benchmark::DoNotOptimize(x);
    }
  }
}
BENCHMARK(BM_BandedSolveLoop8)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_BandedSolveMulti8(benchmark::State& state) {
  // The batched kernel: one sweep over the factors applied to all 8 RHS.
  // BM_BandedSolveLoop8 over this is the band_multi8_vs_loop8 CI gate.
  const index_t n = state.range(0);
  const auto band = factorized_s(n);
  const auto bs = random_rhs8(n);
  for (auto _ : state) {
    auto work = bs;
    band.solve_multi_inplace(work);
    benchmark::DoNotOptimize(work);
  }
}
BENCHMARK(BM_BandedSolveMulti8)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

static void BM_Conv2d(benchmark::State& state) {
  math::Rng rng(7);
  nn::Conv2d conv(12, 12, 3, rng);
  nn::Tensor x({8, 12, 64, 64});
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
  }
}
BENCHMARK(BM_Conv2d)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------ GEMM kernels

static void BM_Sgemm(benchmark::State& state) {
  const index_t n = state.range(0);
  math::Rng rng(11);
  std::vector<float> A(static_cast<std::size_t>(n * n)), B(A.size()), C(A.size());
  for (auto& v : A) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : B) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    math::sgemm(math::Trans::No, math::Trans::No, n, n, n, 1.0f, A.data(), n,
                B.data(), n, 0.0f, C.data(), n);
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(n) * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_Sgemm)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

static void BM_SgemmConvShape(benchmark::State& state) {
  // The exact GEMM the 3x3/32ch/64x64 conv forward lowers onto.
  const index_t M = 32, N = 64 * 64, K = 32 * 9;
  math::Rng rng(13);
  std::vector<float> A(static_cast<std::size_t>(M * K)),
      B(static_cast<std::size_t>(K * N)), C(static_cast<std::size_t>(M * N));
  for (auto& v : A) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : B) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    math::sgemm(math::Trans::No, math::Trans::No, M, N, K, 1.0f, A.data(), K,
                B.data(), N, 0.0f, C.data(), N);
    benchmark::DoNotOptimize(C.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * static_cast<double>(M) * N * K * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_SgemmConvShape)->Unit(benchmark::kMillisecond);

// ------------------------------------- direct vs im2col+GEMM convolution

namespace {

// The seed's direct Conv2d loops (multi-index arithmetic, bounds checks in
// the innermost loop), kept verbatim as the baseline the ROADMAP speedup
// target is measured against.
struct DirectConvRef {
  index_t c_in, c_out, k;
  nn::Tensor w, b;

  DirectConvRef(index_t ci, index_t co, index_t kk, math::Rng& rng)
      : c_in(ci), c_out(co), k(kk), w({co, ci, kk, kk}), b({co}) {
    for (index_t i = 0; i < w.numel(); ++i) {
      w[i] = static_cast<float>(rng.uniform(-0.1, 0.1));
    }
  }

  nn::Tensor forward(const nn::Tensor& x) const {
    const index_t N = x.size(0), H = x.size(2), W = x.size(3), r = k / 2;
    nn::Tensor y({N, c_out, H, W});
    for (index_t n = 0; n < N; ++n) {
      for (index_t co_i = 0; co_i < c_out; ++co_i) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t ww = 0; ww < W; ++ww) {
            float s = b[co_i];
            for (index_t ci = 0; ci < c_in; ++ci) {
              for (index_t kh = 0; kh < k; ++kh) {
                const index_t hh = h + kh - r;
                if (hh < 0 || hh >= H) continue;
                for (index_t kw = 0; kw < k; ++kw) {
                  const index_t wc = ww + kw - r;
                  if (wc < 0 || wc >= W) continue;
                  s += w.at(co_i, ci, kh, kw) * x.at(n, ci, hh, wc);
                }
              }
            }
            y.at(n, co_i, h, ww) = s;
          }
        }
      }
    }
    return y;
  }

  // Weight/bias/input gradients with the seed's loop structure.
  nn::Tensor backward(const nn::Tensor& x, const nn::Tensor& gy, nn::Tensor& dw,
                      nn::Tensor& db) const {
    const index_t N = x.size(0), H = x.size(2), W = x.size(3), r = k / 2;
    for (index_t co_i = 0; co_i < c_out; ++co_i) {
      double s = 0.0;
      for (index_t n = 0; n < N; ++n) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t ww = 0; ww < W; ++ww) s += gy.at(n, co_i, h, ww);
        }
      }
      db[co_i] += static_cast<float>(s);
    }
    for (index_t co_i = 0; co_i < c_out; ++co_i) {
      for (index_t ci = 0; ci < c_in; ++ci) {
        for (index_t kh = 0; kh < k; ++kh) {
          for (index_t kw = 0; kw < k; ++kw) {
            double s = 0.0;
            for (index_t n = 0; n < N; ++n) {
              for (index_t h = 0; h < H; ++h) {
                const index_t hh = h + kh - r;
                if (hh < 0 || hh >= H) continue;
                for (index_t ww = 0; ww < W; ++ww) {
                  const index_t wc = ww + kw - r;
                  if (wc < 0 || wc >= W) continue;
                  s += gy.at(n, co_i, h, ww) * x.at(n, ci, hh, wc);
                }
              }
            }
            dw.at(co_i, ci, kh, kw) += static_cast<float>(s);
          }
        }
      }
    }
    nn::Tensor gx({N, c_in, H, W});
    for (index_t n = 0; n < N; ++n) {
      for (index_t ci = 0; ci < c_in; ++ci) {
        for (index_t h = 0; h < H; ++h) {
          for (index_t ww = 0; ww < W; ++ww) {
            float s = 0.0f;
            for (index_t co_i = 0; co_i < c_out; ++co_i) {
              for (index_t kh = 0; kh < k; ++kh) {
                const index_t ho = h - (kh - r);
                if (ho < 0 || ho >= H) continue;
                for (index_t kw = 0; kw < k; ++kw) {
                  const index_t wo = ww - (kw - r);
                  if (wo < 0 || wo >= W) continue;
                  s += w.at(co_i, ci, kh, kw) * gy.at(n, co_i, ho, wo);
                }
              }
            }
            gx.at(n, ci, h, ww) = s;
          }
        }
      }
    }
    return gx;
  }
};

nn::Tensor conv_bench_input(unsigned seed) {
  math::Rng rng(seed);
  nn::Tensor x({4, 32, 64, 64});
  for (index_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return x;
}

}  // namespace

static void BM_Conv2dDirectFwdBwd(benchmark::State& state) {
  // Baseline: seed direct loops, 3x3 kernel, 32 channels, 64x64 grid.
  math::Rng rng(17);
  DirectConvRef conv(32, 32, 3, rng);
  const nn::Tensor x = conv_bench_input(19);
  const nn::Tensor gy = conv_bench_input(23);
  nn::Tensor dw = nn::Tensor::zeros_like(conv.w), db({32});
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
    benchmark::DoNotOptimize(conv.backward(x, gy, dw, db));
  }
}
BENCHMARK(BM_Conv2dDirectFwdBwd)->Unit(benchmark::kMillisecond);

static void BM_Conv2dGemmFwdBwd(benchmark::State& state) {
  // The im2col+GEMM path on the identical problem.
  math::Rng rng(17);
  nn::Conv2d conv(32, 32, 3, rng);
  const nn::Tensor x = conv_bench_input(19);
  const nn::Tensor gy = conv_bench_input(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
    benchmark::DoNotOptimize(conv.backward(gy));
  }
}
BENCHMARK(BM_Conv2dGemmFwdBwd)->Unit(benchmark::kMillisecond);

// --------------------------------------------------- training-step e2e

static void BM_TrainStep(benchmark::State& state) {
  // One optimizer step of the FNO surrogate on a synthetic batch: forward,
  // NMSE-style gradient, backward, Adam update — the inner loop of
  // MAPS-Train, end to end.
  math::Rng rng(29);
  nn::Fno2d model(4, 2, /*width=*/16, /*modes=*/8, /*depth=*/2, rng);
  nn::Tensor x({4, 4, 32, 32}), target({4, 2, 32, 32});
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  for (index_t i = 0; i < target.numel(); ++i) {
    target[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  nn::Adam adam(model.parameters());
  for (auto _ : state) {
    model.zero_grad();
    nn::Tensor pred = model.forward(x);
    nn::Tensor g = nn::Tensor::zeros_like(pred);
    for (index_t i = 0; i < g.numel(); ++i) g[i] = pred[i] - target[i];
    model.backward(g);
    adam.step();
    benchmark::DoNotOptimize(pred);
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      4.0 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrainStep)->Unit(benchmark::kMillisecond);

static void BM_SpectralConv2d(benchmark::State& state) {
  math::Rng rng(9);
  nn::SpectralConv2d spec(12, 12, 8, 8, rng);
  nn::Tensor x({8, 12, 64, 64});
  for (index_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec.forward(x));
  }
}
BENCHMARK(BM_SpectralConv2d)->Unit(benchmark::kMillisecond);

static void BM_BlurFilter(benchmark::State& state) {
  param::BlurFilter blur(2.0);
  math::RealGrid x(48, 48, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(blur.forward(x));
  }
}
BENCHMARK(BM_BlurFilter)->Unit(benchmark::kMicrosecond);

static void BM_SlabModeSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> eps(n, 2.07);
  for (std::size_t i = n / 2 - n / 10; i < n / 2 + n / 10; ++i) eps[i] = 12.11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fdfd::solve_slab_modes(eps, 0.02, omega_of_wavelength(1.55), 2));
  }
}
BENCHMARK(BM_SlabModeSolve)->Arg(100)->Arg(200)->Unit(benchmark::kMillisecond);
