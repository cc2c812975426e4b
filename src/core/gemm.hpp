/// \file gemm.hpp
/// \brief OpenMP-parallel row-major GEMM kernels.
///
/// Every convolution in this library (forward, backward-data — which is also
/// transposed-convolution forward — and backward-weight) lowers to one of
/// these two routines, mirroring the im2col+GEMM strategy of cuDNN-class
/// GPU libraries.  `sgemm` is the float32 workhorse; `hgemm` is the
/// half-precision-storage inference kernel (binary16 operands, float32
/// accumulation — the same numerics contract as GPU tensor cores, which is
/// why Table 2's accuracy parity reproduces on CPU).
///
/// Parallelization: `sgemm` tiles over (row block, column block) with an
/// OpenMP `collapse(2)` loop, `hgemm` splits the columns into one panel per
/// thread (a lone caller; the conv layers call it from their sample loop,
/// one sample per thread).  Splitting columns matters because conv GEMMs
/// here are "short and fat" (M = out-channels is tiny, N = output pixels is
/// huge); row-only parallelism would idle most cores.  Both fork only when
/// the call has at least `util::kForkMinWork` multiply-adds.
#pragma once

#include <cstdint>

#include "util/half.hpp"

namespace nc::core {

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// op(A) is M x K, op(B) is K x N, C is M x N.
/// lda/ldb/ldc are leading dimensions of the *stored* matrices.
void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// C = A * B with binary16 operands and float32 accumulation (no transposes —
/// the inference path pre-packs weights in the orientation it needs).
/// B row kk is the n halves at b + b_rows[kk]: the in-place conv lowering
/// passes the tap offsets of its zero-haloed volume, whose rows overlap
/// (see `HaloGeom` in core/im2col.hpp).  C is overwritten; B must be finite
/// (see `simd::Kernels::tile_hh`).
void hgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const util::half* a, std::int64_t lda, const util::half* b,
           const std::int64_t* b_rows, float* c, std::int64_t ldc);

/// hgemm of a plain row-major B (row kk at b + kk * ldb).
void hgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const util::half* a, std::int64_t lda, const util::half* b,
           std::int64_t ldb, float* c, std::int64_t ldc);

}  // namespace nc::core
