#include "core/gemm.hpp"

#include <algorithm>
#include <vector>

#include "core/simd_dispatch.hpp"
#include "util/parallel.hpp"

namespace nc::core {

namespace {

// Tile sizes.  Conv GEMMs here are "short and fat" (M = out-channels is
// small, N = output pixels is large), so the column tile must be small
// enough that collapse(2) still yields >= #cores tiles for a single GEMM.
constexpr std::int64_t kMB = 16;
constexpr std::int64_t kNB = 128;

/// Scale (or clear) C by beta.
void apply_beta(std::int64_t m, std::int64_t n, float beta, float* c,
                std::int64_t ldc) {
  if (beta == 1.f) return;
#ifdef _OPENMP
#pragma omp parallel for schedule(static) \
    if (m * n > (1 << 15) && util::may_fork())
#endif
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    if (beta == 0.f) {
      std::fill(ci, ci + n, 0.f);
    } else {
      for (std::int64_t j = 0; j < n; ++j) ci[j] *= beta;
    }
  }
}

/// NN microkernel on one (rows x cols) tile: C += alpha * A * B.
/// i-k-j loop order: the j loop is a contiguous FMA stream the compiler
/// vectorizes; the A element is a scalar broadcast.
inline void tile_nn(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                    std::int64_t j1, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float* c, std::int64_t ldc) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = alpha * ai[kk];
      if (av == 0.f) continue;
      const float* bk = b + kk * ldb;
#ifdef _OPENMP
#pragma omp simd
#endif
      for (std::int64_t j = j0; j < j1; ++j) ci[j] += av * bk[j];
    }
  }
}

/// NT microkernel: C += alpha * A * B^T  (dot products of contiguous rows).
inline void tile_nt(std::int64_t i0, std::int64_t i1, std::int64_t j0,
                    std::int64_t j1, std::int64_t k, float alpha,
                    const float* a, std::int64_t lda, const float* b,
                    std::int64_t ldb, float* c, std::int64_t ldc) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (std::int64_t j = j0; j < j1; ++j) {
      const float* bj = b + j * ldb;
      float acc = 0.f;
#ifdef _OPENMP
#pragma omp simd reduction(+ : acc)
#endif
      for (std::int64_t kk = 0; kk < k; ++kk) acc += ai[kk] * bj[kk];
      ci[j] += alpha * acc;
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc) {
  apply_beta(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.f) return;

  // Transposed-A cases: pack op(A) once (A is always the small conv-weight
  // side in this library, so the pack is cheap) and fall through to NN/NT.
  std::vector<float> packed_a;
  const float* a_eff = a;
  std::int64_t lda_eff = lda;
  if (trans_a) {
    packed_a.resize(static_cast<std::size_t>(m * k));
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* src = a + kk * lda;
      for (std::int64_t i = 0; i < m; ++i) packed_a[i * k + kk] = src[i];
    }
    a_eff = packed_a.data();
    lda_eff = k;
  }

  const std::int64_t n_row_blocks = (m + kMB - 1) / kMB;
  const std::int64_t n_col_blocks = (n + kNB - 1) / kNB;

#ifdef _OPENMP
#pragma omp parallel for collapse(2) schedule(static) \
    if (n_row_blocks * n_col_blocks > 1 && util::may_fork(m * n * k))
#endif
  for (std::int64_t rb = 0; rb < n_row_blocks; ++rb) {
    for (std::int64_t cb = 0; cb < n_col_blocks; ++cb) {
      const std::int64_t i0 = rb * kMB;
      const std::int64_t i1 = std::min(m, i0 + kMB);
      const std::int64_t j0 = cb * kNB;
      const std::int64_t j1 = std::min(n, j0 + kNB);
      if (!trans_b) {
        tile_nn(i0, i1, j0, j1, k, alpha, a_eff, lda_eff, b, ldb, c, ldc);
      } else {
        tile_nt(i0, i1, j0, j1, k, alpha, a_eff, lda_eff, b, ldb, c, ldc);
      }
    }
  }
}

void hgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const util::half* a, std::int64_t lda, const util::half* b,
           const std::int64_t* b_rows, float* c, std::int64_t ldc) {
  if (m <= 0 || n <= 0) return;
  // Register-blocked half-storage tile, runtime-dispatched: it widens B on
  // the fly (VCVTPH2PS), streaming half the bytes of the fp32 kernel — the
  // CPU analogue of the paper's tensor-core half-precision mode — and
  // overwrites its block of C, so C needs no clearing pass.
  const auto tile_hh = simd::kernels().tile_hh;
  if (!util::may_fork(m * n * k)) {
    tile_hh(0, m, 0, n, k, a, lda, b, b_rows, c, ldc);
    return;
  }
  // One column panel per thread, a multiple of the 32-column register
  // block wide; each panel widens the (small) A operand for itself.
  const std::int64_t threads = util::num_threads();
  const std::int64_t width = ((n + threads - 1) / threads + 31) / 32 * 32;
  const std::int64_t panels = (n + width - 1) / width;
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (std::int64_t p = 0; p < panels; ++p) {
    const std::int64_t j0 = p * width;
    tile_hh(0, m, j0, std::min(n, j0 + width), k, a, lda, b, b_rows, c, ldc);
  }
}

void hgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const util::half* a, std::int64_t lda, const util::half* b,
           std::int64_t ldb, float* c, std::int64_t ldc) {
  hgemm(m, n, k, a, lda, b, simd::detail::plain_rows(k, ldb), c, ldc);
}

}  // namespace nc::core
