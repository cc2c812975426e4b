/// \file parallel.hpp
/// \brief Thin OpenMP wrappers so the rest of the library stays readable and
///        compiles (serially) without OpenMP.
///
/// The team width is OpenMP's per-thread `nthreads-var`, and every fork
/// site in the library asks `may_fork()` before opening a team.
/// `StreamPipeline` workers set their own width before every batch (see
/// stream_pipeline.hpp); other callers keep the width they started with.
#pragma once

#include <cstdint>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace nc::util {

/// OpenMP team width of the calling thread (1 without OpenMP).
inline int num_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Set the calling thread's OpenMP team width (no-op without OpenMP).  The
/// setting is per thread: it reaches teams this thread forks, and the
/// budget of pipelines this thread constructs, not other threads.
inline void set_num_threads(int n) {
#ifdef _OPENMP
  if (n > 0) omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// Index of the calling thread inside a parallel region.
inline int thread_index() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// True iff the calling thread may open an OpenMP team: its team width is
/// above 1 and it is not already inside a team.  Every fork site in
/// src/core and src/metrics tests this (always false without OpenMP).
/// Defined out of line so that the copy every caller links is compiled
/// without the SIMD translation units' target flags.
bool may_fork();

/// Least work, in multiply-adds or element copies, that a fork site must
/// have before it opens a team.  Waking and joining a team costs from a few
/// to tens of microseconds, more than a smaller loop saves by splitting.
inline constexpr std::int64_t kForkMinWork = std::int64_t{1} << 20;

/// may_fork() for a site about to do `work` multiply-adds or element copies.
/// Out of line for the same reason as may_fork().
bool may_fork(std::int64_t work);

/// A parallel_for grain for a loop whose indices each do `work_per_index`
/// multiply-adds or element copies: the loop forks only when its whole work
/// reaches kForkMinWork.
std::int64_t grain_for(std::int64_t work_per_index);

/// parallel_for over [begin, end) with a body taking the index.
/// `grain` suppresses parallelism for small trip counts where the fork/join
/// overhead would dominate (important for the tiny BCAE-HT layers).
template <typename F>
void parallel_for(std::int64_t begin, std::int64_t end, F&& body,
                  std::int64_t grain = 1) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
#ifdef _OPENMP
  if (n >= grain * 2 && may_fork()) {
#pragma omp parallel for schedule(static)
    for (std::int64_t i = begin; i < end; ++i) body(i);
    return;
  }
#else
  (void)grain;
#endif
  for (std::int64_t i = begin; i < end; ++i) body(i);
}

}  // namespace nc::util
