#include "util/parallel.hpp"

namespace nc::util {

bool may_fork() {
#ifdef _OPENMP
  return omp_get_max_threads() > 1 && !omp_in_parallel();
#else
  return false;
#endif
}

bool may_fork(std::int64_t work) { return work >= kForkMinWork && may_fork(); }

std::int64_t grain_for(std::int64_t work_per_index) {
  const std::int64_t per = work_per_index > 0 ? work_per_index : 1;
  return (kForkMinWork + 2 * per - 1) / (2 * per);
}

}  // namespace nc::util
