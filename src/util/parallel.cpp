#include "util/parallel.hpp"

namespace nc::util {

bool may_fork() {
#ifdef _OPENMP
  return omp_get_max_threads() > 1 && !omp_in_parallel();
#else
  return false;
#endif
}

}  // namespace nc::util
