/// \file aligned.hpp
/// \brief A std::vector whose data starts on a 64-byte boundary.
///
/// The default allocator aligns to 16 bytes, so a 64-byte vector access to a
/// plain std::vector<float> straddles two cache lines whenever its offset is
/// not a multiple of 64.  Kernels that stream fixed-width rows (the sparse
/// conv scatter's accumulator and weight slabs) keep their buffers in an
/// `AlignedVector`: when the row width is a multiple of 16 floats (or of 8),
/// every 16-float vector (or 8-float half) of every row sits in one line.
/// Alignment is a speed property only: every kernel still accepts any
/// alignment.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace nc::util {

/// Bytes of the alignment `AlignedAllocator` guarantees: one cache line, one
/// 512-bit vector.
inline constexpr std::size_t kCacheLine = 64;

/// Minimal allocator returning kCacheLine-aligned storage from the aligned
/// forms of operator new and delete.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T),
                                          std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace nc::util
