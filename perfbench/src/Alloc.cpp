//===- perfbench/src/Alloc.cpp - Allocation counting for the traced run ---===//
///
/// \file
/// Replaces the global operator new/delete of the benchmark binary so the
/// traced run can count heap allocations per layer call (glr.allocs_per_
/// token). Counting is off unless CountAllocs is set; the untraced run pays
/// one thread-local load per allocation. The standard library's array, nothrow
/// and sized forms forward to these two, so replacing them is enough.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdlib>
#include <new>

namespace pb {

thread_local bool CountAllocs = false;

namespace {
thread_local uint64_t ThreadAllocs = 0;
} // namespace

uint64_t threadAllocs() { return ThreadAllocs; }

} // namespace pb

void *operator new(std::size_t N) {
  if (pb::CountAllocs)
    ++pb::ThreadAllocs;
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }

void operator delete(void *P, std::size_t) noexcept { std::free(P); }
