// Replacement global allocation functions for the benchmark binary only:
// each thread counts its own heap allocations, so the allocations one
// trace makes on its worker thread are an exact, repeatable count.
#include <cstdlib>
#include <new>

#include "layers.h"

namespace {
thread_local std::uint64_t t_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t e2ebench::thread_allocations() noexcept { return t_allocations; }

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
