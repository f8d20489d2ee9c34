// Global operator new/delete replacements for the benchmark binary only:
// every heap allocation the libraries make through operator new, on any
// thread, bumps one counter while counting is on.  The libraries' own
// PerfCounters count object-pool misses, which is a different figure;
// the benchmark reports both side by side.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "instrument.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() noexcept {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  note_allocation();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  note_allocation();
  void* p = nullptr;
  const auto align = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, align, n == 0 ? 1 : n) == 0) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace perfbench {

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return allocate(n); }
void* operator new[](std::size_t n) { return allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return allocate_aligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
