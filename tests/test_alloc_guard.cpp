// Allocation guard: counts the heap allocations of the per-solve fixed
// costs through a replaced global operator new.
//
// Building a SchedContext must allocate nothing, and a root-only
// solve_bnb (max_generated = 1) at most 6 times per solve on the effort
// ledger's corpus, the count measured before the context's tables moved
// into fixed arrays. The counts are taken on one thread after a warm-up
// solve, so the thread's pool-chunk recycler already holds the chunk
// every solve takes.
//
// A sanitizer brings its own allocator, so under ASan or TSan the
// operators are not replaced: the builds and solves still run, and only
// the counts are skipped.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "test_util.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PARABB_COUNTS_ALLOCATIONS 0
#else
#define PARABB_COUNTS_ALLOCATIONS 1
#endif

namespace {

std::atomic<std::uint64_t> allocations{0};

}  // namespace

#if PARABB_COUNTS_ALLOCATIONS

namespace {

void* counted_alloc(std::size_t bytes, std::size_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(bytes)
                : std::aligned_alloc(align, (bytes + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
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

#endif

namespace parabb {
namespace {

/// Heap allocations made by `f`.
template <typename F>
std::uint64_t allocations_of(F&& f) {
  const std::uint64_t before = allocations.load();
  f();
  return allocations.load() - before;
}

TEST(AllocationGuard, BuildingASchedContextAllocatesNothing) {
  std::vector<Machine> machines;
  for (int procs = 1; procs <= 4; ++procs) {
    machines.push_back(make_shared_bus_machine(procs));
  }
  machines.push_back(make_network_machine(NetworkTopology::ring(4)));
  for (const test::LedgerInstance& inst : test::ledger_corpus()) {
    for (const Machine& machine : machines) {
      int tasks = 0;
      const std::uint64_t count = allocations_of([&] {
        const SchedContext ctx(inst.graph, machine);
        tasks = ctx.task_count();
      });
      if (PARABB_COUNTS_ALLOCATIONS) {
        EXPECT_EQ(count, 0u) << inst.name << " on " << machine.describe();
      }
      EXPECT_EQ(tasks, inst.graph.task_count());
    }
  }
  if (!PARABB_COUNTS_ALLOCATIONS) {
    GTEST_SKIP() << "a sanitizer owns operator new in this build";
  }
}

TEST(AllocationGuard, RootOnlySolveAllocatesNoMoreThanBefore) {
  Params params;
  params.rb.max_generated = 1;
  const std::vector<test::LedgerInstance> corpus = test::ledger_corpus();
  {
    const SchedContext warm(corpus.front().graph,
                            make_shared_bus_machine(corpus.front().procs));
    (void)solve_bnb(warm, params);
  }
  for (const test::LedgerInstance& inst : corpus) {
    const SchedContext ctx(inst.graph, make_shared_bus_machine(inst.procs));
    SearchResult r;
    const std::uint64_t count =
        allocations_of([&] { r = solve_bnb(ctx, params); });
    EXPECT_TRUE(r.found_solution) << inst.name;
    if (PARABB_COUNTS_ALLOCATIONS) {
      EXPECT_LE(count, 6u) << inst.name;
    }
  }
  if (!PARABB_COUNTS_ALLOCATIONS) {
    GTEST_SKIP() << "a sanitizer owns operator new in this build";
  }
}

}  // namespace
}  // namespace parabb
