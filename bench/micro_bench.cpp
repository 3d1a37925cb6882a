// Hot-path micro-benchmarks (google-benchmark).
//
// Covers the operations whose per-call cost bounds B&B throughput: the
// scheduling operation (placement), the lower-bound evaluations, the
// active-set disciplines, the vertex pool and its state encoding, plus
// end-to-end baselines and the per-solve fixed cost of building a
// SchedContext.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/vertex.hpp"
#include "parabb/deadline/slicing.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/support/pool.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

TaskGraph bench_graph(std::uint64_t seed) {
  GeneratedGraph g = generate_graph(paper_config(), seed);
  assign_deadlines_slicing(g.graph);
  return std::move(g.graph);
}

void BM_Placement(benchmark::State& state) {
  const TaskGraph g = bench_graph(1);
  const SchedContext ctx(g, make_shared_bus_machine(4));
  const PartialSchedule empty = PartialSchedule::empty(ctx);
  for (auto _ : state) {
    PartialSchedule ps = empty;
    while (!ps.complete(ctx)) {
      ps.place(ctx, *ps.ready().begin(),
               static_cast<ProcId>(ps.count() & 3));
    }
    benchmark::DoNotOptimize(ps);
  }
  state.SetItemsProcessed(state.iterations() * g.task_count());
}
BENCHMARK(BM_Placement);

template <LowerBound kBound>
void BM_LowerBound(benchmark::State& state) {
  const TaskGraph g = bench_graph(2);
  const SchedContext ctx(g, make_shared_bus_machine(4));
  PartialSchedule ps = PartialSchedule::empty(ctx);
  // Half-scheduled state: the typical vertex.
  for (int i = 0; i < ctx.task_count() / 2; ++i) {
    ps.place(ctx, *ps.ready().begin(), static_cast<ProcId>(i & 3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lower_bound_cost(ctx, ps, kBound));
  }
}
BENCHMARK(BM_LowerBound<LowerBound::kLB0>)->Name("BM_LowerBound_LB0");
BENCHMARK(BM_LowerBound<LowerBound::kLB1>)->Name("BM_LowerBound_LB1");
BENCHMARK(BM_LowerBound<LowerBound::kLB2>)->Name("BM_LowerBound_LB2");

// The per-solve fixed cost every solve pays before its search: building
// the context of a §4.1 graph with n tasks (the argument) on 4 processors.
void BM_SchedContext(benchmark::State& state) {
  GeneratorConfig wl = paper_config();
  wl.n_min = wl.n_max = static_cast<int>(state.range(0));
  GeneratedGraph gen = generate_graph(wl, 11);
  assign_deadlines_slicing(gen.graph);
  const Machine machine = make_shared_bus_machine(4);
  for (auto _ : state) {
    const SchedContext ctx(gen.graph, machine);
    benchmark::DoNotOptimize(&ctx);
  }
}
BENCHMARK(BM_SchedContext)->Arg(12)->Arg(16);

void BM_EdfSchedule(benchmark::State& state) {
  const TaskGraph g = bench_graph(3);
  const SchedContext ctx(g, make_shared_bus_machine(
                                static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(schedule_edf(ctx));
  }
}
BENCHMARK(BM_EdfSchedule)->Arg(2)->Arg(4);

void BM_Generate(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_graph(paper_config(), ++seed));
  }
}
BENCHMARK(BM_Generate);

void BM_Slicing(benchmark::State& state) {
  GeneratedGraph gen = generate_graph(paper_config(), 5);
  for (auto _ : state) {
    TaskGraph g = gen.graph;
    benchmark::DoNotOptimize(assign_deadlines_slicing(g));
  }
}
BENCHMARK(BM_Slicing);

void BM_ActiveSetPushPop(benchmark::State& state) {
  const auto rule = static_cast<SelectRule>(state.range(0));
  for (auto _ : state) {
    ActiveSet as(rule, [](SlotRef) {});
    for (std::uint32_t i = 0; i < 1024; ++i) {
      as.push(VertexEntry{static_cast<Time>((i * 7919) % 257), i,
                          SlotRef{i, 0}});
    }
    while (!as.empty()) benchmark::DoNotOptimize(as.pop());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ActiveSetPushPop)
    ->Arg(static_cast<int>(SelectRule::kLIFO))
    ->Arg(static_cast<int>(SelectRule::kFIFO))
    ->Arg(static_cast<int>(SelectRule::kLLB));

// Shaped like solve_llb's frontier: about 2^17 entries live, bounds on a
// plateau a few hundred values wide, and three children pushed per pop,
// each at or above its parent's bound. One iteration builds the frontier
// and runs 2^15 expansions on it; items are pushes plus pops.
void BM_ActiveSetFrontier(benchmark::State& state) {
  const auto rule = static_cast<SelectRule>(state.range(0));
  constexpr std::uint32_t kLive = 1u << 17;
  constexpr std::uint32_t kExpansions = 1u << 15;
  constexpr int kChildren = 3;
  std::vector<Time> prefill(kLive);
  std::vector<Time> deltas(kExpansions * kChildren);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (Time& lb : prefill) lb = static_cast<Time>(next() % 300);
  for (Time& d : deltas) d = static_cast<Time>(next() % 4);
  for (auto _ : state) {
    ActiveSet as(rule, [](SlotRef) {});
    std::uint32_t seq = 0;
    for (const Time lb : prefill) {
      as.push(VertexEntry{lb, seq, SlotRef{seq, 0}});
      ++seq;
    }
    std::size_t d = 0;
    for (std::uint32_t i = 0; i < kExpansions; ++i) {
      const VertexEntry parent = as.pop();
      for (int c = 0; c < kChildren; ++c) {
        as.push(VertexEntry{parent.lb + deltas[d++], seq, SlotRef{seq, 0}});
        ++seq;
      }
    }
    benchmark::DoNotOptimize(as.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          (kLive + kExpansions * (kChildren + 1)));
}
BENCHMARK(BM_ActiveSetFrontier)
    ->Arg(static_cast<int>(SelectRule::kLIFO))
    ->Arg(static_cast<int>(SelectRule::kLLB))
    ->Unit(benchmark::kMillisecond);

void BM_SlotPoolChurn(benchmark::State& state) {
  SlotPool pool(256);
  for (auto _ : state) {
    SlotRef refs[64];
    for (auto& r : refs) r = pool.allocate();
    for (auto& r : refs) pool.release(r);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SlotPoolChurn);

/// A state of `ctx` with half its tasks placed: the typical stored vertex.
PartialSchedule half_scheduled(const SchedContext& ctx) {
  PartialSchedule ps = PartialSchedule::empty(ctx);
  for (int i = 0; i < ctx.task_count() / 2; ++i) {
    ps.place(ctx, *ps.ready().begin(),
             static_cast<ProcId>(i % ctx.proc_count()));
  }
  return ps;
}

constexpr std::size_t kVertexSlots = 64;

// What storing one vertex cost solve_bnb before states were packed: its
// 272-byte slot held the whole state, copied in when the child was kept
// and back into the scratch state when it was popped.
void BM_VertexCopy(benchmark::State& state) {
  struct WholeVertex {
    PartialSchedule state;
    Time lb;
    std::uint32_t seq;
  };
  static_assert(sizeof(WholeVertex) == 272);
  const TaskGraph g = bench_graph(2);
  const SchedContext ctx(g, make_shared_bus_machine(4));
  PartialSchedule cur = half_scheduled(ctx);
  std::vector<WholeVertex> slots(kVertexSlots);
  std::size_t i = 0;
  for (auto _ : state) {
    WholeVertex& slot = slots[i++ % kVertexSlots];
    slot.state = cur;
    benchmark::ClobberMemory();
    cur = slot.state;
    benchmark::DoNotOptimize(cur);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VertexCopy);

// The same round trip through today's vertex_bytes(ctx) slots and
// PartialSchedule::pack()/unpack(), for n tasks on m processors: the
// compact layout at (16, 4), the whole-object layout at (32, 8).
void BM_VertexPackUnpack(benchmark::State& state) {
  GeneratorConfig wl = paper_config();
  wl.n_min = wl.n_max = static_cast<int>(state.range(0));
  GeneratedGraph gen = generate_graph(wl, 2);
  assign_deadlines_slicing(gen.graph);
  const SchedContext ctx(
      gen.graph, make_shared_bus_machine(static_cast<int>(state.range(1))));
  PartialSchedule cur = half_scheduled(ctx);
  const std::size_t bytes = vertex_bytes(ctx);
  std::vector<std::byte> slots(kVertexSlots * bytes);
  std::size_t i = 0;
  for (auto _ : state) {
    auto* slot = reinterpret_cast<Vertex*>(slots.data() +
                                           (i++ % kVertexSlots) * bytes);
    cur.pack(ctx, slot->state());
    benchmark::ClobberMemory();
    cur.unpack(ctx, slot->state());
    benchmark::DoNotOptimize(cur);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VertexPackUnpack)->Args({16, 4})->Args({32, 8});

void BM_SolveTight(benchmark::State& state) {
  // Small nontrivial end-to-end search.
  GeneratorConfig wl = paper_config();
  wl.n_min = wl.n_max = 12;
  wl.depth_min = wl.depth_max = 8;
  GeneratedGraph gen = generate_graph(wl, 7);
  SlicingConfig tight;
  tight.base = LaxityBase::kPathWork;
  tight.laxity = 1.1;
  assign_deadlines_slicing(gen.graph, tight);
  const SchedContext ctx(gen.graph, make_shared_bus_machine(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_bnb(ctx, Params{}));
  }
}
BENCHMARK(BM_SolveTight)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parabb
