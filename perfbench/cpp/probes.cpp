// Kernel probe pass: times the search's building blocks through their
// public interfaces on states drawn from a workload's own corpus, so the
// per-call costs can be set against the counts a traced run records.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "parabb/bnb/active_set.hpp"
#include "parabb/bnb/lower_bound.hpp"
#include "parabb/bnb/transposition.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/support/rng.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSampleInstances = 32;
constexpr int kSweeps = 5;       ///< repeated sweeps; the median is reported
constexpr int kInnerRepeats = 20;  ///< passes over all states per sweep

volatile std::int64_t g_sink = 0;  // keeps probed results observable

struct ProbeState {
  const parabb::SchedContext* ctx = nullptr;
  parabb::PartialSchedule ps;
  Time cutoff = 0;  ///< the engine's first prune threshold (EDF incumbent)
};

/// Median over kSweeps of the seconds one call of `sweep` takes.
template <typename F>
double median_sweep_s(F&& sweep) {
  std::vector<double> times;
  for (int r = 0; r < kSweeps; ++r) {
    const double t0 = now_s();
    sweep();
    times.push_back(now_s() - t0);
  }
  return percentile(times, 50);
}

double lb_eval_ns(const std::vector<ProbeState>& states,
                  parabb::LowerBound kind, std::size_t children) {
  const double s = median_sweep_s([&] {
    std::int64_t acc = 0;
    for (int rep = 0; rep < kInnerRepeats; ++rep) {
      for (const ProbeState& st : states) {
        parabb::IncrementalLB inc(*st.ctx);
        parabb::PartialSchedule cur = st.ps;
        inc.attach(cur);
        const bool goal = cur.count() + 1 == st.ctx->task_count();
        for (const parabb::TaskId t : cur.ready()) {
          for (parabb::ProcId p = 0; p < st.ctx->proc_count(); ++p) {
            inc.place(cur, t, p);
            acc += inc.evaluate(cur, kind, goal ? parabb::kTimeInf : st.cutoff);
            inc.unplace(cur, t);
          }
        }
      }
    }
    g_sink = g_sink + acc;
  });
  return s * 1e9 / static_cast<double>(children * kInnerRepeats);
}

double push_pop_ns(parabb::SelectRule rule, const std::vector<Time>& lbs,
                   std::size_t live) {
  constexpr std::size_t kOps = 100'000;
  const double s = median_sweep_s([&] {
    parabb::ActiveSet as(rule, [](parabb::SlotRef) {});
    std::uint32_t seq = 0;
    for (std::size_t i = 0; i < live; ++i) {
      as.push({lbs[i % lbs.size()], seq++, {}});
    }
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      as.push({lbs[(live + i) % lbs.size()], seq++, {}});
      acc += as.pop().lb;
    }
    g_sink = g_sink + acc;
  });
  // The prefill is a small share of the sweep; it is counted as pairs too.
  return s * 1e9 / static_cast<double>(kOps + live / 2);
}

}  // namespace

ProbeCosts run_probes(const std::vector<Instance>& corpus, std::uint64_t seed) {
  ProbeCosts out;
  const std::size_t k = std::min(kSampleInstances, corpus.size());
  parabb::Rng rng(parabb::derive_seed(seed, 0x70726f6265));
  std::vector<std::unique_ptr<parabb::SchedContext>> ctxs;
  std::vector<ProbeState> states;
  std::vector<double> ctx_us, edf_us;
  for (std::size_t j = 0; j < k; ++j) {
    const Instance& inst = corpus[j * corpus.size() / k];
    double t0 = now_s();
    for (int r = 0; r < kSweeps; ++r) {
      const parabb::SchedContext c(inst.graph, inst.machine);
      g_sink = g_sink + c.task_count();
    }
    ctx_us.push_back((now_s() - t0) * 1e6 / kSweeps);
    ctxs.push_back(
        std::make_unique<parabb::SchedContext>(inst.graph, inst.machine));
    const parabb::SchedContext& ctx = *ctxs.back();
    t0 = now_s();
    Time edf = 0;
    for (int r = 0; r < kSweeps; ++r) edf = parabb::schedule_edf(ctx).max_lateness;
    edf_us.push_back((now_s() - t0) * 1e6 / kSweeps);

    // A random walk from the empty schedule: one state per depth.
    parabb::PartialSchedule ps = parabb::PartialSchedule::empty(ctx);
    while (!ps.complete(ctx)) {
      states.push_back({&ctx, ps, parabb::prune_threshold(edf, 0.0)});
      std::vector<parabb::TaskId> ready;
      for (const parabb::TaskId t : ps.ready()) ready.push_back(t);
      const auto t = ready[rng.index(ready.size())];
      const auto p = static_cast<parabb::ProcId>(
          rng.index(static_cast<std::size_t>(ctx.proc_count())));
      ps.place(ctx, t, p);
    }
  }
  out.context_us_p50 = percentile(ctx_us, 50);
  out.edf_us_p50 = percentile(edf_us, 50);

  // Children of every sampled state, materialized for the table probe, and
  // their LB1 values as frontier keys.
  std::vector<parabb::PartialSchedule> children;
  std::vector<Time> lbs;
  for (const ProbeState& st : states) {
    parabb::PartialSchedule cur = st.ps;
    for (const parabb::TaskId t : st.ps.ready()) {
      for (parabb::ProcId p = 0; p < st.ctx->proc_count(); ++p) {
        cur.place(*st.ctx, t, p);
        children.push_back(cur);
        lbs.push_back(parabb::lower_bound_cost(*st.ctx, cur,
                                               parabb::LowerBound::kLB1));
        cur.unplace(*st.ctx, t);
      }
    }
  }

  const double place_s = median_sweep_s([&] {
    std::int64_t acc = 0;
    for (int rep = 0; rep < kInnerRepeats; ++rep) {
      for (const ProbeState& st : states) {
        parabb::PartialSchedule cur = st.ps;
        for (const parabb::TaskId t : cur.ready()) {
          for (parabb::ProcId p = 0; p < st.ctx->proc_count(); ++p) {
            acc += cur.place(*st.ctx, t, p);
            cur.unplace(*st.ctx, t);
          }
        }
      }
    }
    g_sink = g_sink + acc;
  });
  out.place_unplace_ns =
      place_s * 1e9 / static_cast<double>(children.size() * kInnerRepeats);
  out.lb1_eval_ns = lb_eval_ns(states, parabb::LowerBound::kLB1, children.size());
  out.lb2_eval_ns = lb_eval_ns(states, parabb::LowerBound::kLB2, children.size());
  out.lifo_push_pop_ns = push_pop_ns(parabb::SelectRule::kLIFO, lbs, 32);
  out.llb_push_pop_ns = push_pop_ns(parabb::SelectRule::kLLB, lbs, 4096);

  parabb::TranspositionConfig tt_cfg;
  tt_cfg.enabled = true;
  std::vector<double> create_us, probe_ns;
  for (int r = 0; r < kSweeps; ++r) {
    const double t0 = now_s();
    auto table = std::make_unique<parabb::TranspositionTable>(tt_cfg);
    const double t1 = now_s();
    // First round inserts, second round finds every state again.
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < children.size(); ++i) {
        g_sink = g_sink + table->seen_or_insert(children[i], lbs[i]);
      }
    }
    const double t2 = now_s();
    create_us.push_back((t1 - t0) * 1e6);
    probe_ns.push_back((t2 - t1) * 1e9 /
                       static_cast<double>(2 * children.size()));
  }
  out.tt_create_us = percentile(create_us, 50);
  out.tt_probe_ns = percentile(probe_ns, 50);
  return out;
}

void report_probes(const ProbeCosts& c, Report& report) {
  const std::string base = "probe, median of " + std::to_string(kSweeps);
  report.add("sched.context_probe_us_p50", c.context_us_p50, "us", base);
  report.add("sched.edf_us_p50", c.edf_us_p50, "us", base);
  report.add("sched.place_unplace_ns", c.place_unplace_ns, "ns", base);
  report.add("bnb.lb1_eval_ns", c.lb1_eval_ns, "ns", base);
  report.add("bnb.lb2_eval_ns", c.lb2_eval_ns, "ns", base);
  report.add("bnb.lifo_push_pop_ns", c.lifo_push_pop_ns, "ns",
             base + ", 32 live");
  report.add("bnb.llb_push_pop_ns", c.llb_push_pop_ns, "ns",
             base + ", 4096 live");
  report.add("bnb.tt_probe_ns", c.tt_probe_ns, "ns", base);
  report.add("bnb.tt_create_us", c.tt_create_us, "us",
             base + ", default 16 MiB table");
}

}  // namespace perfbench
