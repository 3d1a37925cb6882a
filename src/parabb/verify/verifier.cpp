#include "parabb/verify/verifier.hpp"

#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "parabb/sched/context.hpp"
#include "parabb/sched/partial_schedule.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/verify/reference_lb.hpp"

namespace parabb {

namespace {

/// The BR-relaxed prune threshold, reimplemented locally so the verifier
/// does not link the engine's prune_threshold. Mirrors the documented
/// contract (engine.hpp): cuts require lb >= incumbent - floor(br*|inc|).
Time verify_threshold(Time incumbent, double br) {
  if (incumbent >= kTimeInf) return kTimeInf;
  if (br <= 0.0) return incumbent;
  const auto margin = static_cast<Time>(
      std::floor(br * std::abs(static_cast<double>(incumbent))));
  return incumbent - margin;
}

/// Reference-LB kind a cut rule claims to have used (-1 for hook rules).
int rule_kind(CutRule rule) {
  switch (rule) {
    case CutRule::kLB0: return 0;
    case CutRule::kLB1: return 1;
    case CutRule::kLB2: return 2;
    case CutRule::kPackingSuffix: return 2;
    case CutRule::kTransposition:
    case CutRule::kCharacteristic: return -1;
  }
  return -1;
}

/// Replays a cut record's placement path through the scheduling operation.
/// Fails when a placement is out of range, not ready at its turn, starts
/// at a different time than the operation assigns, or the final state's
/// fingerprint disagrees with the recorded one.
bool rebuild_state(const SchedContext& ctx, const CutRecord& rec,
                   PartialSchedule& out, std::string& err) {
  out = PartialSchedule::empty(ctx);
  for (const CutPlacement& pl : rec.path) {
    if (pl.task < 0 || pl.task >= ctx.task_count()) {
      err = "cut path names task " + std::to_string(pl.task) +
            " outside the graph";
      return false;
    }
    if (pl.proc < 0 || pl.proc >= ctx.proc_count()) {
      err = "cut path places on processor " + std::to_string(pl.proc) +
            " outside the machine";
      return false;
    }
    if (!out.ready().contains(pl.task)) {
      err = "cut path places task " + std::to_string(pl.task) +
            " before its predecessors";
      return false;
    }
    const Time start =
        static_cast<Time>(out.place(ctx, pl.task, pl.proc));
    if (start != pl.start) {
      err = "cut path records start " + std::to_string(pl.start) +
            " for task " + std::to_string(pl.task) +
            " but the scheduling operation assigns " +
            std::to_string(start);
      return false;
    }
  }
  if (out.fingerprint() != rec.fingerprint) {
    err = "cut state fingerprint mismatch";
    return false;
  }
  return true;
}

/// Layer 2: audits one record. Returns false with `err` set on rejection;
/// sets `is_hook` for characteristic records (counted, not
/// verifiable from the log alone — the optimality replay covers them).
bool audit_cut(const TaskGraph& graph, const SchedContext& ctx,
               const Certificate& cert, const CutRecord& rec, Time threshold,
               bool& is_hook, std::string& err) {
  is_hook = false;
  PartialSchedule state;
  if (!rebuild_state(ctx, rec, state, err)) return false;

  const int kind = rule_kind(rec.rule);
  if (kind >= 0) {
    if (kind > cert.lb_kind) {
      err = "cut claims " + to_string(rec.rule) +
            " but the run was configured with lb" +
            std::to_string(cert.lb_kind);
      return false;
    }
    const Time ref = reference_lower_bound(graph, ctx, state, kind);
    if (rec.claimed_bound > ref) {
      err = "claimed bound " + std::to_string(rec.claimed_bound) +
            " exceeds the reference " + to_string(rec.rule) + " bound " +
            std::to_string(ref);
      return false;
    }
    if (rec.claimed_bound < threshold) {
      err = "claimed bound " + std::to_string(rec.claimed_bound) +
            " does not dominate the incumbent (threshold " +
            std::to_string(threshold) + ")";
      return false;
    }
    if (rec.rule == CutRule::kPackingSuffix &&
        reference_packing_bound(graph, ctx, state) < threshold) {
      err = "packing-suffix cut whose packing term does not dominate "
            "the incumbent";
      return false;
    }
    return true;
  }

  if (rec.rule == CutRule::kTransposition) {
    // A duplicate cut is sound because the subtree entered the search
    // elsewhere; only honesty of the recorded bound is checkable here.
    const Time ref = reference_lower_bound(graph, ctx, state, cert.lb_kind);
    if (rec.claimed_bound > ref) {
      err = "transposition cut claims bound " +
            std::to_string(rec.claimed_bound) +
            " above the reference bound " + std::to_string(ref);
      return false;
    }
    return true;
  }

  is_hook = true;  // characteristic
  return true;
}

}  // namespace

std::string VerifyReport::summary() const {
  std::string s = certified ? "CERTIFIED" : "NOT CERTIFIED";
  s += ": incumbent " + std::string(incumbent_valid ? "valid" : "INVALID");
  s += ", cost " + std::string(cost_matches ? "exact" : "MISMATCH");
  s += ", cuts " + std::to_string(cuts_checked) + " audited / " +
       std::to_string(cuts_rejected) + " rejected (" +
       std::to_string(hook_cuts) + " hook)";
  s += ", replay " + std::to_string(replayed) + " expanded / " +
       std::to_string(replay_pruned) + " pruned / " +
       std::to_string(replay_deduped) + " duplicate, " +
       std::to_string(goals_seen) + " goals";
  if (exhausted) s += " [replay budget exhausted]";
  if (!error.empty()) s += "\n  first failure: " + error;
  return s;
}

VerifyReport verify_certificate(const TaskGraph& graph,
                                const Machine& machine,
                                const Certificate& cert,
                                const VerifyOptions& options) {
  VerifyReport report;
  if (!cert.found) {
    report.error = "certificate carries no incumbent schedule";
    return report;
  }
  if (cert.task_count != graph.task_count() ||
      cert.procs != machine.procs) {
    report.error = "certificate is for a different instance (" +
                   std::to_string(cert.task_count) + " tasks, " +
                   std::to_string(cert.procs) + " processors)";
    return report;
  }

  const SchedContext ctx(graph, machine);
  const Time threshold = verify_threshold(cert.cost, cert.br);

  // Layer 1: the incumbent itself.
  const ValidationReport vr =
      validate_schedule(cert.incumbent, graph, machine);
  report.incumbent_valid = vr.structurally_sound;
  if (!report.incumbent_valid) {
    report.error = "incumbent rejected by the validator: " + vr.error;
  }
  const Time actual = max_lateness(cert.incumbent, graph);
  report.cost_matches = actual == cert.cost;
  if (report.incumbent_valid && !report.cost_matches) {
    report.error = "claimed cost " + std::to_string(cert.cost) +
                   " but the incumbent's maximum lateness is " +
                   std::to_string(actual);
  }

  // Layer 2: the pruning audit log.
  report.cuts_sound = true;
  for (const CutRecord& rec : cert.cuts) {
    ++report.cuts_checked;
    bool is_hook = false;
    std::string err;
    if (!audit_cut(graph, ctx, cert, rec, threshold, is_hook, err)) {
      ++report.cuts_rejected;
      report.cuts_sound = false;
      if (report.error.empty()) {
        report.error = "cut " + std::to_string(report.cuts_checked - 1) +
                       " (" + to_string(rec.rule) + ") rejected: " + err;
      }
    }
    if (is_hook) ++report.hook_cuts;
  }

  // Layer 3: independent optimality replay. Exhaustive DFS with the
  // reference LB and local duplicate detection; any complete schedule
  // cheaper than the threshold refutes the certificate.
  bool refuted = false;
  if (!options.audit_only) {
    std::vector<PartialSchedule> stack;
    std::unordered_map<std::uint64_t, std::vector<PartialSchedule>> seen;
    const PartialSchedule root = PartialSchedule::empty(ctx);
    if (reference_lower_bound(graph, ctx, root, cert.lb_kind) < threshold) {
      stack.push_back(root);
      seen[root.fingerprint()].push_back(root);
    } else {
      ++report.replay_pruned;
    }
    while (!stack.empty() && !refuted) {
      if (report.replayed >= options.max_replayed) {
        report.exhausted = true;
        break;
      }
      const PartialSchedule state = stack.back();
      stack.pop_back();
      ++report.replayed;
      for (const TaskId t : state.ready()) {
        for (ProcId p = 0; p < ctx.proc_count() && !refuted; ++p) {
          PartialSchedule child = state;
          child.place(ctx, t, p);
          if (child.complete(ctx)) {
            ++report.goals_seen;
            const Time cost = reference_exact_cost(graph, ctx, child);
            if (cost < threshold) {
              refuted = true;
              report.error = "replay found a schedule with lateness " +
                             std::to_string(cost) +
                             ", below the certified threshold " +
                             std::to_string(threshold);
            }
            continue;
          }
          if (reference_lower_bound(graph, ctx, child, cert.lb_kind) >=
              threshold) {
            ++report.replay_pruned;
            continue;
          }
          auto& bucket = seen[child.fingerprint()];
          bool duplicate = false;
          for (const PartialSchedule& prev : bucket) {
            if (prev == child) {
              duplicate = true;
              break;
            }
          }
          if (duplicate) {
            ++report.replay_deduped;
            continue;
          }
          bucket.push_back(child);
          stack.push_back(child);
        }
        if (refuted) break;
      }
    }
    report.optimal_confirmed = !refuted && !report.exhausted;
  }

  report.certified = report.incumbent_valid && report.cost_matches &&
                     report.cuts_sound && report.optimal_confirmed;
  return report;
}

}  // namespace parabb
