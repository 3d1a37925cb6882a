#include "parabb/verify/certificate.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace parabb {

std::string to_string(CutRule r) {
  switch (r) {
    case CutRule::kLB0: return "lb0";
    case CutRule::kLB1: return "lb1";
    case CutRule::kLB2: return "lb2";
    case CutRule::kPackingSuffix: return "packing";
    case CutRule::kTransposition: return "transposition";
    case CutRule::kCharacteristic: return "characteristic";
  }
  return "?";
}

CutRule cut_rule_from_string(const std::string& s) {
  if (s == "lb0") return CutRule::kLB0;
  if (s == "lb1") return CutRule::kLB1;
  if (s == "lb2") return CutRule::kLB2;
  if (s == "packing") return CutRule::kPackingSuffix;
  if (s == "transposition") return CutRule::kTransposition;
  if (s == "characteristic") return CutRule::kCharacteristic;
  throw std::runtime_error("unknown cut rule: " + s);
}

std::vector<CutPlacement> placement_path(const SchedContext& ctx,
                                         const PartialSchedule& state) {
  std::vector<CutPlacement> path;
  path.reserve(static_cast<std::size_t>(state.count()));
  for (const TaskId t : state.scheduled()) {
    path.push_back({t, state.proc(t), static_cast<Time>(state.start(t))});
  }
  // (start, topo rank) is a replay order: a task never starts before a
  // predecessor finishes, and equal-start tasks are independent, so
  // placing in this order keeps every prefix's ready-set honest.
  std::sort(path.begin(), path.end(),
            [&ctx](const CutPlacement& a, const CutPlacement& b) {
              if (a.start != b.start) return a.start < b.start;
              return ctx.topo_rank(a.task) < ctx.topo_rank(b.task);
            });
  return path;
}

CertificateBuilder::CertificateBuilder(std::size_t max_cuts)
    : max_cuts_(max_cuts) {}

void CertificateBuilder::begin(const SchedContext& ctx, int lb_kind,
                               bool branch_complete, double br,
                               std::string params_summary) {
  std::lock_guard lock(mutex_);
  cert_ = Certificate{};
  cert_.task_count = ctx.task_count();
  cert_.procs = ctx.proc_count();
  cert_.lb_kind = lb_kind;
  cert_.branch_complete = branch_complete;
  cert_.br = br;
  cert_.params_summary = std::move(params_summary);
}

void CertificateBuilder::record_cut(const SchedContext& ctx,
                                    const PartialSchedule& state,
                                    CutRule rule, Time claimed_bound) {
  std::vector<CutPlacement> path = placement_path(ctx, state);
  std::lock_guard lock(mutex_);
  if (cert_.cuts.size() >= max_cuts_) {
    cert_.truncated = true;
    return;
  }
  cert_.cuts.push_back(
      {state.fingerprint(), rule, claimed_bound, std::move(path)});
}

void CertificateBuilder::record_degrade(std::string action,
                                        std::uint64_t at_generated,
                                        int level) {
  std::lock_guard lock(mutex_);
  cert_.degrades.push_back({std::move(action), at_generated, level});
}

void CertificateBuilder::finish(bool found, const Schedule& incumbent,
                                Time cost, bool complete,
                                std::uint64_t expanded,
                                std::uint64_t generated) {
  std::lock_guard lock(mutex_);
  cert_.found = found;
  cert_.incumbent = incumbent;
  cert_.cost = cost;
  cert_.complete = complete;
  cert_.expanded = expanded;
  cert_.generated = generated;
}

void CertificateBuilder::export_state(std::vector<CutRecord>& cuts,
                                      std::vector<DegradeRecord>& degrades,
                                      bool& truncated) const {
  std::lock_guard lock(mutex_);
  cuts = cert_.cuts;
  degrades = cert_.degrades;
  truncated = cert_.truncated;
}

void CertificateBuilder::restore_state(std::vector<CutRecord> cuts,
                                       std::vector<DegradeRecord> degrades,
                                       bool truncated) {
  std::lock_guard lock(mutex_);
  cert_.cuts = std::move(cuts);
  cert_.degrades = std::move(degrades);
  cert_.truncated = truncated || cert_.cuts.size() > max_cuts_;
}

Certificate CertificateBuilder::take() {
  std::lock_guard lock(mutex_);
  return std::move(cert_);
}

std::size_t CertificateBuilder::cut_count() const {
  std::lock_guard lock(mutex_);
  return cert_.cuts.size();
}

}  // namespace parabb
