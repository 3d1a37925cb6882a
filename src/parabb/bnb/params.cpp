#include "parabb/bnb/params.hpp"

#include <sstream>
#include <stdexcept>

namespace parabb {

std::string to_string(SelectRule s) {
  switch (s) {
    case SelectRule::kLLB: return "LLB";
    case SelectRule::kFIFO: return "FIFO";
    case SelectRule::kLIFO: return "LIFO";
  }
  return "?";
}

std::string to_string(BranchRule b) {
  switch (b) {
    case BranchRule::kBFn: return "BFn";
    case BranchRule::kBF1: return "BF1";
    case BranchRule::kDF: return "DF";
  }
  return "?";
}

std::string to_string(ElimRule e) {
  switch (e) {
    case ElimRule::kNone: return "none";
    case ElimRule::kUDBAS: return "U/DBAS";
  }
  return "?";
}

std::string to_string(LowerBound l) {
  switch (l) {
    case LowerBound::kLB0: return "LB0";
    case LowerBound::kLB1: return "LB1";
    case LowerBound::kLB2: return "LB2";
  }
  return "?";
}

std::string to_string(UpperBoundInit u) {
  switch (u) {
    case UpperBoundInit::kInfinite: return "inf";
    case UpperBoundInit::kFromEDF: return "EDF";
    case UpperBoundInit::kExplicit: return "explicit";
  }
  return "?";
}

SelectRule parse_select_rule(const std::string& s) {
  if (s == "lifo") return SelectRule::kLIFO;
  if (s == "llb") return SelectRule::kLLB;
  if (s == "fifo") return SelectRule::kFIFO;
  throw std::runtime_error("select must be lifo, llb or fifo (got '" + s +
                           "')");
}

BranchRule parse_branch_rule(const std::string& s) {
  if (s == "bfn") return BranchRule::kBFn;
  if (s == "bf1") return BranchRule::kBF1;
  if (s == "df") return BranchRule::kDF;
  throw std::runtime_error("branch must be bfn, bf1 or df (got '" + s +
                           "')");
}

LowerBound parse_lower_bound(const std::string& s) {
  if (s == "lb0") return LowerBound::kLB0;
  if (s == "lb1") return LowerBound::kLB1;
  if (s == "lb2") return LowerBound::kLB2;
  throw std::runtime_error("lb must be lb0, lb1 or lb2 (got '" + s + "')");
}

std::string describe(const Params& p) {
  std::ostringstream os;
  os << "B=" << to_string(p.branch) << " S=" << to_string(p.select)
     << " E=" << to_string(p.elim) << " L=" << to_string(p.lb)
     << " U=" << to_string(p.ub) << " BR=" << p.br * 100.0 << "%";
  if (p.transposition.enabled) {
    os << " TT=" << (p.transposition.memory_cap_bytes >> 20) << "MiB/"
       << p.transposition.shards << "sh";
  }
  return os.str();
}

}  // namespace parabb
