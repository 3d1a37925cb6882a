#include "parabb/experiments/spec.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace parabb {
namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw std::runtime_error("spec error at line " + std::to_string(line) +
                           ": " + msg);
}

/// key=value tokens of one directive line.
std::map<std::string, std::string> attrs_of(std::istringstream& ls,
                                            int line) {
  std::map<std::string, std::string> out;
  std::string token;
  while (ls >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos)
      fail(line, "expected key=value, got '" + token + "'");
    const std::string key = token.substr(0, eq);
    if (out.contains(key)) fail(line, "duplicate attribute " + key);
    out[key] = token.substr(eq + 1);
  }
  return out;
}

double to_double(const std::string& v, int line) {
  try {
    std::size_t pos = 0;
    const double out = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    fail(line, "not a number: " + v);
  }
}

long long to_int(const std::string& v, int line) {
  try {
    std::size_t pos = 0;
    const long long out = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return out;
  } catch (const std::exception&) {
    fail(line, "not an integer: " + v);
  }
}

/// One of the shared S, B and L spelling parsers (bnb/params.hpp), its
/// error tagged with the spec line.
template <class Parse>
auto parse_rule(Parse parse, const std::string& v, int line) {
  try {
    return parse(v);
  } catch (const std::runtime_error& e) {
    fail(line, e.what());
  }
}

/// "lo..hi" or a single value.
std::pair<int, int> to_range(const std::string& v, int line) {
  const auto dots = v.find("..");
  if (dots == std::string::npos) {
    const int x = static_cast<int>(to_int(v, line));
    return {x, x};
  }
  return {static_cast<int>(to_int(v.substr(0, dots), line)),
          static_cast<int>(to_int(v.substr(dots + 2), line))};
}

void apply_workload(GeneratorConfig& wl,
                    const std::map<std::string, std::string>& attrs,
                    int line) {
  for (const auto& [key, value] : attrs) {
    if (key == "n") {
      std::tie(wl.n_min, wl.n_max) = to_range(value, line);
    } else if (key == "depth") {
      std::tie(wl.depth_min, wl.depth_max) = to_range(value, line);
    } else if (key == "degree") {
      wl.degree_max = static_cast<int>(to_int(value, line));
    } else if (key == "exec-mean") {
      wl.exec_mean = to_double(value, line);
    } else if (key == "exec-dev") {
      wl.exec_dev = to_double(value, line);
    } else if (key == "ccr") {
      wl.ccr = to_double(value, line);
    } else if (key == "width") {
      wl.fixed_width = static_cast<int>(to_int(value, line));
    } else {
      fail(line, "unknown workload attribute: " + key);
    }
  }
}

AlgorithmVariant parse_bnb_variant(
    const std::map<std::string, std::string>& attrs, int line) {
  AlgorithmVariant v;
  v.kind = AlgorithmVariant::Kind::kBnB;
  v.label = "B&B";
  for (const auto& [key, value] : attrs) {
    if (key == "label") {
      v.label = value;
    } else if (key == "select") {
      v.params.select = parse_rule(parse_select_rule, value, line);
    } else if (key == "branch") {
      v.params.branch = parse_rule(parse_branch_rule, value, line);
    } else if (key == "lb") {
      v.params.lb = parse_rule(parse_lower_bound, value, line);
    } else if (key == "ub") {
      if (value == "edf") {
        v.params.ub = UpperBoundInit::kFromEDF;
      } else if (value == "inf") {
        v.params.ub = UpperBoundInit::kInfinite;
      } else {
        v.params.ub = UpperBoundInit::kExplicit;
        v.params.explicit_ub = to_int(value, line);
      }
    } else if (key == "br") {
      v.params.br = to_double(value, line);
    } else if (key == "sort") {
      v.params.sort_children = to_int(value, line) != 0;
    } else if (key == "llb-ties") {
      if (value == "oldest") v.params.llb_tie_newest = false;
      else if (value == "newest") v.params.llb_tie_newest = true;
      else fail(line, "bad llb-ties: " + value);
    } else {
      fail(line, "unknown bnb attribute: " + key);
    }
  }
  return v;
}

}  // namespace

ExperimentConfig parse_experiment_spec(const std::string& text) {
  ExperimentConfig cfg;
  ResourceBounds limits;  // applied to every B&B variant at the end
  limits.time_limit_s = 1.0;
  limits.max_active = 250'000;

  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string directive;
    if (!(ls >> directive) || directive[0] == '#') continue;

    if (directive == "workload") {
      apply_workload(cfg.workload, attrs_of(ls, lineno), lineno);
    } else if (directive == "slicing") {
      for (const auto& [key, value] : attrs_of(ls, lineno)) {
        if (key == "laxity") {
          cfg.slicing.laxity = to_double(value, lineno);
        } else if (key == "base") {
          if (value == "path") cfg.slicing.base = LaxityBase::kPathWork;
          else if (value == "total")
            cfg.slicing.base = LaxityBase::kTotalWork;
          else fail(lineno, "bad slicing base: " + value);
        } else {
          fail(lineno, "unknown slicing attribute: " + key);
        }
      }
    } else if (directive == "machines") {
      cfg.machine_sizes.clear();
      std::string list;
      ls >> list;
      std::stringstream ss(list);
      std::string item;
      while (std::getline(ss, item, ',')) {
        cfg.machine_sizes.push_back(
            static_cast<int>(to_int(item, lineno)));
      }
      if (cfg.machine_sizes.empty()) fail(lineno, "machines needs a list");
    } else if (directive == "reps") {
      for (const auto& [key, value] : attrs_of(ls, lineno)) {
        if (key == "min") cfg.min_reps = static_cast<int>(to_int(value, lineno));
        else if (key == "batch")
          cfg.batch_reps = static_cast<int>(to_int(value, lineno));
        else if (key == "max")
          cfg.max_reps = static_cast<int>(to_int(value, lineno));
        else fail(lineno, "unknown reps attribute: " + key);
      }
    } else if (directive == "seed") {
      std::string v;
      if (!(ls >> v)) fail(lineno, "seed needs a value");
      cfg.seed = static_cast<std::uint64_t>(to_int(v, lineno));
    } else if (directive == "threads") {
      std::string v;
      if (!(ls >> v)) fail(lineno, "threads needs a value");
      cfg.threads = static_cast<std::size_t>(to_int(v, lineno));
    } else if (directive == "limit") {
      for (const auto& [key, value] : attrs_of(ls, lineno)) {
        if (key == "time") limits.time_limit_s = to_double(value, lineno);
        else if (key == "max-active")
          limits.max_active =
              static_cast<std::size_t>(to_int(value, lineno));
        else if (key == "max-children")
          limits.max_children = static_cast<int>(to_int(value, lineno));
        else fail(lineno, "unknown limit attribute: " + key);
      }
    } else if (directive == "variant") {
      std::string kind;
      if (!(ls >> kind)) fail(lineno, "variant needs a kind");
      if (kind == "edf") {
        AlgorithmVariant v;
        v.kind = AlgorithmVariant::Kind::kEdf;
        v.label = "EDF";
        cfg.variants.push_back(v);
      } else if (kind == "hlfet") {
        AlgorithmVariant v;
        v.kind = AlgorithmVariant::Kind::kHlfet;
        v.label = "HLFET";
        cfg.variants.push_back(v);
      } else if (kind == "bnb") {
        cfg.variants.push_back(
            parse_bnb_variant(attrs_of(ls, lineno), lineno));
      } else {
        fail(lineno, "unknown variant kind: " + kind);
      }
    } else {
      fail(lineno, "unknown directive: " + directive);
    }
  }

  if (cfg.variants.empty()) {
    throw std::runtime_error("spec declares no variants");
  }
  for (AlgorithmVariant& v : cfg.variants) {
    if (v.kind == AlgorithmVariant::Kind::kBnB) v.params.rb = limits;
  }
  return cfg;
}

ExperimentConfig load_experiment_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open spec: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_experiment_spec(buf.str());
}

}  // namespace parabb
