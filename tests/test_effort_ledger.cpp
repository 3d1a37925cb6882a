// Effort ledger: the exact search effort of a fixed corpus, pinned line by
// line in tests/data/effort_ledger.txt.
//
// The sequential engine and the single-worker parallel engine are
// deterministic, so every counter they report is a function of the code's
// search decisions alone. This suite solves a seed-generated corpus (§4.1
// graphs, n 12-16, m 2-4, sliced deadlines at two laxities) under a grid
// of configurations and prints one line per (configuration, instance):
// every SearchStats counter except `seconds`, the termination reason,
// cost, proof flag and certified lower bound, a digest of the best
// schedule, and — where the configuration attaches them — digests of the
// certificate text, the flight-recorder dump and a checkpoint snapshot.
//
// The resume configurations pin checkpoint export and resume seeding: the
// sequential engine writes one snapshot at its first poll point, and the
// line carries that snapshot's digest (re-encoded with stats.seconds, the
// only wall-clock field, zeroed) plus the run resumed from it.
//
// A performance change must leave the file byte-identical. A change that
// means to alter search decisions regenerates it (docs/testing.md) and
// says so in its change log. On a mismatch the test prints the first
// differing line and writes the whole actual ledger next to the test
// binary (PARABB_LEDGER_ACTUAL).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/hooks.hpp"
#include "parabb/bnb/parallel_engine.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/obs/observe.hpp"
#include "parabb/obs/recorder.hpp"
#include "parabb/support/hash.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

/// Every solve stops at this many generated vertices, so the configurations
/// that prune little (E = none, FIFO, U = inf) stay within the suite's
/// time budget. Budget stops are deterministic in both engines here.
constexpr std::uint64_t kBudget = 60000;

std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, then mixed
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::string schedule_digest(const Schedule& s, bool found, int task_count) {
  if (!found) return "-";
  std::ostringstream os;
  for (TaskId t = 0; t < task_count; ++t) {
    const ScheduledTask& e = s.entry(t);
    os << e.proc << ':' << e.start << ':' << e.finish << ' ';
  }
  return hex(digest(os.str()));
}

/// What one configuration accumulates over the corpus, to show that its
/// feature fired.
struct Totals {
  std::uint64_t generated = 0;
  std::uint64_t pruned_children = 0;
  std::uint64_t goal_updates = 0;
  std::uint64_t goals = 0;
  std::uint64_t tt_hits = 0;
  std::uint64_t disposed = 0;
  std::uint64_t degrade_steps = 0;
  std::uint64_t exhausted_unproved = 0;  ///< ran out of work, yet no proof
  std::uint64_t characteristic_rejects = 0;  ///< counted by the F wrapper
  std::uint64_t cuts = 0;
  std::uint64_t flight_events = 0;
  std::uint64_t snapshots = 0;
};

struct Config {
  std::string name;
  std::function<void(Params&, Totals&)> setup;
  /// The feature this configuration exists for, and whether it fired.
  const char* feature = "child pruning";
  std::function<bool(const Totals&)> fired = [](const Totals& t) {
    return t.pruned_children > 0;
  };
  /// When set, the feature fired instead when this configuration generated
  /// fewer vertices over the corpus than the named one: D leaves no trace
  /// but the children it never generates.
  const char* generates_less_than = nullptr;
  bool certify = false;
  bool flight = false;
  bool parallel = false;
  /// Resume from the snapshot solve_bnb writes at its first poll point;
  /// `parallel` picks the engine that resumes.
  bool resume = false;
};

void small_table(Params& p) {
  p.transposition.enabled = true;
  p.transposition.memory_cap_bytes = std::size_t{1} << 20;
}

/// F of feasibility_params(), counting its rejections.
void counted_characteristic(Params& p, Totals& totals) {
  p = feasibility_params();
  const CharacteristicFn f = p.characteristic;
  p.characteristic = [f, &totals](const SchedContext& ctx,
                                  const PartialSchedule& ps) {
    const bool ok = f(ctx, ps);
    if (!ok) ++totals.characteristic_rejects;
    return ok;
  };
}

std::vector<Config> grid() {
  const auto with = [](std::function<void(Params&)> f) {
    return [f](Params& p, Totals&) { f(p); };
  };
  const auto none = with([](Params&) {});
  const auto tt_hits = [](const Totals& t) { return t.tt_hits > 0; };
  // A search that ran out of work without a proof lost part of its tree.
  const auto truncated = [](const Totals& t) {
    return t.exhausted_unproved > 0;
  };
  return {
      {.name = "lifo", .setup = none},
      {.name = "llb", .setup = with([](Params& p) {
         p.select = SelectRule::kLLB;
       })},
      {.name = "fifo", .setup = with([](Params& p) {
         p.select = SelectRule::kFIFO;
       })},
      {.name = "lb0", .setup = with([](Params& p) {
         p.lb = LowerBound::kLB0;
       })},
      {.name = "lb2", .setup = with([](Params& p) {
         p.lb = LowerBound::kLB2;
       })},
      {.name = "llb-lb2", .setup = with([](Params& p) {
         p.select = SelectRule::kLLB;
         p.lb = LowerBound::kLB2;
       })},
      {.name = "bf1", .setup = with([](Params& p) {
         p.branch = BranchRule::kBF1;
       })},
      {.name = "df", .setup = with([](Params& p) {
         p.branch = BranchRule::kDF;
       })},
      {.name = "br10", .setup = with([](Params& p) { p.br = 0.1; })},
      {.name = "elim-none",
       .setup = with([](Params& p) { p.elim = ElimRule::kNone; }),
       .feature = "goal generation without elimination",
       .fired = [](const Totals& t) { return t.goals > 0; }},
      {.name = "ub-inf", .setup = with([](Params& p) {
         p.ub = UpperBoundInit::kInfinite;
       })},
      {.name = "F",
       .setup = counted_characteristic,
       .feature = "F",
       .fired = [](const Totals& t) { return t.characteristic_rejects > 0; }},
      {.name = "D",
       .setup = with([](Params& p) { p.dominance = true; }),
       .feature = "D",
       .generates_less_than = "lifo"},
      {.name = "tt",
       .setup = with(small_table),
       .feature = "the transposition table",
       .fired = tt_hits},
      {.name = "maxszdb3",
       .setup = with([](Params& p) { p.rb.max_children = 3; }),
       .feature = "MAXSZDB truncation",
       .fired = truncated},
      {.name = "maxszas50",
       .setup = with([](Params& p) {
         p.select = SelectRule::kLLB;
         p.rb.max_active = 50;
       }),
       .feature = "MAXSZAS disposal",
       .fired = [](const Totals& t) { return t.disposed > 0; }},
      {.name = "ladder",
       .setup = with([](Params& p) {
         p.select = SelectRule::kLLB;
         p.ub = UpperBoundInit::kInfinite;
         small_table(p);
         p.rb.max_memory_bytes = std::size_t{256} << 10;
         p.degrade = true;
       }),
       .feature = "the degradation ladder",
       .fired = [](const Totals& t) { return t.degrade_steps > 0; }},
      {.name = "unsorted", .setup = with([](Params& p) {
         p.sort_children = false;
       })},
      {.name = "certify",
       .setup = none,
       .feature = "certificate cuts",
       .fired = [](const Totals& t) { return t.cuts > 0; },
       .certify = true},
      {.name = "certify-llb-lb2",
       .setup = with([](Params& p) {
         p.select = SelectRule::kLLB;
         p.lb = LowerBound::kLB2;
       }),
       .feature = "certificate cuts",
       .fired = [](const Totals& t) { return t.cuts > 0; },
       .certify = true},
      {.name = "certify-tt-D-br10",
       .setup = with([](Params& p) {
         small_table(p);
         p.dominance = true;
         p.br = 0.1;
       }),
       .feature = "the transposition table",
       .fired = tt_hits,
       .certify = true},
      {.name = "flight",
       .setup = none,
       .feature = "the flight recorder",
       .fired = [](const Totals& t) { return t.flight_events > 0; },
       .flight = true},
      {.name = "flight-F-tt-lb2",
       .setup =
           [](Params& p, Totals& totals) {
             counted_characteristic(p, totals);
             p.lb = LowerBound::kLB2;
             small_table(p);
           },
       .feature = "F",
       .fired = [](const Totals& t) { return t.characteristic_rejects > 0; },
       .flight = true},
      {.name = "par1", .setup = none, .parallel = true},
      {.name = "par1-flight-tt-lb2",
       .setup = with([](Params& p) {
         p.lb = LowerBound::kLB2;
         small_table(p);
       }),
       .feature = "the transposition table",
       .fired = tt_hits,
       .flight = true,
       .parallel = true},
      {.name = "par1-certify",
       .setup = none,
       .feature = "certificate cuts",
       .fired = [](const Totals& t) { return t.cuts > 0; },
       .certify = true,
       .parallel = true},
      {.name = "resume",
       .setup = with(small_table),
       .feature = "a checkpoint snapshot",
       .fired = [](const Totals& t) { return t.snapshots > 0; },
       .certify = true,
       .resume = true},
      {.name = "resume-llb",
       .setup = with([](Params& p) { p.select = SelectRule::kLLB; }),
       .feature = "a checkpoint snapshot",
       .fired = [](const Totals& t) { return t.snapshots > 0; },
       .certify = true,
       .resume = true},
      {.name = "par1-resume",
       .setup = with(small_table),
       .feature = "a checkpoint snapshot",
       .fired = [](const Totals& t) { return t.snapshots > 0; },
       .certify = true,
       .parallel = true,
       .resume = true},
      {.name = "par1-ladder",
       .setup = with([](Params& p) {
         p.ub = UpperBoundInit::kInfinite;
         small_table(p);
         p.rb.max_memory_bytes = std::size_t{48} << 10;
         p.degrade = true;
       }),
       .feature = "the degradation ladder",
       .fired = [](const Totals& t) { return t.degrade_steps > 0; },
       .parallel = true},
      {.name = "par1-maxszdb3",
       .setup = with([](Params& p) { p.rb.max_children = 3; }),
       .feature = "MAXSZDB truncation",
       .fired = truncated,
       .parallel = true},
      {.name = "par1-D",
       .setup = with([](Params& p) { p.dominance = true; }),
       .feature = "D",
       .generates_less_than = "par1",
       .parallel = true},
  };
}

/// Runs solve_bnb with `p`, which writes one snapshot at its first poll
/// point, and returns that snapshot; nullopt when the search ends before
/// its first poll.
std::optional<SearchSnapshot> first_poll_snapshot(const SchedContext& ctx,
                                                  Params p) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("parabb_ledger_" + std::to_string(::getpid()) + ".ckpt"))
          .string();
  CheckpointController ckpt(path, /*every_ms=*/0);
  ckpt.request_now();
  CertificateBuilder builder;
  if (p.certify != nullptr) p.certify = &builder;
  p.ckpt = &ckpt;
  solve_bnb(ctx, p);
  if (ckpt.writes() == 0) return std::nullopt;
  SearchSnapshot snap = load_snapshot(path);
  std::remove(path.c_str());
  return snap;
}

std::string ledger_line(const Config& cfg, const test::LedgerInstance& inst,
                        Totals& totals) {
  const SchedContext ctx = test::make_ctx(inst.graph, inst.procs);
  Params p;
  cfg.setup(p, totals);
  p.rb.max_generated = kBudget;
  CertificateBuilder builder;
  if (cfg.certify) p.certify = &builder;
  std::optional<FlightRecorder> recorder;
  Observation observe;
  if (cfg.flight) {
    observe.recorder = &recorder.emplace(std::size_t{1} << 16);
    p.observe = &observe;
  }

  std::optional<SearchSnapshot> snap;
  if (cfg.resume) {
    snap = first_poll_snapshot(ctx, p);
    if (snap) {
      ++totals.snapshots;
      p.resume = &*snap;
    }
  }

  SearchResult r;
  if (cfg.parallel) {
    ParallelParams pp;
    pp.base = p;
    pp.threads = 1;
    r = solve_bnb_parallel(ctx, pp);
  } else {
    r = solve_bnb(ctx, p);
  }

  const SearchStats& s = r.stats;
  totals.generated += s.generated;
  totals.pruned_children += s.pruned_children;
  totals.goal_updates += s.goal_updates;
  totals.goals += s.goals;
  totals.tt_hits += s.tt_hits;
  totals.disposed += s.disposed;
  totals.degrade_steps += s.degrade_steps;
  if (r.reason == TerminationReason::kExhausted && !r.proved) {
    ++totals.exhausted_unproved;
  }

  std::ostringstream os;
  os << cfg.name << ' ' << inst.name;
  if (cfg.resume) {
    std::string field = "none";
    if (snap) {
      SearchSnapshot zeroed = *snap;
      zeroed.stats.seconds = 0.0;
      const std::vector<std::uint8_t> bytes = encode_snapshot(zeroed);
      field = hex(digest(std::string(bytes.begin(), bytes.end())));
    }
    os << " snap=" << field;
  }
  for (const std::uint64_t v :
       {s.expanded, s.generated, s.activated, s.goals, s.goal_updates,
        s.pruned_children, s.pruned_active, s.disposed, s.tt_hits,
        s.tt_misses, s.tt_evictions, s.tt_collisions, s.steals_attempted,
        s.steals_succeeded, s.degrade_steps}) {
    os << ' ' << v;
  }
  os << ' ' << s.peak_active << ' ' << s.peak_memory_bytes;
  os << " | " << static_cast<int>(r.reason) << ' ' << r.best_cost << ' '
     << r.proved << ' ' << r.certified_lower_bound;
  os << " | " << schedule_digest(r.best, r.found_solution, ctx.task_count());
  if (cfg.certify) {
    totals.cuts += builder.cut_count();
    os << " cert="
       << hex(digest(certificate_to_text(builder.take(), inst.graph)));
  }
  if (recorder) {
    std::uint64_t events = 0;
    for (std::size_t c = 0; c < recorder->channel_count(); ++c) {
      events += recorder->channel(c).total();
    }
    totals.flight_events += events;
    os << " flight=" << hex(digest(recorder->to_string())) << '/' << events;
  }
  return os.str();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') lines.push_back(line);
  }
  return lines;
}

const char* const kHeader =
    "# Effort ledger (tests/test_effort_ledger.cpp). One line per\n"
    "# (configuration, instance):\n"
    "#   config instance [snap=digest|none] expanded generated activated\n"
    "#   goals goal_updates pruned_children pruned_active disposed tt_hits\n"
    "#   tt_misses tt_evictions tt_collisions steals_attempted\n"
    "#   steals_succeeded degrade_steps peak_active peak_memory_bytes\n"
    "#   | reason best_cost proved certified_lower_bound\n"
    "#   | schedule digest [cert=digest] [flight=digest/events]\n"
    "# Regenerate only in a change that means to alter search decisions\n"
    "# (docs/testing.md).\n";

TEST(EffortLedger, MatchesCommittedLedger) {
  const std::vector<test::LedgerInstance> instances = test::ledger_corpus();
  std::vector<std::string> actual;
  std::string vacuous;
  std::map<std::string, std::uint64_t> generated;
  for (const Config& cfg : grid()) {
    Totals totals;
    for (const test::LedgerInstance& inst : instances) {
      actual.push_back(ledger_line(cfg, inst, totals));
    }
    generated[cfg.name] = totals.generated;
    // No vacuous lines: each configuration's feature fires somewhere in
    // the corpus, and every configuration improves an incumbent (the goal
    // path) at least once.
    if (totals.generated == 0 || totals.goal_updates == 0) {
      vacuous += cfg.name + ": no search or no incumbent update\n";
    }
    const bool fired = cfg.generates_less_than != nullptr
                           ? totals.generated <
                                 generated.at(cfg.generates_less_than)
                           : cfg.fired(totals);
    if (!fired) {
      vacuous += cfg.name + ": " + cfg.feature + " never fired\n";
    }
  }
  EXPECT_TRUE(vacuous.empty()) << vacuous;

  const std::vector<std::string> expected = read_lines(PARABB_LEDGER_FILE);
  std::string first_diff;
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common && first_diff.empty(); ++i) {
    if (expected[i] != actual[i]) {
      first_diff = "entry " + std::to_string(i + 1) + "\n  expected: " +
                   expected[i] + "\n  actual:   " + actual[i];
    }
  }
  if (first_diff.empty() && expected.size() != actual.size()) {
    first_diff = "expected " + std::to_string(expected.size()) +
                 " lines, got " + std::to_string(actual.size());
  }
  if (!first_diff.empty()) {
    std::ofstream out(PARABB_LEDGER_ACTUAL);
    out << kHeader;
    for (const std::string& line : actual) out << line << '\n';
  }
  EXPECT_TRUE(first_diff.empty())
      << "search effort differs from " << PARABB_LEDGER_FILE << " at "
      << first_diff << "\nactual ledger written to " << PARABB_LEDGER_ACTUAL;
}

}  // namespace
}  // namespace parabb
