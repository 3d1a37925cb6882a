#include "parabb/taskgraph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "parabb/support/json.hpp"
#include "parabb/taskgraph/builder.hpp"
#include "parabb/workload/generator.hpp"

namespace parabb {
namespace {

TaskGraph sample() {
  return GraphBuilder()
      .task("src", 10, 25, 0)
      .task("mid", 20, 45, 12)
      .task("dst", 5)
      .arc("src", "mid", 7)
      .arc("mid", "dst")
      .build();
}

TEST(Tgf, RoundTripPreservesEverything) {
  const TaskGraph g = sample();
  const TaskGraph h = from_tgf(to_tgf(g));
  ASSERT_EQ(h.task_count(), g.task_count());
  ASSERT_EQ(h.arc_count(), g.arc_count());
  for (TaskId t = 0; t < g.task_count(); ++t) {
    EXPECT_EQ(h.task(t).name, g.task(t).name);
    EXPECT_EQ(h.task(t).exec, g.task(t).exec);
    EXPECT_EQ(h.task(t).phase, g.task(t).phase);
    EXPECT_EQ(h.task(t).rel_deadline, g.task(t).rel_deadline);
    EXPECT_EQ(h.task(t).period, g.task(t).period);
  }
  EXPECT_EQ(h.items_on_arc(0, 1), 7);
  EXPECT_EQ(h.items_on_arc(1, 2), 0);
}

TEST(Tgf, RoundTripRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const GeneratedGraph gen = generate_graph(paper_config(), seed);
    const TaskGraph h = from_tgf(to_tgf(gen.graph));
    EXPECT_EQ(h.task_count(), gen.graph.task_count());
    EXPECT_EQ(h.arc_count(), gen.graph.arc_count());
    for (const Channel& c : gen.graph.arcs()) {
      EXPECT_EQ(h.items_on_arc(c.from, c.to), c.items);
    }
  }
}

TEST(Tgf, ParsesCommentsAndBlankLines) {
  const TaskGraph g = from_tgf(
      "# a comment\n"
      "\n"
      "task a exec=5\n"
      "task b exec=6 deadline=20\n"
      "arc a b items=3\n");
  EXPECT_EQ(g.task_count(), 2);
  EXPECT_EQ(g.task(1).rel_deadline, 20);
  EXPECT_EQ(g.items_on_arc(0, 1), 3);
}

TEST(Tgf, ErrorsCarryLineNumbers) {
  try {
    from_tgf("task a exec=5\nbogus line here\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Tgf, RejectsMissingExec) {
  EXPECT_THROW(from_tgf("task a\n"), std::runtime_error);
  EXPECT_THROW(from_tgf("task a deadline=5\n"), std::runtime_error);
}

TEST(Tgf, RejectsUnknownTaskInArc) {
  EXPECT_THROW(from_tgf("task a exec=1\narc a ghost\n"), std::runtime_error);
}

TEST(Tgf, RejectsDuplicateTask) {
  EXPECT_THROW(from_tgf("task a exec=1\ntask a exec=2\n"),
               std::runtime_error);
}

TEST(Tgf, RejectsCycle) {
  EXPECT_THROW(from_tgf("task a exec=1\ntask b exec=1\n"
                        "arc a b\narc b a\n"),
               std::runtime_error);
}

TEST(Tgf, RejectsBadInteger) {
  EXPECT_THROW(from_tgf("task a exec=xyz\n"), std::runtime_error);
}

TEST(Tgf, RejectsSelfLoopWithLineNumber) {
  try {
    from_tgf("task a exec=1\ntask b exec=1\narc a a\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("self-loop"), std::string::npos) << msg;
  }
}

TEST(Tgf, RejectsDuplicateArcWithLineNumber) {
  try {
    from_tgf("task a exec=1\ntask b exec=1\narc a b\narc a b items=3\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("duplicate arc"), std::string::npos) << msg;
  }
}

TEST(Tgf, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/parabb_io_test.tgf";
  const TaskGraph g = sample();
  save_tgf(g, path);
  const TaskGraph h = load_tgf(path);
  EXPECT_EQ(h.task_count(), g.task_count());
  std::remove(path.c_str());
}

TEST(Tgf, LoadMissingFileThrows) {
  EXPECT_THROW(load_tgf("/no/such/file.tgf"), std::runtime_error);
}

/// `n` task lines t0..t{n-1}.
std::string task_lines(int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += "task t" + std::to_string(i) + " exec=1\n";
  return out;
}

/// The message from_tgf(text) throws (empty if it parses).
std::string tgf_error(const std::string& text) {
  try {
    from_tgf(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(TgfCaps, SixtyFourTasksLoadAndTheSixtyFifthIsRefusedAtItsLine) {
  EXPECT_EQ(from_tgf(task_lines(kMaxTgfTasks)).task_count(), kMaxTgfTasks);
  const std::string msg = tgf_error("# header\n" + task_lines(kMaxTgfTasks + 1));
  EXPECT_NE(msg.find("tgf parse error at line 66"), std::string::npos) << msg;
  EXPECT_NE(msg.find("more than 64 tasks"), std::string::npos) << msg;
}

TEST(TgfCaps, ACompleteDagLoadsAndOneMoreArcIsRefusedAtItsLine) {
  std::string text = task_lines(kMaxTgfTasks);
  for (int i = 0; i < kMaxTgfTasks; ++i) {
    for (int j = i + 1; j < kMaxTgfTasks; ++j) {
      text += "arc t" + std::to_string(i) + " t" + std::to_string(j) + "\n";
    }
  }
  EXPECT_EQ(from_tgf(text).arc_count(), kMaxTgfArcs);
  const std::string msg = tgf_error(text + "arc t1 t0\n");
  const int line = kMaxTgfTasks + kMaxTgfArcs + 1;
  EXPECT_NE(msg.find("tgf parse error at line " + std::to_string(line)),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("more than 2016 arcs"), std::string::npos) << msg;
}

TEST(TgfCaps, ALineAtTheCapLoadsAndALongerOneIsRefusedAtItsLine) {
  const std::string at_cap = "#" + std::string(kMaxTgfLineBytes - 1, 'x');
  EXPECT_EQ(from_tgf("task a exec=1\n" + at_cap + "\n").task_count(), 1);
  EXPECT_EQ(from_tgf("task a exec=1\n" + at_cap).task_count(), 1);
  const std::string msg = tgf_error("task a exec=1\n" + at_cap + "x\n");
  EXPECT_NE(msg.find("tgf parse error at line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line longer than 4096 bytes"), std::string::npos)
      << msg;
  EXPECT_EQ(tgf_error("task a exec=1\n" + at_cap + "x"), msg);  // no '\n'
}

// load_tgf reads a line at a time, so an endless file is refused at its
// first overlong line instead of being read whole.
TEST(TgfCaps, AnEndlessFileIsRefusedAtItsFirstLine) {
  try {
    (void)load_tgf("/dev/zero");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "tgf parse error at line 1: line longer than 4096 bytes");
  }
}

// The checked-in corpora stay within the caps.
TEST(TgfCaps, CheckedInGraphsStillLoad) {
  const std::filesystem::path root = PARABB_SOURCE_DIR;
  int files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "tests" / "data")) {
    if (entry.path().extension() != ".tgf") continue;
    EXPECT_NO_THROW(load_tgf(entry.path().string())) << entry.path();
    ++files;
  }
  EXPECT_GE(files, 2);

  std::ifstream in(root / "tools" / "serve_smoke_requests.jsonl");
  ASSERT_TRUE(in) << "missing tools/serve_smoke_requests.jsonl";
  // Some lines are deliberately malformed requests: those that are not
  // JSON are skipped, and the graphs of the "bad*" ids must fail as they
  // always did, not at a cap.
  int graphs = 0;
  for (std::string line; std::getline(in, line);) {
    JsonValue doc;
    try {
      doc = JsonValue::parse(line);
    } catch (const std::runtime_error&) {
      continue;
    }
    const JsonValue* id = doc.find("id");
    const JsonValue* graph = doc.find("graph");
    if (!id || !graph) continue;
    if (id->as_string().starts_with("bad")) {
      const std::string msg = tgf_error(graph->as_string());
      EXPECT_FALSE(msg.empty()) << line;
      EXPECT_EQ(msg.find("more than"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("longer than"), std::string::npos) << msg;
      continue;
    }
    EXPECT_NO_THROW(from_tgf(graph->as_string())) << line;
    ++graphs;
  }
  EXPECT_EQ(graphs, 51);
}

TEST(Dot, ContainsNodesAndEdges) {
  const std::string dot = to_dot(sample());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("src"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"7\""), std::string::npos);
}

}  // namespace
}  // namespace parabb
