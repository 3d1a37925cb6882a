#include "parabb/experiments/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace parabb {
namespace {

TEST(Spec, ParsesFullDocument) {
  const ExperimentConfig cfg = parse_experiment_spec(R"(
# a comment
workload n=10..14 depth=5..6 degree=2 exec-mean=30 exec-dev=0.5 ccr=2.0
slicing laxity=1.2 base=total
machines 2,4
reps min=4 batch=2 max=10
seed 99
threads 3
limit time=0.5 max-active=1000 max-children=16
variant edf
variant bnb label=mine select=llb branch=bf1 lb=lb2 ub=inf br=0.1 sort=0 llb-ties=newest
)");
  EXPECT_EQ(cfg.workload.n_min, 10);
  EXPECT_EQ(cfg.workload.n_max, 14);
  EXPECT_EQ(cfg.workload.depth_min, 5);
  EXPECT_EQ(cfg.workload.degree_max, 2);
  EXPECT_DOUBLE_EQ(cfg.workload.exec_mean, 30.0);
  EXPECT_DOUBLE_EQ(cfg.workload.ccr, 2.0);
  EXPECT_DOUBLE_EQ(cfg.slicing.laxity, 1.2);
  EXPECT_EQ(cfg.slicing.base, LaxityBase::kTotalWork);
  EXPECT_EQ(cfg.machine_sizes, (std::vector<int>{2, 4}));
  EXPECT_EQ(cfg.min_reps, 4);
  EXPECT_EQ(cfg.batch_reps, 2);
  EXPECT_EQ(cfg.max_reps, 10);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.threads, 3u);

  ASSERT_EQ(cfg.variants.size(), 2u);
  EXPECT_EQ(cfg.variants[0].kind, AlgorithmVariant::Kind::kEdf);
  const AlgorithmVariant& v = cfg.variants[1];
  EXPECT_EQ(v.label, "mine");
  EXPECT_EQ(v.params.select, SelectRule::kLLB);
  EXPECT_EQ(v.params.branch, BranchRule::kBF1);
  EXPECT_EQ(v.params.lb, LowerBound::kLB2);
  EXPECT_EQ(v.params.ub, UpperBoundInit::kInfinite);
  EXPECT_DOUBLE_EQ(v.params.br, 0.1);
  EXPECT_FALSE(v.params.sort_children);
  EXPECT_TRUE(v.params.llb_tie_newest);
  EXPECT_DOUBLE_EQ(v.params.rb.time_limit_s, 0.5);
  EXPECT_EQ(v.params.rb.max_active, 1000u);
  EXPECT_EQ(v.params.rb.max_children, 16);
}

TEST(Spec, SingleValueRanges) {
  const ExperimentConfig cfg = parse_experiment_spec(
      "workload n=8 depth=3\nvariant edf\n");
  EXPECT_EQ(cfg.workload.n_min, 8);
  EXPECT_EQ(cfg.workload.n_max, 8);
  EXPECT_EQ(cfg.workload.depth_min, 3);
}

TEST(Spec, DefaultsMatchThePaper) {
  const ExperimentConfig cfg = parse_experiment_spec("variant edf\n");
  EXPECT_EQ(cfg.workload.n_min, 12);
  EXPECT_EQ(cfg.workload.n_max, 16);
  EXPECT_DOUBLE_EQ(cfg.slicing.laxity, 1.5);
  EXPECT_EQ(cfg.machine_sizes, (std::vector<int>{2, 3, 4}));
}

TEST(Spec, ExplicitUpperBound) {
  const ExperimentConfig cfg =
      parse_experiment_spec("variant bnb ub=500\n");
  EXPECT_EQ(cfg.variants[0].params.ub, UpperBoundInit::kExplicit);
  EXPECT_EQ(cfg.variants[0].params.explicit_ub, 500);
}

TEST(Spec, ErrorsCarryLineNumbers) {
  try {
    parse_experiment_spec("variant edf\nbogus directive\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Spec, RuleSpellingErrorsCarryLineNumbers) {
  // S, B and L go through the parsers the CLI and the service share.
  try {
    parse_experiment_spec("variant edf\nvariant bnb select=lifo lb=lb9\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(),
                 "spec error at line 2: lb must be lb0, lb1 or lb2 "
                 "(got 'lb9')");
  }
}

TEST(Spec, RejectsBadInput) {
  EXPECT_THROW(parse_experiment_spec(""), std::runtime_error);  // no variant
  EXPECT_THROW(parse_experiment_spec("variant teleport\n"),
               std::runtime_error);
  EXPECT_THROW(parse_experiment_spec("variant bnb select=quantum\n"),
               std::runtime_error);
  EXPECT_THROW(parse_experiment_spec("workload n=abc\nvariant edf\n"),
               std::runtime_error);
  EXPECT_THROW(parse_experiment_spec("machines\nvariant edf\n"),
               std::runtime_error);
  EXPECT_THROW(
      parse_experiment_spec("workload n=8 n=9\nvariant edf\n"),
      std::runtime_error);  // duplicate attribute
  EXPECT_THROW(parse_experiment_spec("variant edf\nseed\n"),
               std::runtime_error);
}

TEST(Spec, LimitsApplyToEveryBnbVariant) {
  const ExperimentConfig cfg = parse_experiment_spec(
      "limit time=2.5\nvariant bnb label=a\nvariant bnb label=b\n");
  for (const AlgorithmVariant& v : cfg.variants) {
    EXPECT_DOUBLE_EQ(v.params.rb.time_limit_s, 2.5);
  }
}

TEST(Spec, ParsedSpecActuallyRuns) {
  const ExperimentConfig cfg = parse_experiment_spec(R"(
workload n=6..7 depth=3
machines 2
reps min=2 batch=2 max=4
seed 5
variant edf
variant bnb label=opt
)");
  const ExperimentResult r = run_experiment(cfg);
  ASSERT_EQ(r.cells.size(), 2u);
  EXPECT_GT(r.cells[1][0].vertices.count(), 0u);
  EXPECT_LE(r.cells[1][0].lateness.mean(),
            r.cells[0][0].lateness.mean() + 1e-9);
}

TEST(Spec, LoadMissingFileThrows) {
  EXPECT_THROW(load_experiment_spec("/no/such.spec"), std::runtime_error);
}

}  // namespace
}  // namespace parabb
