#include "parabb/bnb/params.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace parabb {
namespace {

TEST(ParamsToString, SelectRules) {
  EXPECT_EQ(to_string(SelectRule::kLLB), "LLB");
  EXPECT_EQ(to_string(SelectRule::kFIFO), "FIFO");
  EXPECT_EQ(to_string(SelectRule::kLIFO), "LIFO");
}

TEST(ParamsToString, BranchRules) {
  EXPECT_EQ(to_string(BranchRule::kBFn), "BFn");
  EXPECT_EQ(to_string(BranchRule::kBF1), "BF1");
  EXPECT_EQ(to_string(BranchRule::kDF), "DF");
}

TEST(ParamsToString, ElimRules) {
  EXPECT_EQ(to_string(ElimRule::kNone), "none");
  EXPECT_EQ(to_string(ElimRule::kUDBAS), "U/DBAS");
}

TEST(ParamsToString, LowerBounds) {
  EXPECT_EQ(to_string(LowerBound::kLB0), "LB0");
  EXPECT_EQ(to_string(LowerBound::kLB1), "LB1");
  EXPECT_EQ(to_string(LowerBound::kLB2), "LB2");
}

TEST(ParamsToString, UpperBoundInits) {
  EXPECT_EQ(to_string(UpperBoundInit::kInfinite), "inf");
  EXPECT_EQ(to_string(UpperBoundInit::kFromEDF), "EDF");
  EXPECT_EQ(to_string(UpperBoundInit::kExplicit), "explicit");
}

TEST(ParamsDescribe, DefaultsMatchThePaperBestConfig) {
  const std::string d = describe(Params{});
  EXPECT_EQ(d, "B=BFn S=LIFO E=U/DBAS L=LB1 U=EDF BR=0%");
}

TEST(ParamsDescribe, ReflectsOverrides) {
  Params p;
  p.select = SelectRule::kLLB;
  p.branch = BranchRule::kDF;
  p.lb = LowerBound::kLB0;
  p.ub = UpperBoundInit::kInfinite;
  p.br = 0.10;
  const std::string d = describe(p);
  EXPECT_NE(d.find("S=LLB"), std::string::npos);
  EXPECT_NE(d.find("B=DF"), std::string::npos);
  EXPECT_NE(d.find("L=LB0"), std::string::npos);
  EXPECT_NE(d.find("U=inf"), std::string::npos);
  EXPECT_NE(d.find("BR=10%"), std::string::npos);
}

TEST(ParamsDefaults, ResourceBoundsAreUnlimited) {
  const Params p;
  EXPECT_TRUE(std::isinf(p.rb.time_limit_s));
  EXPECT_EQ(p.rb.max_active, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(p.rb.max_children, std::numeric_limits<int>::max());
  EXPECT_FALSE(static_cast<bool>(p.characteristic));
  EXPECT_FALSE(p.dominance);
  EXPECT_EQ(p.observe, nullptr);
  EXPECT_TRUE(p.sort_children);
  EXPECT_FALSE(p.llb_tie_newest);
}

}  // namespace
}  // namespace parabb
