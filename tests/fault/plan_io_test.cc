// Fault-plan text serialization: exact round-trips, platform-independent
// bytes (pinned by a golden file), and clear errors on malformed input.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/fault_plan.h"
#include "topo/fat_tree.h"

namespace nu::fault {
namespace {

namespace fs = std::filesystem;

FaultPlan SamplePlan() {
  FaultPlan plan;
  SharedRiskGroup pod;
  pod.name = "pod0";
  pod.nodes = {NodeId{1}, NodeId{2}};
  SharedRiskGroup plane;
  plane.name = "core-plane1";
  plane.nodes = {NodeId{7}};
  plane.links = {LinkId{3}, LinkId{4}};
  const std::size_t pod_idx = plan.AddGroup(pod);
  const std::size_t plane_idx = plan.AddGroup(plane);
  plan.AddLinkOutage(0.5, 2.25, LinkId{11});
  plan.AddSwitchDown(1.0, NodeId{5});
  plan.AddGroupOutage(1.5, 3.0, pod_idx);
  plan.AddRollingDrain(4.0, 0.5, 1.0, plane_idx);
  return plan;
}

TEST(PlanIoTest, RoundTripsExactly) {
  const FaultPlan plan = SamplePlan();
  std::stringstream buf;
  plan.SaveText(buf);
  const FaultPlan loaded = FaultPlan::LoadText(buf);
  EXPECT_EQ(plan, loaded);
  // Second generation byte-identical to the first: the format is a fixed
  // point, not merely semantically stable.
  std::ostringstream first;
  plan.SaveText(first);
  std::ostringstream second;
  loaded.SaveText(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(PlanIoTest, MatchesGoldenBytes) {
  // Pinned across platforms: times serialize via shortest round-trip
  // formatting, so these bytes must not depend on locale or long-double
  // quirks. Regenerate only for an intentional format change:
  //   NU_REGEN_PLAN_GOLDEN=1 build/tests/test_fault
  //       --gtest_filter='*MatchesGoldenBytes*'  (one command line)
  const fs::path golden =
      fs::path(__FILE__).parent_path() / "golden" / "sample_plan.txt";
  std::ostringstream got;
  SamplePlan().SaveText(got);
  const char* regen = std::getenv("NU_REGEN_PLAN_GOLDEN");
  if (regen != nullptr && regen[0] != '\0' && regen[0] != '0') {
    fs::create_directories(golden.parent_path());
    std::ofstream out(golden, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << golden;
    out << got.str();
    GTEST_SKIP() << "golden regenerated into " << golden;
  }
  std::ifstream in(golden, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << golden;
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got.str(), want.str());
  // The golden read back and saved again gives the same bytes.
  std::istringstream golden_text(want.str());
  std::ostringstream resaved;
  FaultPlan::LoadText(golden_text).SaveText(resaved);
  EXPECT_EQ(resaved.str(), want.str());
}

TEST(PlanIoTest, LoadAcceptsCommentsAndBlankLines) {
  std::stringstream in(
      "netupdate-fault-plan v1\n"
      "\n"
      "# a hand-written plan\n"
      "link-down t=1 link=3\n"
      "\n"
      "link-up t=2.5 link=3\n");
  const FaultPlan plan = FaultPlan::LoadText(in);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kLinkDown);
  EXPECT_DOUBLE_EQ(plan.specs()[1].time, 2.5);
}

TEST(PlanIoTest, LoadRejectsMalformedInput) {
  const auto load = [](const std::string& text) {
    std::stringstream in(text);
    return FaultPlan::LoadText(in);
  };
  EXPECT_THROW((void)load("not-a-plan v1\n"), FaultPlanError);
  EXPECT_THROW((void)load("netupdate-fault-plan v2\n"), FaultPlanError);
  EXPECT_THROW((void)load("netupdate-fault-plan v1\nbogus t=1 link=2\n"),
               FaultPlanError);
  EXPECT_THROW((void)load("netupdate-fault-plan v1\nlink-down t=x link=2\n"),
               FaultPlanError);
  // A group fault referencing an undeclared group index.
  EXPECT_THROW((void)load("netupdate-fault-plan v1\ngroup-down t=1 group=0\n"),
               FaultPlanError);
}

TEST(PlanIoTest, MalformedNumbersAndIdsThrow) {
  // Plan lines: a non-finite time must not load, and an id past the 32-bit
  // range must not wrap to link 0.
  for (const char* line :
       {"link-down t=nan link=3", "link-down t=inf link=3",
        "link-down t=-inf link=3", "link-down t=7x link=3",
        "link-down t=1e999 link=3", "link-down t=+1 link=3",
        "link-down t=1 link=3x", "link-down t=1 link=-1",
        "link-down t=1 link=4294967296", "switch-down t=1 node=0x3",
        "group-down t=1 group=1.0", "group g nodes=3x links=",
        "group g nodes=1,,2 links=", "group g nodes= links=4,"}) {
    SCOPED_TRACE(line);
    std::stringstream in(std::string("netupdate-fault-plan v1\n") + line +
                         "\n");
    EXPECT_THROW((void)FaultPlan::LoadText(in), FaultPlanError);
  }
  // Grey specs: no field may be NaN, infinite or partly numeric.
  for (const char* spec :
       {"straggler:nan:nan:nan", "acklie:nan", "acklie:inf", "acklie:7x",
        "loss:0.1:0.5:inf", "loss:0.1:nan:1", "acklie:0.1:0:0:nan:0",
        "acklie:0.1:0:0:0:inf", "acklie:0.1:0:0:-1:0", "acklie:0.1:0:0:0:-5",
        "acklie:0.1:0:0:0:0:3x", "acklie:0.1:0:0:0:0:4294967296",
        "acklie:0.1+loss:nan:1:2"}) {
    SCOPED_TRACE(spec);
    EXPECT_THROW((void)ParseGreyModel(spec), FaultPlanError);
  }
}

TEST(PlanIoTest, FileRoundTrip) {
  const fs::path dir =
      fs::temp_directory_path() / "nu_plan_io_test";
  fs::create_directories(dir);
  const fs::path path = dir / "plan.txt";
  const FaultPlan plan = SamplePlan();
  plan.SaveFile(path.string());
  EXPECT_EQ(plan, FaultPlan::LoadFile(path.string()));
  fs::remove_all(dir);
}

TEST(PlanIoTest, RandomSrlgPlanRoundTripsWithFixedSeed) {
  const topo::FatTree ft(topo::FatTreeConfig{.k = 4, .link_capacity = 100.0});
  Rng rng(1234);
  RandomSrlgFaultOptions options;
  options.incidents = 2;
  const FaultPlan plan =
      MakeRandomSrlgFaultPlan(DeriveFatTreeSrlgs(ft), options, rng);
  std::stringstream buf;
  plan.SaveText(buf);
  EXPECT_EQ(plan, FaultPlan::LoadText(buf));
}

}  // namespace
}  // namespace nu::fault
