// Grey-failure model: compact spec parsing/formatting round-trips,
// validation, and the deterministic first-match SampleGrey draw.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/rng.h"
#include "fault/fault_plan.h"

namespace nu::fault {
namespace {

TEST(GreyModelTest, ParseSpecForms) {
  const GreyFailureSpec bare = ParseGreySpec("acklie:0.3");
  EXPECT_EQ(bare.kind, GreyKind::kAckLie);
  EXPECT_EQ(bare.probability, 0.3);
  EXPECT_EQ(bare.min_delay, 0.0);
  EXPECT_FALSE(bare.node.valid());

  const GreyFailureSpec delayed = ParseGreySpec("straggler:0.5:0.25:1.5");
  EXPECT_EQ(delayed.kind, GreyKind::kStraggler);
  EXPECT_EQ(delayed.min_delay, 0.25);
  EXPECT_EQ(delayed.max_delay, 1.5);

  const GreyFailureSpec windowed = ParseGreySpec("loss:0.1:1:4:2:6");
  EXPECT_EQ(windowed.kind, GreyKind::kRuleLoss);
  EXPECT_EQ(windowed.start, 2.0);
  EXPECT_EQ(windowed.duration, 6.0);

  const GreyFailureSpec targeted = ParseGreySpec("acklie:0.2:0:0:0:0:5");
  EXPECT_TRUE(targeted.node.valid());
  EXPECT_EQ(targeted.node, NodeId{5});
  EXPECT_FALSE(ParseGreySpec("acklie:0.2:0:0:0:0:-1").node.valid());
}

TEST(GreyModelTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)ParseGreySpec(""), FaultPlanError);
  EXPECT_THROW((void)ParseGreySpec("acklie"), FaultPlanError);
  EXPECT_THROW((void)ParseGreySpec("warp:0.3"), FaultPlanError);
  EXPECT_THROW((void)ParseGreySpec("acklie:x"), FaultPlanError);
  EXPECT_THROW((void)ParseGreySpec("acklie:0.3:1"), FaultPlanError);  // 3 fields
}

TEST(GreyModelTest, ValidateRejectsBadSpecs) {
  GreyFailureModel model;
  model.specs.push_back(ParseGreySpec("acklie:0.5"));
  EXPECT_NO_THROW((void)model.Validate());

  model.specs[0].probability = 1.5;
  EXPECT_THROW((void)model.Validate(), FaultPlanError);
  model.specs[0].probability = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)model.Validate(), FaultPlanError);
  model.specs[0].probability = 0.5;
  model.specs[0].start = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)model.Validate(), FaultPlanError);
  model.specs[0].start = 0.0;

  // Delayed kinds need max_delay > 0; inverted windows are rejected.
  model.specs.push_back(ParseGreySpec("straggler:0.5:0.25:1.5"));
  model.specs[1].min_delay = 0.0;
  model.specs[1].max_delay = 0.0;
  EXPECT_THROW((void)model.Validate(), FaultPlanError);
  model.specs[1].min_delay = 1.5;
  model.specs[1].max_delay = 0.5;
  EXPECT_THROW((void)model.Validate(), FaultPlanError);
}

TEST(GreyModelTest, SpecAndModelRoundTrip) {
  for (const std::string text :
       {"acklie:0.3", "straggler:0.5:0.25:1.5", "loss:0.1:1:4:2:6",
        "acklie:0.2:0:0:0:0:5"}) {
    EXPECT_EQ(FormatGreySpec(ParseGreySpec(text)), text) << text;
  }
  const std::string joined = "acklie:0.3+loss:0.1:1:4";
  const GreyFailureModel model = ParseGreyModel(joined);
  ASSERT_EQ(model.specs.size(), 2u);
  EXPECT_EQ(FormatGreyModel(model), joined);
  EXPECT_TRUE(ParseGreyModel("").specs.empty());
  EXPECT_FALSE(ParseGreyModel("").enabled());
}

TEST(GreyModelTest, SampleIsDeterministicPerSeed) {
  const GreyFailureModel model =
      ParseGreyModel("acklie:0.4+straggler:0.3:0.5:1+loss:0.2:1:2");
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 200; ++i) {
    const Seconds now = 0.1 * static_cast<double>(i);
    const GreyOutcome oa = SampleGrey(model, NodeId{3}, now, a);
    const GreyOutcome ob = SampleGrey(model, NodeId{3}, now, b);
    EXPECT_EQ(oa.kind, ob.kind);
    EXPECT_EQ(oa.delay, ob.delay);
  }
}

TEST(GreyModelTest, FirstMatchingSpecWins) {
  // probability 1 on the first spec: the second can never fire.
  const GreyFailureModel model = ParseGreyModel("acklie:1+loss:1:1:2");
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(SampleGrey(model, NodeId{1}, 0.0, rng).kind,
              GreyOutcome::Kind::kAckLie);
  }
}

TEST(GreyModelTest, WindowAndTargetFilters) {
  // Window [2, 6) on switch 5 only.
  const GreyFailureModel model = ParseGreyModel("acklie:1:0:0:2:4:5");
  Rng rng(7);
  EXPECT_EQ(SampleGrey(model, NodeId{5}, 1.0, rng).kind,
            GreyOutcome::Kind::kApplied);  // before the window
  EXPECT_EQ(SampleGrey(model, NodeId{5}, 2.0, rng).kind,
            GreyOutcome::Kind::kAckLie);
  EXPECT_EQ(SampleGrey(model, NodeId{5}, 6.0, rng).kind,
            GreyOutcome::Kind::kApplied);  // window end is exclusive
  EXPECT_EQ(SampleGrey(model, NodeId{4}, 3.0, rng).kind,
            GreyOutcome::Kind::kApplied);  // different switch
}

TEST(GreyModelTest, DelayedKindsSampleInsideTheirWindow) {
  const GreyFailureModel model = ParseGreyModel("straggler:1:0.5:1.5");
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const GreyOutcome out = SampleGrey(model, NodeId{2}, 0.0, rng);
    ASSERT_EQ(out.kind, GreyOutcome::Kind::kStraggler);
    EXPECT_GE(out.delay, 0.5);
    EXPECT_LT(out.delay, 1.5);
  }
}

TEST(GreyModelTest, FaultConfigEnabledIncludesGrey) {
  FaultConfig config;
  EXPECT_FALSE(config.enabled());
  config.grey = ParseGreyModel("acklie:0.1");
  EXPECT_TRUE(config.enabled());
}

}  // namespace
}  // namespace nu::fault
