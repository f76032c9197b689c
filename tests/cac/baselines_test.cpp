#include "cac/baselines.hpp"

#include <gtest/gtest.h>

namespace facs::cac {
namespace {

using cellular::AdmissionContext;
using cellular::BaseStation;
using cellular::CallRequest;
using cellular::ServiceClass;

CallRequest request(ServiceClass service, bool handoff = false) {
  CallRequest r;
  r.call = 1;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.is_handoff = handoff;
  return r;
}

TEST(CompleteSharing, AdmitsWheneverItFits) {
  CompleteSharingController cs;
  BaseStation bs{0, 40};
  bs.allocate(99, 31, true);  // 9 BU free
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_TRUE(cs.decide(request(ServiceClass::Text), ctx).accept);
  EXPECT_TRUE(cs.decide(request(ServiceClass::Voice), ctx).accept);
  EXPECT_FALSE(cs.decide(request(ServiceClass::Video), ctx).accept);
  EXPECT_EQ(cs.name(), "CS");
}

TEST(CompleteSharing, ExactFitAdmitted) {
  CompleteSharingController cs;
  BaseStation bs{0, 40};
  bs.allocate(99, 30, true);  // exactly 10 free
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_TRUE(cs.decide(request(ServiceClass::Video), ctx).accept);
}

TEST(GuardChannel, ValidatesGuard) {
  EXPECT_THROW(GuardChannelController(-1), std::invalid_argument);
  EXPECT_NO_THROW(GuardChannelController(0));
}

TEST(GuardChannel, NewCallsSeeReducedCapacity) {
  GuardChannelController gc{8};
  BaseStation bs{0, 40};
  bs.allocate(99, 25, true);  // 15 free; new calls may use 15 - 8 = 7
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_TRUE(gc.decide(request(ServiceClass::Voice), ctx).accept);   // 5 <= 7
  EXPECT_FALSE(gc.decide(request(ServiceClass::Video), ctx).accept);  // 10 > 7
  EXPECT_EQ(gc.guardBu(), 8);
}

TEST(GuardChannel, HandoffsUseTheGuard) {
  GuardChannelController gc{8};
  BaseStation bs{0, 40};
  bs.allocate(99, 25, true);
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_TRUE(gc.decide(request(ServiceClass::Video, /*handoff=*/true), ctx)
                  .accept);  // 10 <= 15
}

TEST(GuardChannel, ZeroGuardEqualsCompleteSharing) {
  GuardChannelController gc{0};
  CompleteSharingController cs;
  BaseStation bs{0, 40};
  bs.allocate(99, 31, true);
  const AdmissionContext ctx{bs, 0.0};
  for (const auto s :
       {ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video}) {
    EXPECT_EQ(gc.decide(request(s), ctx).accept,
              cs.decide(request(s), ctx).accept);
  }
}

TEST(MultiThreshold, ValidatesThresholds) {
  const std::array<cellular::BandwidthUnits, cellular::kServiceClassCount>
      bad{-1, 0, 0};
  EXPECT_THROW(MultiThresholdController{bad}, std::invalid_argument);
}

TEST(MultiThreshold, PerClassCutoffs) {
  // Text admitted up to 38 BU occupied, voice up to 30, video up to 20.
  MultiThresholdController mt{{38, 30, 20}};
  BaseStation bs{0, 40};
  bs.allocate(99, 25, true);  // occupied 25
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_TRUE(mt.decide(request(ServiceClass::Text), ctx).accept);
  EXPECT_TRUE(mt.decide(request(ServiceClass::Voice), ctx).accept);
  EXPECT_FALSE(mt.decide(request(ServiceClass::Video), ctx).accept);
  EXPECT_EQ(mt.threshold(ServiceClass::Video), 20);
}

TEST(MultiThreshold, StillRequiresPhysicalFit) {
  MultiThresholdController mt{{40, 40, 40}};
  BaseStation bs{0, 40};
  bs.allocate(99, 35, true);  // 5 free; thresholds allow everything
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_TRUE(mt.decide(request(ServiceClass::Voice), ctx).accept);
  EXPECT_FALSE(mt.decide(request(ServiceClass::Video), ctx).accept);
}

TEST(Baselines, ScoresAreSigned) {
  CompleteSharingController cs;
  BaseStation bs{0, 40};
  const AdmissionContext ctx{bs, 0.0};
  EXPECT_GT(cs.decide(request(ServiceClass::Text), ctx).score, 0.0);
  BaseStation full{1, 40};
  full.allocate(99, 40, true);
  const AdmissionContext full_ctx{full, 0.0};
  EXPECT_LT(cs.decide(request(ServiceClass::Text), full_ctx).score, 0.0);
}

}  // namespace
}  // namespace facs::cac
