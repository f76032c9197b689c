#include "cac/sir_controller.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cellular/network.hpp"
#include "cellular/policy_registry.hpp"

namespace facs::cac {
namespace {

using cellular::AdmissionContext;
using cellular::CallRequest;
using cellular::HexNetwork;
using cellular::ServiceClass;
using cellular::Vec2;

CallRequest request(ServiceClass service, Vec2 position) {
  CallRequest r;
  r.call = 1;
  r.service = service;
  r.demand_bu = cellular::profileFor(service).demand_bu;
  r.snapshot.position = position;
  r.target_cell = 0;
  return r;
}

TEST(SirController, QuietNetworkAdmitsEveryone) {
  const HexNetwork net{1};
  SirController sir{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  for (const auto s :
       {ServiceClass::Text, ServiceClass::Voice, ServiceClass::Video}) {
    EXPECT_TRUE(sir.decide(request(s, {1.0, 0.0}), ctx).accept)
        << toString(s);
  }
  EXPECT_EQ(sir.name(), "SIR");
}

TEST(SirController, InterferedEdgeRejectsVideoFirst) {
  HexNetwork net{1};
  // Load every neighbour fully: worst-case co-channel interference.
  for (cellular::CellId id = 1; id < 7; ++id) {
    net.station(id).allocate(id, 40, true);
  }
  SirController sir{net};
  const AdmissionContext ctx{net.station(0), 0.0};

  // At the cell edge the SINR is low: the video threshold (5 dB) fails
  // before the text threshold (-3 dB).
  const Vec2 edge{8.5, 0.0};
  const auto video = sir.decide(request(ServiceClass::Video, edge), ctx);
  const auto text = sir.decide(request(ServiceClass::Text, edge), ctx);
  EXPECT_FALSE(video.accept);
  EXPECT_TRUE(text.accept);
  EXPECT_LT(video.score, text.score);
}

TEST(SirController, CellCentreSurvivesInterference) {
  HexNetwork net{1};
  for (cellular::CellId id = 1; id < 7; ++id) {
    net.station(id).allocate(id, 40, true);
  }
  SirController sir{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  EXPECT_TRUE(
      sir.decide(request(ServiceClass::Video, {0.5, 0.0}), ctx).accept);
}

TEST(SirController, StillRequiresBandwidth) {
  HexNetwork net{1};
  net.station(0).allocate(99, 35, true);  // 5 BU free
  SirController sir{net};
  const AdmissionContext ctx{net.station(0), 0.0, /*explain=*/true};
  const auto d = sir.decide(request(ServiceClass::Video, {0.5, 0.0}), ctx);
  EXPECT_FALSE(d.accept);  // SINR fine, bandwidth not
  EXPECT_EQ(d.reason, cellular::ReasonCode::NoCapacity);
  EXPECT_NE(d.rationale.find("no free BU"), std::string::npos);
}

TEST(SirController, CustomThresholds) {
  const HexNetwork net{1};
  SirThresholds strict;
  strict.min_sinr_db = {60.0, 60.0, 60.0};  // unreachably clean
  SirController sir{net, strict};
  const AdmissionContext ctx{net.station(0), 0.0};
  EXPECT_FALSE(sir.decide(request(ServiceClass::Text, {1.0, 0.0}), ctx).accept);
  EXPECT_DOUBLE_EQ(sir.threshold(ServiceClass::Voice), 60.0);
}

TEST(SirController, ReadsEveryLedgerLive) {
  // A ledger change in another cell shows in the very next decision: the
  // controller runs on one commit group, so it never reads a snapshot.
  HexNetwork net{1};
  SirController sir{net};
  const AdmissionContext ctx{net.station(0), 0.0};
  const CallRequest video = request(ServiceClass::Video, {8.5, 0.0});
  EXPECT_TRUE(sir.decide(video, ctx).accept);  // quiet network
  net.station(3).allocate(1, 40, true);        // eastern neighbour fills up
  EXPECT_FALSE(sir.decide(video, ctx).accept);
  EXPECT_FALSE(sir.cellLocal());
  EXPECT_TRUE(sir.auditWorkload({120.0, 10.0}).empty());
}

TEST(SirController, RegistryBuiltSirTakesThresholdsAndRejectsRadius) {
  const HexNetwork net{1};
  auto& runtime = cellular::PolicyRuntime::defaultRuntime();

  // Thresholds reach the controller: nothing clears 60 dB.
  const std::unique_ptr<cellular::AdmissionController> strict =
      runtime.makeController("sir:60,60,60", net);
  const AdmissionContext ctx{net.station(0), 0.0};
  EXPECT_FALSE(
      strict->decide(request(ServiceClass::Text, {1.0, 0.0}), ctx).accept);

  // `radius` is not a sir key: the registry rejects it.
  for (const std::string radius : {"radius=1", "radius=-1"}) {
    EXPECT_THROW((void)runtime.makeController("sir:" + radius, net),
                 cellular::PolicySpecError)
        << radius;
  }
}

}  // namespace
}  // namespace facs::cac
