#include "core/phone.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

namespace d2dhb::core {
namespace {

class PhoneTest : public ::testing::Test {
 protected:
  PhoneTest() : medium_(sim_, nodes_, d2d::WifiDirectMedium::Params{}, 1) {}

  /// Direct Phone construction wants a non-owning model reference (in a
  /// Scenario the model lives in the strip arena); the fixture plays
  /// the arena's role and owns the models for the test's lifetime.
  PhoneConfig config(mobility::Vec2 pos = {0.0, 0.0}) {
    models_.push_back(std::make_unique<mobility::StaticMobility>(pos));
    PhoneConfig pc;
    pc.mobility_ref = models_.back().get();
    return pc;
  }

  sim::Simulator sim_;
  world::NodeTable nodes_;
  d2d::WifiDirectMedium medium_;
  radio::SignalingCounter signaling_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> models_;
};

TEST_F(PhoneTest, AssemblesAllComponents) {
  Phone phone{sim_, NodeId{1}, config(), medium_, signaling_};
  EXPECT_EQ(phone.id(), NodeId{1});
  EXPECT_EQ(phone.modem().owner(), NodeId{1});
  EXPECT_EQ(phone.wifi().owner(), NodeId{1});
  // Components: baseline + cellular + wifi.
  EXPECT_EQ(phone.meter().component_count(), 3u);
  EXPECT_EQ(phone.meter().component_name(energy::ComponentHandle{1}),
            "cellular:WCDMA");
}

TEST_F(PhoneTest, DefaultConfigSharesTheProcessWideProfiles) {
  Phone a{sim_, NodeId{1}, config(), medium_, signaling_};
  Phone b{sim_, NodeId{2}, config({1.0, 0.0}), medium_, signaling_};
  EXPECT_EQ(&a.modem().profile(), radio::shared_wcdma_profile().get());
  EXPECT_EQ(&b.modem().profile(), &a.modem().profile());
  EXPECT_EQ(&a.wifi().profile(), d2d::shared_default_energy_profile().get());
  EXPECT_EQ(&b.wifi().profile(), &a.wifi().profile());
}

TEST_F(PhoneTest, RequiresMobility) {
  PhoneConfig pc;  // mobility left null
  EXPECT_THROW(
      (Phone{sim_, NodeId{1}, std::move(pc), medium_, signaling_}),
      std::invalid_argument);
}

TEST_F(PhoneTest, BaselineDrawsButRadioChargeExcludesIt) {
  Phone phone{sim_, NodeId{1}, config(), medium_, signaling_};
  sim_.run_until(TimePoint{} + seconds(36));
  // Baseline 40 mA for 36 s = 400 µAh total, but radios drew nothing.
  EXPECT_NEAR(phone.total_charge().value, 400.0, 1e-6);
  EXPECT_DOUBLE_EQ(phone.radio_charge().value, 0.0);
  EXPECT_DOUBLE_EQ(phone.cellular_charge().value, 0.0);
  EXPECT_DOUBLE_EQ(phone.wifi_charge().value, 0.0);
}

TEST_F(PhoneTest, RegisteredOnMedium) {
  Phone phone{sim_, NodeId{1}, config({3.0, 4.0}), medium_, signaling_};
  const auto pos = medium_.position_of(NodeId{1});
  EXPECT_DOUBLE_EQ(pos.x, 3.0);
  EXPECT_DOUBLE_EQ(pos.y, 4.0);
}

TEST_F(PhoneTest, CellularTransmitChargesCellularComponent) {
  Phone phone{sim_, NodeId{1}, config(), medium_, signaling_};
  net::UplinkBundle bundle;
  bundle.sender = phone.id();
  net::HeartbeatMessage m;
  m.id = MessageId{1};
  m.origin = phone.id();
  m.size = Bytes{54};
  bundle.messages = {m};
  phone.modem().transmit(std::move(bundle));
  sim_.run_until(TimePoint{} + seconds(20));
  EXPECT_NEAR(phone.cellular_charge().value, 598.3, 1.0);
  EXPECT_DOUBLE_EQ(phone.wifi_charge().value, 0.0);
  EXPECT_NEAR(phone.radio_charge().value, phone.cellular_charge().value,
              1e-9);
}

TEST_F(PhoneTest, CustomRrcProfileIsUsed) {
  const auto lte = std::make_shared<const radio::RrcProfile>(
      radio::lte_profile());
  PhoneConfig pc = config();
  pc.rrc = lte;
  Phone phone{sim_, NodeId{1}, std::move(pc), medium_, signaling_};
  EXPECT_EQ(&phone.modem().profile(), lte.get());
  EXPECT_EQ(phone.modem().profile().name, "LTE");
  EXPECT_EQ(phone.meter().component_name(energy::ComponentHandle{1}),
            "cellular:LTE");
}

TEST_F(PhoneTest, RequiresAnRrcProfile) {
  PhoneConfig pc = config();
  pc.rrc = nullptr;
  EXPECT_THROW(
      (Phone{sim_, NodeId{1}, std::move(pc), medium_, signaling_}),
      std::invalid_argument);
}

}  // namespace
}  // namespace d2dhb::core
