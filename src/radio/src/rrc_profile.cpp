#include "radio/rrc_profile.hpp"

namespace d2dhb::radio {

// Calibration note (see DESIGN.md §5): one isolated 54 B heartbeat on the
// WCDMA profile draws
//   promotion 1.8 s · 400 mA + burst 0.4 s · 650 mA
//   + DCH tail 2.8 s · 330 mA + FACH tail 2.0 s · 125 mA
//   = 2154 mA·s = 598.3 µAh
// of cellular-radio charge, and one full RRC cycle emits 8 layer-3
// messages (5 setup + 1 demotion + 2 release) — the original-system
// slope of the paper's Fig. 15.
RrcProfile wcdma_profile() {
  RrcProfile p;
  p.name = "WCDMA";
  p.promotion_delay = milliseconds(1800);
  p.reconfig_delay = milliseconds(600);
  p.high_inactivity = milliseconds(2800);
  p.low_inactivity = milliseconds(2000);
  p.min_tx_duration = milliseconds(400);
  p.uplink_bytes_per_second = 200'000.0;
  p.idle_current = MilliAmps{0.0};
  p.promotion_current = MilliAmps{400.0};
  p.high_current = MilliAmps{330.0};
  p.tx_extra_current = MilliAmps{320.0};
  p.low_current = MilliAmps{125.0};
  p.setup_sequence = {
      L3MessageType::rrc_connection_request,
      L3MessageType::rrc_connection_setup,
      L3MessageType::rrc_connection_setup_complete,
      L3MessageType::radio_bearer_setup,
      L3MessageType::radio_bearer_setup_complete,
  };
  p.high_to_low_sequence = {L3MessageType::physical_channel_reconfiguration};
  p.low_to_high_sequence = {
      L3MessageType::physical_channel_reconfiguration,
      L3MessageType::measurement_report,
  };
  p.release_sequence = {
      L3MessageType::rrc_connection_release,
      L3MessageType::rrc_connection_release_complete,
  };
  p.rb_reconfig_sequence = {L3MessageType::radio_bearer_reconfiguration};
  p.rb_reconfig_threshold = Bytes{150};
  return p;
}

const RrcProfilePtr& shared_wcdma_profile() {
  static const RrcProfilePtr profile =
      std::make_shared<const RrcProfile>(wcdma_profile());
  return profile;
}

// LTE: fast promotion, higher active draw, long connected-DRX tail.
RrcProfile lte_profile() {
  RrcProfile p;
  p.name = "LTE";
  p.promotion_delay = milliseconds(300);
  p.reconfig_delay = milliseconds(100);
  p.high_inactivity = milliseconds(1000);
  p.low_inactivity = milliseconds(10000);
  p.min_tx_duration = milliseconds(250);
  p.uplink_bytes_per_second = 2'000'000.0;
  p.idle_current = MilliAmps{0.0};
  p.promotion_current = MilliAmps{450.0};
  p.high_current = MilliAmps{420.0};
  p.tx_extra_current = MilliAmps{380.0};
  p.low_current = MilliAmps{60.0};  // connected DRX
  p.setup_sequence = {
      L3MessageType::rrc_connection_request,
      L3MessageType::rrc_connection_setup,
      L3MessageType::rrc_connection_setup_complete,
      L3MessageType::security_mode_command,
      L3MessageType::radio_bearer_setup,
  };
  p.high_to_low_sequence = {};  // DRX entry is not an RRC exchange in LTE
  p.low_to_high_sequence = {L3MessageType::physical_channel_reconfiguration};
  p.release_sequence = {
      L3MessageType::rrc_connection_release,
      L3MessageType::rrc_connection_release_complete,
  };
  p.rb_reconfig_sequence = {L3MessageType::radio_bearer_reconfiguration};
  p.rb_reconfig_threshold = Bytes{300};
  return p;
}

}  // namespace d2dhb::radio
