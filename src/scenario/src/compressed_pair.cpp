#include "scenario/compressed_pair.hpp"

#include <algorithm>
#include <memory>

#include "apps/app_profile.hpp"
#include "scenario/scenario.hpp"

namespace d2dhb::scenario {

namespace {

apps::AppProfile compressed_app(const CompressedPairConfig& config) {
  apps::AppProfile app = apps::standard_app();
  app.heartbeat_period = seconds(config.period_s);
  app.heartbeat_size = Bytes{config.heartbeat_bytes};
  app.expiry = seconds(config.period_s);
  return app;
}

/// The radio profiles of one run: made once and shared by its phones.
struct PairProfiles {
  radio::RrcProfilePtr rrc;
  d2d::D2dEnergyProfilePtr d2d_energy;
};

PairProfiles pair_profiles(const CompressedPairConfig& config) {
  return PairProfiles{
      config.use_lte
          ? std::make_shared<const radio::RrcProfile>(radio::lte_profile())
          : radio::shared_wcdma_profile(),
      std::make_shared<const d2d::D2dEnergyProfile>(config.technology.energy)};
}

core::PhoneConfig phone_config(const PairProfiles& profiles,
                               mobility::Vec2 position) {
  core::PhoneConfig pc;
  pc.rrc = profiles.rrc;
  pc.d2d_energy = profiles.d2d_energy;
  pc.mobility = std::make_unique<mobility::StaticMobility>(position);
  return pc;
}

Duration settle_tail() { return seconds(30); }

void fill_common(Scenario& world, PairMetrics& metrics) {
  metrics.server = world.server().totals();
  metrics.system_l3 = world.bs().signaling().total();
  metrics.metrics = world.metrics_snapshot();
}

}  // namespace

PairMetrics run_d2d_pair(const CompressedPairConfig& config) {
  Scenario world{
      Scenario::Params{config.seed, config.technology.medium, {}}};
  const apps::AppProfile app = compressed_app(config);
  const PairProfiles profiles = pair_profiles(config);

  // Relay at the origin; UEs on a circle of the configured radius.
  core::Phone& relay_phone =
      world.add_phone(phone_config(profiles, mobility::Vec2{0.0, 0.0}));
  core::RelayAgent::Params relay_params;
  relay_params.own_app = app;
  relay_params.scheduler.capacity = config.capacity;
  relay_params.scheduler.max_own_delay =
      config.own_delay_s > 0.0 ? seconds(config.own_delay_s)
                               : app.heartbeat_period;
  relay_params.scheduler.deadline_margin = seconds(config.period_s / 10.0);
  relay_params.scheduler.collect_between_windows =
      config.collect_between_windows;
  core::RelayAgent& relay = world.add_relay(relay_phone, relay_params);
  relay.own_app().set_max_emissions(config.transmissions);
  world.register_session(relay_phone, 3 * app.heartbeat_period);

  std::vector<core::Phone*> ue_phones;
  for (std::size_t i = 0; i < config.num_ues; ++i) {
    const double angle =
        2.0 * 3.14159265358979323846 * static_cast<double>(i) /
        static_cast<double>(std::max<std::size_t>(config.num_ues, 1));
    const mobility::Vec2 pos{config.ue_distance_m * std::cos(angle),
                             config.ue_distance_m * std::sin(angle)};
    core::Phone& phone = world.add_phone(phone_config(profiles, pos));
    ue_phones.push_back(&phone);
    core::UeAgent::Params ue_params;
    ue_params.app = app;
    ue_params.match.max_distance = Meters{config.max_match_distance_m};
    ue_params.feedback_timeout = seconds(1.5 * config.period_s + 10.0);
    core::UeAgent& ue = world.add_ue(phone, ue_params);
    ue.app().set_max_emissions(config.transmissions);
    world.register_session(phone, 3 * app.heartbeat_period);
  }

  relay.start();
  std::size_t ue_index = 0;
  for (auto& ue : world.ues()) {
    ue->start(app.heartbeat_period +
              seconds(config.ue_offset_spread_s *
                      static_cast<double>(ue_index++)));
  }

  const Duration horizon =
      seconds(config.period_s * static_cast<double>(config.transmissions + 1)) +
      seconds(config.ue_offset_spread_s *
              static_cast<double>(config.num_ues)) +
      settle_tail();
  world.sim().run_until(TimePoint{} + horizon);

  PairMetrics metrics;
  metrics.relay_uah = relay_phone.radio_charge().value;
  for (core::Phone* phone : ue_phones) {
    metrics.ue_uah.push_back(phone->radio_charge().value);
    metrics.ue_uah_total += phone->radio_charge().value;
    metrics.ue_l3 += world.bs().signaling().count_for(phone->id());
  }
  metrics.system_uah = metrics.relay_uah + metrics.ue_uah_total;
  metrics.relay_l3 = world.bs().signaling().count_for(relay_phone.id());
  metrics.bundles = relay.stats().bundles_sent;
  metrics.mean_bundle_size = relay.scheduler().stats().mean_bundle_size();
  metrics.forwarded = relay.stats().forwarded_received;
  for (auto& ue : world.ues()) {
    metrics.fallbacks += ue->stats().fallback_cellular;
    metrics.link_losses += ue->stats().link_losses;
  }
  metrics.relay_credits = world.ledger().balance(relay_phone.id());
  fill_common(world, metrics);
  return metrics;
}

PairMetrics run_original_pair(const CompressedPairConfig& config) {
  Scenario world{Scenario::Params{config.seed, {}, {}}};
  const apps::AppProfile app = compressed_app(config);
  const PairProfiles profiles = pair_profiles(config);

  core::Phone& relay_phone =
      world.add_phone(phone_config(profiles, mobility::Vec2{0.0, 0.0}));
  core::OriginalAgent& relay_agent = world.add_original(relay_phone, app);
  relay_agent.apps().front()->set_max_emissions(config.transmissions);
  world.register_session(relay_phone, 3 * app.heartbeat_period);

  std::vector<core::Phone*> ue_phones;
  for (std::size_t i = 0; i < config.num_ues; ++i) {
    const mobility::Vec2 pos{config.ue_distance_m, 0.0};
    core::Phone& phone = world.add_phone(phone_config(profiles, pos));
    ue_phones.push_back(&phone);
    core::OriginalAgent& agent = world.add_original(phone, app);
    agent.apps().front()->set_max_emissions(config.transmissions);
    world.register_session(phone, 3 * app.heartbeat_period);
  }

  for (auto& agent : world.originals()) agent->start();

  const Duration horizon =
      seconds(config.period_s * static_cast<double>(config.transmissions + 1)) +
      settle_tail();
  world.sim().run_until(TimePoint{} + horizon);

  PairMetrics metrics;
  metrics.relay_uah = relay_phone.radio_charge().value;
  for (core::Phone* phone : ue_phones) {
    metrics.ue_uah.push_back(phone->radio_charge().value);
    metrics.ue_uah_total += phone->radio_charge().value;
    metrics.ue_l3 += world.bs().signaling().count_for(phone->id());
  }
  metrics.system_uah = metrics.relay_uah + metrics.ue_uah_total;
  metrics.relay_l3 = world.bs().signaling().count_for(relay_phone.id());
  metrics.bundles = world.bs().bundles_received();
  metrics.mean_bundle_size = 1.0;
  fill_common(world, metrics);
  return metrics;
}

Savings compare(const PairMetrics& original, const PairMetrics& d2d) {
  Savings s;
  if (original.system_uah > 0.0) {
    s.system_energy_fraction =
        (original.system_uah - d2d.system_uah) / original.system_uah;
  }
  if (original.ue_uah_total > 0.0) {
    s.ue_energy_fraction =
        (original.ue_uah_total - d2d.ue_uah_total) / original.ue_uah_total;
  }
  if (original.system_l3 > 0) {
    s.signaling_fraction =
        static_cast<double>(original.system_l3 - d2d.system_l3) /
        static_cast<double>(original.system_l3);
  }
  const double wasted = d2d.relay_uah - original.relay_uah;
  const double saved = original.ue_uah_total - d2d.ue_uah_total;
  if (saved > 0.0) s.wasted_over_saved = wasted / saved;
  return s;
}

}  // namespace d2dhb::scenario
