#include "core/phone.hpp"

#include <stdexcept>
#include <utility>

namespace d2dhb::core {

Phone::Phone(sim::Simulator& sim, NodeId id, PhoneConfig config,
             d2d::WifiDirectMedium& medium,
             radio::SignalingCounter& signaling)
    : id_(id),
      // A still-owning config (mobility set, no ref) cannot be accepted
      // here: the unique_ptr dies with the by-value parameter. Scenario
      // adopts the model into a strip arena and fills mobility_ref
      // before construction; standalone builders pass mobility_ref.
      mobility_(config.mobility_ref != nullptr
                    ? config.mobility_ref
                    : throw std::invalid_argument(
                          "PhoneConfig.mobility is required")),
      meter_(sim),
      baseline_(meter_.register_component("baseline",
                                          config.baseline_current)),
      modem_(sim, id, std::move(config.rrc), meter_, signaling),
      wifi_(sim, id, medium, *mobility_, meter_,
            std::move(config.d2d_energy)) {
  // Per-node energy roll-ups, evaluated at snapshot time. The component
  // radios register their own energy.*_uah gauges; these add the
  // radio-attributable sum and the everything-included total.
  auto& reg = sim.metrics();
  reg.gauge_fn("energy.radio_uah", {id_.value, -1, "phone"}, *this,
               [](Phone& p) { return p.radio_charge().value; });
  reg.gauge_fn("energy.total_uah", {id_.value, -1, "phone"}, *this,
               [](Phone& p) { return p.total_charge().value; });
}

}  // namespace d2dhb::core
