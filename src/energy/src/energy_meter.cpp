#include "energy/energy_meter.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace d2dhb::energy {

ComponentHandle EnergyMeter::register_component(std::string name,
                                                MilliAmps initial) {
  // Grow by exactly one: a phone registers three components, and a
  // doubling vector would hold four slots for them in every phone.
  components_.reserve(components_.size() + 1);
  components_.push_back(Component{std::move(name), initial, MicroAmpHours{},
                                  sim_.now(), nullptr});
  return ComponentHandle{components_.size() - 1};
}

EnergyMeter::ReadPoint EnergyMeter::read_point() const {
  return ReadPoint{sim_.now(), sim_.executing_seq()};
}

void EnergyMeter::integrate_to(Component& c, TimePoint t) {
  if (t > c.last_update) {
    c.accumulated += integrate(c.current, t - c.last_update);
    c.last_update = t;
  }
}

void EnergyMeter::apply_due(Component& c, ReadPoint at) {
  if (!c.steps) return;
  std::vector<Step>& steps = *c.steps;
  std::size_t due = 0;
  for (const Step& step : steps) {
    if (step.at > at.now || (step.at == at.now && step.seq >= at.seq)) break;
    integrate_to(c, step.at);
    c.current += step.delta;
    ++due;
  }
  if (due == steps.size()) {
    c.steps.reset();  // drained: release the storage
  } else {
    steps.erase(steps.begin(),
                steps.begin() + static_cast<std::ptrdiff_t>(due));
  }
}

void EnergyMeter::settle(Component& c, ReadPoint at) {
  apply_due(c, at);
  integrate_to(c, at.now);
}

void EnergyMeter::set_current(ComponentHandle component, MilliAmps current) {
  auto& c = components_.at(component.index);
  settle(c, read_point());
  c.current = current;
}

void EnergyMeter::add_current(ComponentHandle component, MilliAmps delta) {
  auto& c = components_.at(component.index);
  settle(c, read_point());
  c.current += delta;
}

void EnergyMeter::add_load(ComponentHandle component, MilliAmps extra,
                           Duration duration) {
  if (duration <= Duration::zero()) {
    throw std::invalid_argument("EnergyMeter::add_load: duration must be > 0");
  }
  add_current(component, extra);
  add_step(component, duration, reserve_seq(), MilliAmps{-extra.value});
}

void EnergyMeter::add_step(ComponentHandle component, Duration delay,
                           std::uint64_t seq, MilliAmps delta) {
  if (delay <= Duration::zero()) {
    throw std::invalid_argument("EnergyMeter::add_step: delay must be > 0");
  }
  auto& c = components_.at(component.index);
  if (!c.steps) c.steps = std::make_unique<std::vector<Step>>();
  const Step step{sim_.now() + delay, seq, delta};
  const auto later = std::upper_bound(
      c.steps->begin(), c.steps->end(), step, [](const Step& a, const Step& b) {
        return a.at != b.at ? a.at < b.at : a.seq < b.seq;
      });
  c.steps->insert(later, step);
}

MilliAmps EnergyMeter::instantaneous() {
  const ReadPoint at = read_point();
  MilliAmps sum;
  for (auto& c : components_) {
    apply_due(c, at);
    sum += c.current;
  }
  return sum;
}

MilliAmps EnergyMeter::component_current(ComponentHandle component) {
  auto& c = components_.at(component.index);
  apply_due(c, read_point());
  return c.current;
}

std::size_t EnergyMeter::step_capacity(ComponentHandle component) const {
  const auto& steps = components_.at(component.index).steps;
  return steps ? steps->capacity() : 0;
}

MicroAmpHours EnergyMeter::total_charge() {
  const ReadPoint at = read_point();
  MicroAmpHours sum;
  for (auto& c : components_) {
    settle(c, at);
    sum += c.accumulated;
  }
  return sum;
}

MicroAmpHours EnergyMeter::component_charge(ComponentHandle component) {
  auto& c = components_.at(component.index);
  settle(c, read_point());
  return c.accumulated;
}

const std::string& EnergyMeter::component_name(
    ComponentHandle component) const {
  return components_.at(component.index).name;
}

void EnergyMeter::print_report(std::ostream& os) {
  const double total = total_charge().value;  // settles everything
  os << "  component            now (mA)   charge (uAh)   share\n";
  for (const auto& c : components_) {
    const double share = total > 0.0 ? c.accumulated.value / total : 0.0;
    os << "  " << std::left << std::setw(20) << c.name << std::right
       << std::fixed << std::setw(9) << std::setprecision(1)
       << c.current.value << "   " << std::setw(12) << std::setprecision(1)
       << c.accumulated.value << "   " << std::setw(5)
       << std::setprecision(1) << share * 100.0 << "%\n";
  }
  os << "  " << std::left << std::setw(20) << "TOTAL" << std::right
     << std::setw(9) << ' ' << "   " << std::fixed << std::setw(12)
     << std::setprecision(1) << total << "\n";
}

}  // namespace d2dhb::energy
