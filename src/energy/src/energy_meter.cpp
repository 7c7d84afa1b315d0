#include "energy/energy_meter.hpp"

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
                                  sim_.now(), {}});
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

MilliAmps EnergyMeter::Pending::delta() const {
  if (!plan) return MilliAmps{scale};
  const PhasePlan::Step& step = plan->steps[next];
  const double amps = scale * step.weight;
  return MilliAmps{step.up ? amps : -amps};
}

void EnergyMeter::apply_due(Component& c, ReadPoint at) {
  std::vector<Pending>& pending = c.pending;
  if (pending.empty()) return;
  for (;;) {
    // The earliest head; seqs are unique, so (time, seq) is strict.
    std::size_t first = 0;
    TimePoint first_at = pending[0].at();
    std::uint64_t first_seq = pending[0].seq();
    for (std::size_t i = 1; i < pending.size(); ++i) {
      const TimePoint t = pending[i].at();
      if (t > first_at) continue;
      const std::uint64_t seq = pending[i].seq();
      if (t < first_at || seq < first_seq) {
        first = i;
        first_at = t;
        first_seq = seq;
      }
    }
    if (first_at > at.now || (first_at == at.now && first_seq >= at.seq)) {
      return;
    }
    Pending& head = pending[first];
    integrate_to(c, first_at);
    c.current += head.delta();
    if (head.plan && ++head.next < head.plan->steps.size()) continue;
    head = pending.back();
    pending.pop_back();
    if (pending.empty()) {
      pending = std::vector<Pending>();  // drained: release the storage
      return;
    }
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

void EnergyMeter::charge_phase(ComponentHandle component, const PhasePlan& plan,
                               double scale) {
  auto& c = components_.at(component.index);
  if (plan.lead > 0.0) {
    settle(c, read_point());
    c.current += MilliAmps{scale * plan.lead};
  }
  if (plan.steps.empty()) return;
  const sim::EventKernel::SeqBlock block = sim_.reserve_seqs(plan.steps.size());
  c.pending.push_back(Pending{sim_.now(), block.first, scale, &plan,
                              static_cast<std::uint32_t>(block.stride), 0});
}

void EnergyMeter::add_step(ComponentHandle component, Duration delay,
                           std::uint64_t seq, MilliAmps delta) {
  if (delay <= Duration::zero()) {
    throw std::invalid_argument("EnergyMeter::add_step: delay must be > 0");
  }
  auto& c = components_.at(component.index);
  c.pending.push_back(
      Pending{sim_.now() + delay, seq, delta.value, nullptr, 0, 0});
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

std::size_t EnergyMeter::pending_capacity(ComponentHandle component) const {
  const auto& pending = components_.at(component.index).pending;
  return pending.capacity();
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
