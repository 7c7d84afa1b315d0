#include "net/im_server.hpp"

#include <stdexcept>

namespace d2dhb::net {

ImServer::ImServer(sim::Simulator& sim) : sim_(sim) {
  auto& reg = sim_.metrics();
  const metrics::Labels labels{0, -1, "im_server"};
  delivered_ctr_ = &reg.counter("server.delivered", labels);
  on_time_ctr_ = &reg.counter("server.on_time", labels);
  late_ctr_ = &reg.counter("server.late", labels);
  offline_events_ctr_ = &reg.counter("server.offline_events", labels);
}

void ImServer::register_client(NodeId node, AppId app, Duration expiry) {
  const MutexLock lock(mutex_);
  register_locked(Key{node, app}, expiry);
}

void ImServer::register_locked(const Key& key, Duration expiry) {
  SessionStats stats;
  stats.deadline = sim_.now() + expiry;
  sessions_[key] = stats;
  expiries_[key] = expiry;
}

void ImServer::deliver(const HeartbeatMessage& message) {
  const Key key{message.origin, message.app};
  const MutexLock lock(mutex_);
  auto it = sessions_.find(key);
  if (it == sessions_.end()) {
    // Auto-register on first contact using the message's own expiry.
    register_locked(key, message.expiry);
    it = sessions_.find(key);
  }
  SessionStats& s = it->second;
  const TimePoint now = sim_.now();
  ++s.delivered;
  delivered_ctr_->inc();
  if (now >= message.created_at) s.total_latency += now - message.created_at;
  if (now <= s.deadline) {
    ++s.on_time;
    on_time_ctr_->inc();
  } else {
    ++s.late;
    ++s.offline_events;
    late_ctr_->inc();
    offline_events_ctr_->inc();
    s.total_offline += now - s.deadline;
  }
  // A delivered heartbeat resets the expiration timer from now.
  s.deadline = now + expiries_.at(key);
}

void ImServer::deliver(const UplinkBundle& bundle) {
  for (const auto& m : bundle.messages) deliver(m);
}

bool ImServer::online(NodeId node, AppId app) const {
  const MutexLock lock(mutex_);
  const auto it = sessions_.find(Key{node, app});
  if (it == sessions_.end()) return false;
  return sim_.now() <= it->second.deadline;
}

ImServer::SessionStats ImServer::stats(NodeId node, AppId app) const {
  const MutexLock lock(mutex_);
  const auto it = sessions_.find(Key{node, app});
  if (it == sessions_.end()) {
    throw std::out_of_range("ImServer::stats: unknown session");
  }
  return it->second;
}

ImServer::Totals ImServer::totals() const {
  const MutexLock lock(mutex_);
  Totals t;
  for (const auto& [key, s] : sessions_) {
    t.delivered += s.delivered;
    t.on_time += s.on_time;
    t.late += s.late;
    t.offline_events += s.offline_events;
    t.total_latency += s.total_latency;
  }
  return t;
}

std::size_t ImServer::session_count() const {
  const MutexLock lock(mutex_);
  return sessions_.size();
}

}  // namespace d2dhb::net
