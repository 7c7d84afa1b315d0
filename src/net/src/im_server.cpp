#include "net/im_server.hpp"

#include <stdexcept>
#include <string>

namespace d2dhb::net {

ImServer::ImServer(sim::Simulator& sim)
    : sim_(sim),
      lanes_(sim.shard_count()),
      auditor_token_(sim.add_auditor([this] { audit(); })) {
  auto& reg = sim_.metrics();
  const metrics::Labels labels{0, -1, "im_server"};
  delivered_ctr_ = &reg.counter("server.delivered", labels);
  on_time_ctr_ = &reg.counter("server.on_time", labels);
  late_ctr_ = &reg.counter("server.late", labels);
  offline_events_ctr_ = &reg.counter("server.offline_events", labels);
}

ImServer::~ImServer() { sim_.remove_auditor(auditor_token_); }

void ImServer::register_client(NodeId node, AppId app, Duration expiry) {
  lanes_[sim_.current_shard()].insert_or_assign(Key{node, app},
                                                open_session(expiry));
}

ImServer::Session ImServer::open_session(Duration expiry) const {
  Session session{SessionStats{}, expiry};
  session.stats.deadline = sim_.now() + expiry;
  return session;
}

void ImServer::deliver(const HeartbeatMessage& message) {
  const Key key{message.origin, message.app()};
  auto& lane = lanes_[sim_.current_shard()];
  auto it = lane.lower_bound(key);
  if (it == lane.end() || it->first != key) {
    // Auto-register on first contact using the message's own expiry.
    it = lane.emplace_hint(it, key, open_session(message.expiry));
  }
  Session& session = it->second;
  SessionStats& s = session.stats;
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
  s.deadline = now + session.expiry;
}

void ImServer::deliver(const UplinkBundle& bundle) {
  for (const auto& m : bundle.messages) deliver(m);
}

const ImServer::Session* ImServer::find(NodeId node, AppId app) const {
  for (const auto& lane : lanes_) {
    const auto it = lane.find(Key{node, app});
    if (it != lane.end()) return &it->second;
  }
  return nullptr;
}

bool ImServer::online(NodeId node, AppId app) const {
  const Session* session = find(node, app);
  return session != nullptr && sim_.now() <= session->stats.deadline;
}

const ImServer::SessionStats& ImServer::stats(NodeId node, AppId app) const {
  const Session* session = find(node, app);
  if (session == nullptr) {
    throw std::out_of_range("ImServer::stats: unknown session");
  }
  return session->stats;
}

ImServer::Totals ImServer::totals() const {
  Totals t;
  for (const auto& lane : lanes_) {
    for (const auto& [key, session] : lane) {
      const SessionStats& s = session.stats;
      t.delivered += s.delivered;
      t.on_time += s.on_time;
      t.late += s.late;
      t.offline_events += s.offline_events;
      t.total_latency += s.total_latency;
    }
  }
  return t;
}

std::size_t ImServer::session_count() const {
  std::size_t count = 0;
  for (const auto& lane : lanes_) count += lane.size();
  return count;
}

void ImServer::audit() const {
  // A session fed from two strips would be written by two threads and
  // counted twice; each belongs to the one strip that delivers it.
  for (std::size_t lane = 1; lane < lanes_.size(); ++lane) {
    for (const auto& [key, session] : lanes_[lane]) {
      for (std::size_t other = 0; other < lane; ++other) {
        if (!lanes_[other].contains(key)) continue;
        throw sim::AuditError("ImServer: node #" +
                              std::to_string(key.first.value) +
                              "'s session lives in two strip lanes");
      }
    }
  }
}

}  // namespace d2dhb::net
