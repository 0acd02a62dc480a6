#include "net/network.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace repro::net {

std::uint64_t flow_hash(const FlowKey& flow, std::uint64_t salt) {
  std::uint64_t h = salt ^ 0x9E3779B97F4A7C15ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
  };
  mix(flow.src_ip);
  mix(flow.dst_ip);
  mix(static_cast<std::uint64_t>(flow.src_port) << 16 | flow.dst_port);
  mix(static_cast<std::uint64_t>(flow.proto));
  return h;
}

Port::Port(Port&& o) noexcept
    : owner_(o.owner_),
      index_(o.index_),
      peer_(o.peer_),
      peer_port_(o.peer_port_),
      rate_(o.rate_),
      prop_delay_(o.prop_delay_),
      link_(std::move(o.link_)),
      detected_up_(o.detected_up_),
      cap_bytes_(o.cap_bytes_),
      transmitting_(o.transmitting_),
      stats_(o.stats_) {
  for (int c = 0; c < kNumQueues; ++c) {
    q_head_[c] = std::exchange(o.q_head_[c], nullptr);
    q_tail_[c] = std::exchange(o.q_tail_[c], nullptr);
    q_bytes_[c] = std::exchange(o.q_bytes_[c], 0);
  }
}

void Port::push(int cls, Packet* pkt) {
  pkt->next_ = nullptr;
  if (q_tail_[cls] != nullptr) {
    q_tail_[cls]->next_ = pkt;
  } else {
    q_head_[cls] = pkt;
  }
  q_tail_[cls] = pkt;
}

PacketPtr Port::pop(int cls) {
  Packet* pkt = q_head_[cls];
  q_head_[cls] = pkt->next_;
  if (q_head_[cls] == nullptr) q_tail_[cls] = nullptr;
  pkt->next_ = nullptr;
  return PacketPtr(pkt);
}

void Port::drain() {
  for (int c = 0; c < kNumQueues; ++c) {
    while (q_head_[c] != nullptr) pop(c);  // PacketPtr recycles on drop
    q_bytes_[c] = 0;
  }
}

Device::Device(Network& net, DeviceId id, std::string name, int num_ports,
               bool is_host)
    : net_(&net),
      id_(id),
      name_(std::move(name)),
      is_host_(is_host),
      shard_(sim::current_shard()) {
  ports_.resize(static_cast<std::size_t>(num_ports));
  for (int i = 0; i < num_ports; ++i) {
    ports_[static_cast<std::size_t>(i)].owner_ = this;
    ports_[static_cast<std::size_t>(i)].index_ = i;
  }
}

void Device::send(int port_idx, PacketPtr pkt) {
  Port& p = port(port_idx);
  if (!p.connected()) {
    ++net_->drops().no_route;
    return;
  }
  const int cls = pkt->priority == 0 ? 0 : 1;
  if (p.q_bytes_[cls] + pkt->size_bytes > p.cap_bytes_) {
    ++p.stats_.drops_queue_full;
    ++net_->drops().queue_full;
    return;
  }
  p.q_bytes_[cls] += pkt->size_bytes;
  ++p.stats_.enqueues;
  const std::uint64_t depth = p.q_bytes_[0] + p.q_bytes_[1];
  if (depth > p.stats_.queue_bytes_peak) p.stats_.queue_bytes_peak = depth;
  p.push(cls, pkt.release());
  start_tx(port_idx);
}

void Device::start_tx(int port_idx) {
  Port& p = port(port_idx);
  if (p.transmitting_) return;
  int cls = -1;
  for (int c = 0; c < Port::kNumQueues; ++c) {
    if (p.q_head_[c] != nullptr) {
      cls = c;
      break;
    }
  }
  if (cls < 0) return;
  PacketPtr pkt = p.pop(cls);
  p.q_bytes_[cls] -= pkt->size_bytes;
  p.transmitting_ = true;

  const TimeNs ser = serialization_delay(pkt->size_bytes, p.rate_);
  net_->engine().after(ser, [this, port_idx, pkt = std::move(pkt)]() mutable {
    Port& port_ref = port(port_idx);
    port_ref.transmitting_ = false;
    ++port_ref.stats_.pkts_tx;
    port_ref.stats_.bytes_tx += pkt->size_bytes;
    // Propagate; the link may die while the packet is in flight.
    auto* link = port_ref.link_.get();
    Device* peer = port_ref.peer_;
    const int peer_port = port_ref.peer_port_;
    if (peer->shard_ != shard_) {
      // Cross-shard hop. The pooled shell stays home (pools are strictly
      // shard-affine); the wire-visible contents — flow key, INT trail,
      // payload reference, span id — move through the epoch mailbox and
      // are re-shelled from the destination shard's pool on arrival. The
      // propagation delay is >= the lookahead by construction, which is
      // what makes the conservative epoch schedule correct.
      net_->sharded().post(
          peer->shard_, net_->engine().now() + port_ref.prop_delay_,
          [this, link, peer, peer_port, val = std::move(*pkt)]() mutable {
            if (link == nullptr || !link->alive) {
              ++net_->drops().link_down;
              return;
            }
            PacketPtr p = net_->make_packet();
            *p = std::move(val);
            peer->handle_arrival(std::move(p), peer_port);
          });
      pkt.reset();
    } else {
      net_->engine().after(
          port_ref.prop_delay_,
          [this, link, peer, peer_port, pkt = std::move(pkt)]() mutable {
            if (link == nullptr || !link->alive) {
              ++net_->drops().link_down;
              return;
            }
            peer->handle_arrival(std::move(pkt), peer_port);
          });
    }
    start_tx(port_idx);
  });
}

void Device::handle_arrival(PacketPtr pkt, int in_port) {
  if (faults_.silent_dead) {
    ++net_->drops().device_dead;
    return;
  }
  if (faults_.loss_rate > 0.0 && net_->rng().bernoulli(faults_.loss_rate)) {
    ++net_->drops().random_loss;
    return;
  }
  if (faults_.blackhole_fraction > 0.0) {
    const std::uint64_t h = flow_hash(pkt->flow, faults_.blackhole_salt);
    if (static_cast<double>(h % 1024) <
        faults_.blackhole_fraction * 1024.0) {
      ++net_->drops().blackhole;
      return;
    }
  }
  if (faults_.corrupt_rate > 0.0 && !pkt->wire_corrupted &&
      net_->rng().bernoulli(faults_.corrupt_rate)) {
    pkt->wire_corrupted = true;  // dropped by the receiving NIC's FCS check
    ++net_->wire_faults().corrupted;
  }
  if (faults_.dup_rate > 0.0 && net_->rng().bernoulli(faults_.dup_rate)) {
    PacketPtr copy = net_->make_packet();
    copy->flow = pkt->flow;
    copy->size_bytes = pkt->size_bytes;
    copy->priority = pkt->priority;
    copy->request_int = pkt->request_int;
    copy->int_records = pkt->int_records;
    copy->id = pkt->id;
    copy->sent_at = pkt->sent_at;
    copy->span = pkt->span;
    copy->wire_corrupted = pkt->wire_corrupted;
    if (pkt->app != nullptr) {
      payload_ref(pkt->app);
      copy->app = pkt->app;
    }
    ++net_->wire_faults().duplicated;
    receive(std::move(copy), in_port);
  }
  if (faults_.reorder_rate > 0.0 && faults_.reorder_delay > 0 &&
      net_->rng().bernoulli(faults_.reorder_rate)) {
    ++net_->wire_faults().reordered;
    net_->engine().after(faults_.reorder_delay,
                         [this, in_port, pkt = std::move(pkt)]() mutable {
                           receive(std::move(pkt), in_port);
                         });
    return;
  }
  receive(std::move(pkt), in_port);
}

Network::Network(sim::Engine& engine, NetworkParams params,
                 std::uint64_t seed)
    : Network(std::make_unique<sim::ShardedEngine>(engine), params, seed) {}

Network::Network(std::unique_ptr<sim::ShardedEngine> adopted,
                 NetworkParams params, std::uint64_t seed)
    : Network(*adopted, params, seed) {
  adopted_ = std::move(adopted);
}

Network::Network(sim::ShardedEngine& se, NetworkParams params,
                 std::uint64_t seed)
    : engine_(&se), params_(params) {
  const int num_shards = engine_->shards();
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    // Forked with a distinctive stream id so no two shards share a
    // sequence.
    const Rng r = s == 0 ? Rng(seed) : Rng(seed).fork(0xFAB5'0000ull + s);
    shards_.push_back(std::make_unique<ShardState>(r, s));
  }
}

Network::~Network() {
  // Devices (and their queued packets) go first; then each pool deletes
  // itself once any packets still captured in engine closures come home.
  devices_.clear();
  for (auto& st : shards_) st->pool->retire();
}

std::size_t Network::packets_outstanding() const {
  std::size_t total = 0;
  for (const auto& st : shards_) total += st->pool->outstanding();
  return total;
}

Network::DropStats Network::drops_total() const {
  DropStats total;
  for (const auto& st : shards_) {
    total.queue_full += st->drops.queue_full;
    total.link_down += st->drops.link_down;
    total.device_dead += st->drops.device_dead;
    total.blackhole += st->drops.blackhole;
    total.random_loss += st->drops.random_loss;
    total.no_route += st->drops.no_route;
    total.corrupt_fcs += st->drops.corrupt_fcs;
  }
  return total;
}

Network::WireFaultStats Network::wire_faults_total() const {
  WireFaultStats total;
  for (const auto& st : shards_) {
    total.corrupted += st->wire_faults.corrupted;
    total.duplicated += st->wire_faults.duplicated;
    total.reordered += st->wire_faults.reordered;
  }
  return total;
}

void Network::link(Device& a, int pa, Device& b, int pb, BitsPerSec rate,
                   TimeNs prop_delay, std::uint64_t queue_capacity) {
  if (queue_capacity == 0) queue_capacity = params_.default_queue_capacity;
  auto state = std::make_shared<LinkState>();
  Port& ap = a.port(pa);
  Port& bp = b.port(pb);
  ap.peer_ = &b;
  ap.peer_port_ = pb;
  ap.rate_ = rate;
  ap.prop_delay_ = prop_delay;
  ap.link_ = state;
  ap.detected_up_ = true;
  ap.cap_bytes_ = queue_capacity;
  bp.peer_ = &a;
  bp.peer_port_ = pa;
  bp.rate_ = rate;
  bp.prop_delay_ = prop_delay;
  bp.link_ = state;
  bp.detected_up_ = true;
  bp.cap_bytes_ = queue_capacity;
  if (a.shard_ != b.shard_ &&
      (min_cross_shard_prop_ < 0 || prop_delay < min_cross_shard_prop_)) {
    min_cross_shard_prop_ = prop_delay;
  }
}

void Network::set_link_alive(Device& dev, int port, bool alive) {
  // Link state is shared fabric state (both endpoints read `alive` on their
  // own shards). With several shards the flip lands at the posting epoch's
  // barrier — within one lookahead of the one-shard instant — and
  // detection/reconvergence keep their exact configured delays from there.
  engine_->post_global(
      [this, d = &dev, port, alive] { set_link_alive_now(*d, port, alive); });
}

void Network::set_link_alive_now(Device& dev, int port, bool alive) {
  Port& p = dev.port(port);
  if (!p.connected() || p.link_->alive == alive) return;
  p.link_->alive = alive;
  Device* peer = p.peer_;
  const int peer_port = p.peer_port_;
  // Both ends detect the carrier change after the detection delay.
  auto detect = [this, d = &dev, port, peer, peer_port, alive] {
    d->port(port).detected_up_ = alive;
    peer->port(peer_port).detected_up_ = alive;
    // The carrier handlers run under their device's shard context so any
    // timers they arm (e.g. SOLAR path probing) land on the home engine.
    {
      const sim::ShardScope scope(d->shard_);
      if (alive) {
        d->on_link_up(port);
      } else {
        d->on_link_down(port);
      }
    }
    {
      const sim::ShardScope scope(peer->shard_);
      if (alive) {
        peer->on_link_up(peer_port);
      } else {
        peer->on_link_down(peer_port);
      }
    }
    schedule_reconvergence();
  };
  engine_->post_global_at(engine_->now() + params_.link_detect_delay,
                         std::move(detect));
}

void Network::schedule_reconvergence() {
  if (reconvergence_pending_) return;
  reconvergence_pending_ = true;
  engine_->post_global_at(engine_->now() + params_.reconverge_delay, [this] {
    reconvergence_pending_ = false;
    compute_routes();
  });
}

void Network::fail_link(Device& dev, int port) {
  set_link_alive(dev, port, false);
}

void Network::repair_link(Device& dev, int port) {
  set_link_alive(dev, port, true);
}

void Network::fail_device_stop(Device& dev) {
  for (int i = 0; i < dev.num_ports(); ++i) {
    if (dev.port(i).connected()) set_link_alive(dev, i, false);
  }
}

void Network::fail_device_silent(Device& dev) {
  dev.faults_.silent_dead = true;
}

void Network::set_silent(Device& dev, bool dead) {
  dev.faults_.silent_dead = dead;
}

void Network::repair_device(Device& dev) {
  dev.faults_.silent_dead = false;
  dev.faults_.loss_rate = 0.0;
  dev.faults_.blackhole_fraction = 0.0;
  dev.faults_.corrupt_rate = 0.0;
  dev.faults_.dup_rate = 0.0;
  dev.faults_.reorder_rate = 0.0;
  for (int i = 0; i < dev.num_ports(); ++i) {
    if (dev.port(i).connected()) set_link_alive(dev, i, true);
  }
}

void Network::set_loss_rate(Device& dev, double p) {
  dev.faults_.loss_rate = p;
}

void Network::set_blackhole(Device& dev, double fraction) {
  dev.faults_.blackhole_fraction = fraction;
  // Salt from the *device's* home-shard stream: the injector applies this
  // on the target's shard, so the draw is deterministic under sharding and
  // identical to the legacy single-stream draw when shards == 1.
  dev.faults_.blackhole_salt = rng().next();
}

void Network::set_corrupt_rate(Device& dev, double p) {
  dev.faults_.corrupt_rate = p;
}

void Network::set_dup_rate(Device& dev, double p) {
  dev.faults_.dup_rate = p;
}

void Network::set_reorder(Device& dev, double p, TimeNs delay) {
  dev.faults_.reorder_rate = p;
  dev.faults_.reorder_delay = delay;
}

void Network::compute_routes() {
  routes_.clear();
  // BFS from every host over the control-plane-visible (detected-up) graph.
  for (const auto& host : devices_) {
    if (!host->is_host()) continue;
    std::unordered_map<DeviceId, int> dist;
    dist[host->id()] = 0;
    std::queue<Device*> frontier;
    frontier.push(host.get());
    while (!frontier.empty()) {
      Device* d = frontier.front();
      frontier.pop();
      const int dd = dist[d->id()];
      // Packets never transit through another host.
      if (d->is_host() && d != host.get()) continue;
      for (int i = 0; i < d->num_ports(); ++i) {
        const Port& p = d->port(i);
        if (!p.detected_up()) continue;
        Device* n = p.peer();
        if (dist.contains(n->id())) continue;
        dist[n->id()] = dd + 1;
        frontier.push(n);
      }
    }
    const IpAddr dst = host->id();
    for (const auto& dev : devices_) {
      if (dev.get() == host.get()) continue;
      auto it = dist.find(dev->id());
      if (it == dist.end()) continue;
      std::vector<int> next_hops;
      for (int i = 0; i < dev->num_ports(); ++i) {
        const Port& p = dev->port(i);
        if (!p.detected_up()) continue;
        auto pit = dist.find(p.peer()->id());
        if (pit == dist.end()) continue;
        if (pit->second == it->second - 1 &&
            (p.peer()->is_host() ? p.peer()->id() == dst : true)) {
          next_hops.push_back(i);
        }
      }
      if (!next_hops.empty()) routes_[dev->id()][dst] = std::move(next_hops);
    }
  }
}

const std::vector<int>* Network::routes(DeviceId dev, IpAddr dst) const {
  auto it = routes_.find(dev);
  if (it == routes_.end()) return nullptr;
  auto jt = it->second.find(dst);
  if (jt == it->second.end()) return nullptr;
  return &jt->second;
}

}  // namespace repro::net
