#include "sim/world.h"

#include <utility>

#include "common/assert.h"

namespace dq::sim {

World::World(Topology topology, std::uint64_t seed, Parallelism parallel)
    : topo_(std::move(topology)),
      faults_(topo_.num_nodes()),
      actors_(topo_.num_nodes(), nullptr),
      clocks_(topo_.num_nodes()),
      crashed_(topo_.num_nodes(), false),
      incarnation_(topo_.num_nodes(), 0),
      plan_(par::make_partition_plan(topo_, parallel.partitions)) {
  // Lanes must exist before any instrument registers (including the net
  // counters below).
  metrics_.set_lanes(static_cast<std::uint32_t>(plan_.count));
  Rng seeder(seed);
  parts_.reserve(plan_.count);
  for (std::size_t p = 0; p < plan_.count; ++p) {
    auto st = std::make_unique<par::PartitionState>();
    st->world = this;
    st->index = static_cast<std::uint32_t>(p);
    st->sched = std::make_unique<Scheduler>();
    // A lone partition draws from the trial seed's own stream; several get
    // independent streams split from it.  Either way the derivation depends
    // only on (seed, plan), never on threads.
    st->rng = plan_.count == 1 ? Rng(seed) : seeder.split();
    st->tracer.enable(true);  // world.trace() gates on the main tracer
    st->outbox.resize(plan_.count);
    parts_.push_back(std::move(st));
  }
  engine_ = std::make_unique<par::Engine>(*this, parallel.threads);
  m_sent_ = &metrics_.counter("net.sent");
  m_bytes_ = &metrics_.counter("net.bytes");
  m_delivered_ = &metrics_.counter("net.delivered");
  m_dropped_ = &metrics_.counter("net.dropped");
  for (LinkClass lc : {LinkClass::kLoopback, LinkClass::kClientHome,
                       LinkClass::kClientRemote, LinkClass::kServerServer}) {
    const auto i = static_cast<std::size_t>(lc);
    const std::string suffix = link_class_name(lc);
    m_link_msgs_[i] = &metrics_.counter("net.msgs." + suffix);
    m_link_bytes_[i] = &metrics_.counter("net.bytes." + suffix);
  }
}

World::~World() = default;

void World::attach(NodeId node, Actor& actor) {
  DQ_INVARIANT(node.value() < actors_.size(), "node id out of range");
  DQ_INVARIANT(actors_[node.value()] == nullptr,
               "a node hosts exactly one actor");
  actor.world_ = this;
  actor.id_ = node;
  actors_[node.value()] = &actor;
}

void World::set_clock(NodeId node, DriftClock clock) {
  clocks_.at(node.value()) = clock;
}

Scheduler& World::sched_for(std::uint32_t node_idx) {
  par::PartitionState& owner = *parts_[plan_.of_node[node_idx]];
  par::PartitionState* cur = par::current_state();
  DQ_INVARIANT(cur == nullptr || cur->world != this || cur == &owner,
               "timers may only target the running partition's own nodes");
  return *owner.sched;
}

std::map<std::string, std::uint64_t> World::sent_by_type() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t i = 0; i < msg::payload_type_count(); ++i) {
    std::uint64_t n = 0;
    for (const auto& st : parts_) n += st->sent_by_type[i];
    if (n > 0) out.emplace(msg::payload_type_name(i), n);
  }
  return out;
}

std::size_t World::executed_events() const {
  std::size_t total = engine_->boundary().executed_events();
  for (const auto& st : parts_) total += st->sched->executed_events();
  return total;
}

void World::send_tagged(NodeId src, NodeId dst, RequestId rpc_id,
                        msg::Payload body, bool is_reply, Duration defer) {
  if (!faults_.is_up(src) || crashed_.at(src.value())) {
    return;  // a dead or disconnected node cannot put anything on the wire
  }
  par::PartitionState& st = active_state();
  Rng& rng = st.rng;
  const std::uint64_t size = msg::approximate_size(body);
  ++st.sent_by_type[body.index()];
  m_sent_->inc();
  m_bytes_->inc(size);
  const LinkClass link = topo_.link_class(src, dst);
  const auto link_idx = static_cast<std::size_t>(link);
  m_link_msgs_[link_idx]->inc();
  m_link_bytes_[link_idx]->inc(size);
  if (tracer_.enabled()) {
    trace_buffer().emit(now(), src, "net",
                        std::string(is_reply ? "reply " : "send ") +
                            msg::payload_type_name(body.index()) + " -> n" +
                            std::to_string(dst.value()));
  }
  if (!faults_.reachable(src, dst)) {
    m_dropped_->inc();
    return;
  }
  const int copies = faults_.duplication_probability() > 0.0 &&
                             rng.chance(faults_.duplication_probability())
                         ? 2
                         : 1;
  for (int c = 0; c < copies; ++c) {
    if (faults_.loss_probability() > 0.0 &&
        rng.chance(faults_.loss_probability())) {
      m_dropped_->inc();
      continue;
    }
    const Duration delay = defer + topo_.one_way_delay(link, rng);
    // The last copy moves the body instead of copying it (duplication is
    // rare, so the common case is zero payload copies past this point).
    route(Envelope{src, dst, rpc_id,
                   c + 1 == copies ? std::move(body) : body, is_reply},
          delay);
  }
}

void World::route(Envelope&& env, Duration delay) {
  if (delay < 0) delay = 0;
  const std::uint32_t dst_part = plan_.of_node[env.dst.value()];
  par::PartitionState* cur = par::current_state();
  const bool in_step = cur != nullptr && cur->world == this;
  if (in_step && dst_part != cur->index) {
    // Cross-partition: park in the outbox until the round barrier; the
    // engine merges all mailboxes in (deliver_time, global_seq) order,
    // which fixes the total order independent of threads.
    cur->outbox[dst_part].push_back(par::Mail{
        cur->sched->now() + delay,
        (static_cast<std::uint64_t>(cur->index) << 40) | ++cur->send_seq,
        std::move(env)});
    return;
  }
  // Intra-partition, or a coordinating-thread send between rounds (all
  // partition clocks agree then): straight onto the owner's queue.  The
  // delivery event is constructed in place in the scheduler's inline pool
  // (see Scheduler::kCallbackCapacity) -- the envelope is moved exactly
  // once, from the sender's temporary into the pool.
  Scheduler& queue = *parts_[dst_part]->sched;
  const Time base = in_step ? cur->sched->now() : queue.now();
  static_assert(Scheduler::EventFn::fits_inline<DeliveryEvent>(),
                "delivery event must fit the scheduler's inline buffer");
  queue.schedule_construct_at<DeliveryEvent>(base + delay, this,
                                             std::move(env));
}

void World::deliver(Envelope& env) {
  const auto idx = env.dst.value();
  // Reachability is also checked at delivery time so that a partition that
  // started while the message was in flight eats it (a message cannot
  // outrun a partition in this model; good enough for the experiments).
  if (!faults_.is_up(env.dst) || crashed_.at(idx)) {
    m_dropped_->inc();
    return;
  }
  Actor* a = actors_.at(idx);
  DQ_INVARIANT(a != nullptr, "message addressed to a node with no actor");
  m_delivered_->inc();
  a->on_message(env);
}

void World::crash(NodeId node) {
  DQ_INVARIANT(par::current_state() == nullptr,
               "crash() may not run inside a partition step");
  const auto idx = node.value();
  if (crashed_.at(idx)) return;
  trace(node, "fault", "crash");
  crashed_.at(idx) = true;
  ++incarnation_.at(idx);  // poisons all pending timers
  Actor* a = actors_.at(idx);
  if (a != nullptr) a->on_crash();
}

void World::restart(NodeId node) {
  DQ_INVARIANT(par::current_state() == nullptr,
               "restart() may not run inside a partition step");
  const auto idx = node.value();
  if (!crashed_.at(idx)) return;
  trace(node, "fault", "restart");
  crashed_.at(idx) = false;
  Actor* a = actors_.at(idx);
  if (a != nullptr) a->on_recover();
}

}  // namespace dq::sim
