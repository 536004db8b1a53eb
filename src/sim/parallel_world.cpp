#include "sim/parallel_world.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>

// The engine below is the one sim/ component allowed to own threading
// primitives: every use carries a det-thread suppression because the whole
// point of the design is that the primitives cannot influence the schedule
// (partitions are fixed by topology; threads only decide concurrency).
// dqlint:allow(det-thread): worker pool threads for the conservative engine
#include <thread>
// dqlint:allow(det-thread): round-barrier handshake for the worker pool
#include <mutex>
// dqlint:allow(det-thread): round-barrier handshake for the worker pool
#include <condition_variable>
// dqlint:allow(det-thread): work-stealing ticket counter inside one round
#include <atomic>

#include "common/assert.h"
#include "obs/metrics.h"
#include "sim/world.h"

namespace dq::sim::par {

namespace {

Duration base_delay(const Topology::Params& p, LinkClass c) {
  switch (c) {
    case LinkClass::kLoopback:
      return 0;
    case LinkClass::kClientHome:
      return p.client_to_home;
    case LinkClass::kClientRemote:
      return p.client_to_remote;
    case LinkClass::kServerServer:
      return p.server_to_server;
  }
  return 0;
}

}  // namespace

namespace detail {
// Which partition the current thread is executing (null on the coordinating
// thread).  Plain thread-local state: set and cleared by the engine around
// each partition step.
// dqlint:allow(part-mutable-global): per-thread by construction; each worker
// sees only its own partition pointer, so nothing is shared across them.
thread_local PartitionState* t_state = nullptr;
}  // namespace detail

std::size_t default_partition_count(const Topology& topo) {
  // One partition per server, capped so tiny per-partition queues don't
  // drown in round overhead.  Derived from the topology alone: the same
  // simulation always gets the same plan on any machine at any --world-
  // threads value.
  constexpr std::size_t kMaxPartitions = 16;
  return std::min(topo.num_servers(), kMaxPartitions);
}

PartitionPlan make_partition_plan(const Topology& topo,
                                  std::size_t partitions) {
  PartitionPlan plan;
  const std::size_t ns = topo.num_servers();
  DQ_INVARIANT(ns > 0, "a partition plan needs at least one server");
  plan.count = std::clamp<std::size_t>(partitions, 1, ns);
  plan.of_node.assign(topo.num_nodes(), 0);
  // Servers in contiguous balanced blocks; each client rides with its home
  // server so the cheap client<->home link stays intra-partition.
  for (std::size_t s = 0; s < ns; ++s) {
    plan.of_node[s] = static_cast<std::uint32_t>(s * plan.count / ns);
  }
  for (std::size_t c = 0; c < topo.num_clients(); ++c) {
    const NodeId client = topo.client(c);
    plan.of_node[client.value()] =
        plan.of_node[topo.home_of(client).value()];
  }
  // Lookahead: the smallest base one-way delay on any link that actually
  // crosses partitions under this assignment.  Jitter is multiplicative
  // (>= 1x), so the base delay lower-bounds every realized delay.
  Duration lookahead = kTimeInfinity;
  const std::size_t n = topo.num_nodes();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || plan.of_node[i] == plan.of_node[j]) continue;
      // Clients never exchange traffic (the topology has no such link), so
      // a client pair cannot constrain the lookahead.
      if (!topo.is_server(NodeId(static_cast<std::uint32_t>(i))) &&
          !topo.is_server(NodeId(static_cast<std::uint32_t>(j)))) {
        continue;
      }
      const Duration d = base_delay(
          topo.params(), topo.link_class(NodeId(static_cast<std::uint32_t>(i)),
                                         NodeId(static_cast<std::uint32_t>(j))));
      lookahead = std::min(lookahead, d);
    }
  }
  DQ_INVARIANT(plan.count == 1 || lookahead > 0,
               "conservative parallel execution needs a positive minimum "
               "cross-partition delay");
  plan.lookahead = lookahead;
  return plan;
}

std::size_t clamp_threads(std::size_t n, const char* flag) {
  // dqlint:allow(det-thread): sizing the pool from the machine is the point
  const unsigned hw = std::thread::hardware_concurrency();
  if (n == 0) return hw == 0 ? 1 : hw;
  if (hw != 0 && n > hw) {
    std::fprintf(stderr,
                 "note: %s=%zu exceeds the %u available hardware threads; "
                 "clamping to %u\n",
                 flag, n, hw, hw);
    return hw;
  }
  return n;
}

// Persistent worker pool with an epoch-counted round barrier.  run() hands
// out task indices through an atomic ticket; the calling thread participates
// too, so `threads == 1` spawns no workers at all and the whole engine runs
// on the caller (same code path, zero synchronization).
struct Engine::Pool {
  explicit Pool(std::size_t extra_workers) {
    workers_.reserve(extra_workers);
    for (std::size_t i = 0; i < extra_workers; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      // dqlint:allow(det-thread): pool shutdown handshake
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      ++epoch_;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void run(std::size_t tasks, const std::function<void(std::size_t)>& fn) {
    if (workers_.empty()) {
      for (std::size_t i = 0; i < tasks; ++i) fn(i);
      return;
    }
    {
      // dqlint:allow(det-thread): publish the round under the barrier lock
      std::lock_guard<std::mutex> lk(mu_);
      fn_ = &fn;
      tasks_ = tasks;
      next_.store(0, std::memory_order_relaxed);
      pending_ = workers_.size();
      ++epoch_;
    }
    cv_.notify_all();
    drain(fn);
    // dqlint:allow(det-thread): wait for every worker to pass the barrier
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }

 private:
  void drain(const std::function<void(std::size_t)>& fn) {
    for (;;) {
      const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks_) return;
      fn(i);
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      {
        // dqlint:allow(det-thread): block until the next round (or stop)
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return epoch_ != seen; });
        seen = epoch_;
        if (stop_) return;
        fn = fn_;
      }
      drain(*fn);
      {
        // dqlint:allow(det-thread): report this worker done for the round
        std::lock_guard<std::mutex> lk(mu_);
        if (--pending_ == 0) done_cv_.notify_all();
      }
    }
  }

  // dqlint:allow(det-thread): the pool's worker threads
  std::vector<std::thread> workers_;
  // dqlint:allow(det-thread): barrier state guard
  std::mutex mu_;
  // dqlint:allow(det-thread): round-start and round-done signals
  std::condition_variable cv_, done_cv_;
  // dqlint:allow(det-thread): per-round work ticket (order-free by design)
  std::atomic<std::size_t> next_{0};
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t tasks_ = 0;
  std::size_t pending_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

Engine::Engine(World& world, std::size_t threads) : world_(world) {
  const std::size_t parts = world_.parts_.size();
  DQ_INVARIANT(parts > 0, "engine requires at least one partition");
  threads_ = std::clamp<std::size_t>(threads, 1, parts);
  pool_ = std::make_unique<Pool>(threads_ - 1);
}

Engine::~Engine() = default;

std::size_t Engine::run_until(Time deadline) {
  auto& parts = world_.parts_;
  const Duration lookahead = world_.plan_.lookahead;
  std::size_t executed = 0;

  for (;;) {
    Time t_min = kTimeInfinity;
    for (auto& p : parts) {
      t_min = std::min(t_min, p->sched->next_event_time());
    }
    const Time t_boundary = boundary_.next_event_time();
    const Time t_next = std::min(t_min, t_boundary);
    if (t_next == kTimeInfinity || t_next > deadline) break;
    if (t_boundary <= t_min) {
      // A round-boundary event: stop every partition at exactly its time,
      // with the traces so far already in the world tracer, and run it (and
      // whatever it schedules for the same instant) on this thread.
      merge_tracers();
      for (auto& p : parts) p->sched->advance_to(t_boundary);
      executed += boundary_.run_until(t_boundary);
      continue;
    }
    Time window = deadline;
    if (lookahead < kTimeInfinity - t_min) {
      window = std::min(window, t_min + lookahead);
    }
    if (t_boundary != kTimeInfinity) {
      window = std::min(window, t_boundary - 1);
    }

    // Phase A: every partition executes its local window concurrently.
    // Cross-partition sends land in the outboxes, never in a live queue.
    pool_->run(parts.size(), [&](std::size_t i) {
      PartitionState& st = *parts[i];
      set_current_state(&st);
      obs::set_current_lane(st.index);
      st.executed_in_round = st.sched->run_until(window);
      obs::set_current_lane(0);
      set_current_state(nullptr);
    });
    for (auto& p : parts) executed += p->executed_in_round;

    // Phase B: merge mailboxes.  Each destination drains every source's
    // outbox for it in the fixed (deliver_time, global_seq) order;
    // distinct destinations touch distinct queues, so this fans out too.
    pool_->run(parts.size(), [&](std::size_t i) {
      merge_mailboxes_into(*parts[i]);
    });
  }

  if (deadline < kTimeInfinity) {
    // No events remain at or before the deadline; advance every partition
    // clock to it (same contract as Scheduler::run_until).
    for (auto& p : parts) p->sched->run_until(deadline);
  }
  merge_tracers();
  return executed;
}

void Engine::merge_mailboxes_into(PartitionState& dst) {
  auto& parts = world_.parts_;
  std::vector<MailKey>& keys = dst.merge_keys;
  keys.clear();
  for (auto& src : parts) {
    const std::vector<Mail>& box = src->outbox[dst.index];
    for (std::size_t i = 0; i < box.size(); ++i) {
      keys.push_back(MailKey{box[i].deliver_at, box[i].seq, src->index,
                             static_cast<std::uint32_t>(i)});
    }
  }
  if (keys.empty()) return;
  std::sort(keys.begin(), keys.end(), mail_before);
  World* w = &world_;
  for (const MailKey& k : keys) {
    Mail& m = parts[k.src_part]->outbox[dst.index][k.index];
    DQ_INVARIANT(m.deliver_at >= dst.sched->now(),
                 "lookahead violated: a cross-partition message arrived in "
                 "the past");
    static_assert(Scheduler::EventFn::fits_inline<World::DeliveryEvent>(),
                  "merged delivery event must stay inline");
    dst.sched->schedule_construct_at<World::DeliveryEvent>(m.deliver_at, w,
                                                           std::move(m.env));
  }
  for (auto& src : parts) src->outbox[dst.index].clear();
}

void Engine::merge_tracers() {
  auto& parts = world_.parts_;
  bool any = false;
  for (auto& p : parts) any = any || !p->tracer.events().empty();
  if (!any) return;
  // Deterministic interleave: by time, then partition index, then emission
  // order within the partition.  (Cross-partition trace order is a property
  // of the partitioned schedule, not of thread count.)
  struct Item {
    const TraceEvent* ev;
    std::uint32_t part;
    std::size_t pos;
  };
  std::vector<Item> items;
  for (auto& p : parts) {
    const auto& evs = p->tracer.events();
    for (std::size_t i = 0; i < evs.size(); ++i) {
      items.push_back({&evs[i], p->index, i});
    }
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (a.ev->at != b.ev->at) return a.ev->at < b.ev->at;
    if (a.part != b.part) return a.part < b.part;
    return a.pos < b.pos;
  });
  for (const Item& it : items) {
    world_.tracer_.emit(it.ev->at, it.ev->node, it.ev->category,
                        it.ev->detail);
  }
  for (auto& p : parts) p->tracer.clear();
}

}  // namespace dq::sim::par
