// Open-loop aggregated workload engine.
//
// The paper's closed-loop AppClient issues the next request only after the
// previous reply; that caps offered load at (clients / RTT) and can never
// reproduce the sustained arrival processes that staleness / age-of-
// information behavior depends on.  Here one SiteGenerator per edge site
// aggregates an arbitrary number of logical clients as a *rate process*:
// simulated-client count costs nothing per client -- no per-client actor,
// no per-client event, just a per-site arrival rate.
//
// Performance is the point, at three layers:
//   1. O(1) object sampling: Zipf(s, N) popularity over up to millions of
//      objects via a Walker/Vose alias table built once per trial (no
//      per-draw pow/log, no CDF binary search), plus a small LRU-style
//      hot-set remap so flash crowds concentrate mass on recently touched
//      objects without rebuilding the table.
//   2. O(1) amortized arrival sampling: nonhomogeneous Poisson arrivals
//      (diurnal sinusoid + optional flash-crowd spike) by thinning against
//      a per-window max-rate envelope, drawn in batches that are sorted by
//      construction -- the scheduler sees one timer per batch, not one per
//      request.
//   3. Partition-local emission: a generator is attached at its client
//      node, which the partition plan co-locates with its home server, so
//      its batch timer runs on that partition's scheduler and its emitted
//      request events go straight into the partition's queue / RNG stream /
//      metrics lane (World::send_at).  Reports stay byte-identical at any
//      --world-threads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "msg/wire.h"
#include "obs/metrics.h"
#include "protocols/service_client.h"
#include "sim/time.h"
#include "sim/world.h"
#include "workload/history.h"

namespace dq::workload {

// A load spike: between [start, start + duration) the arrival rate is
// multiplied and object popularity collapses onto the hot set.
struct FlashCrowd {
  sim::Time start = 0;
  sim::Duration duration = 0;
  double multiplier = 1.0;
};

struct OpenLoopParams {
  // Logical clients aggregated per site and the per-client request rate.
  // The site's offered rate is the product; neither factor costs anything
  // individually.
  std::size_t clients_per_site = 1000;
  double client_rate_hz = 0.1;

  // Object popularity: Zipf(s) over `objects` ids.
  double zipf_s = 0.99;
  std::size_t objects = 100000;

  // Diurnal load: rate(t) = site_rate * (1 + amplitude * sin(2*pi*t /
  // period)).  amplitude in [0, 1); 0 = flat.
  double diurnal_amplitude = 0.0;
  sim::Duration diurnal_period = sim::seconds(60);

  // Optional flash crowd (rate spike + popularity concentration).
  std::optional<FlashCrowd> flash;

  // Emission horizon.  After `horizon` the generator stops emitting and
  // waits up to `drain` for outstanding replies before recording them as
  // failed.
  sim::Duration horizon = sim::seconds(10);
  sim::Duration drain = sim::seconds(30);

  // When false the generator fires requests and forgets them: no pending
  // map, no history, no reply matching.  Benches drive sink servers this
  // way to measure pure emission throughput.
  bool track_replies = true;

  [[nodiscard]] double site_rate_hz() const {
    return static_cast<double>(clients_per_site) * client_rate_hz;
  }
};

// Walker/Vose alias table over the Zipf(s, n) pmf: O(n) build (the only
// place pow() appears), O(1) sample from a single 64-bit draw.  Immutable
// after construction, so one table is shared by every site in a trial.
class ZipfAliasTable {
 public:
  ZipfAliasTable(double s, std::size_t n);

  [[nodiscard]] std::size_t size() const { return cols_.size(); }

  // One rng draw: high 32 bits pick the column, low 32 bits the coin.
  [[nodiscard]] std::uint64_t sample(Rng& rng) const {
    const std::uint64_t r = rng();
    const std::size_t n = cols_.size();
    const std::size_t i =
        static_cast<std::size_t>(((r >> 32) * static_cast<std::uint64_t>(n)) >>
                                 32);
    const double u = static_cast<double>(r & 0xffffffffULL) * 0x1.0p-32;
    const Col c = cols_[i];
    return u < c.prob ? i : c.alias;
  }

  // Exactly `count` draws with the same rng sequence (and therefore the
  // same results) as `count` calls of sample(), but in two passes: the
  // first records the raw draws and prefetches each column, the second
  // resolves them.  At bench scale the table is ~1 MB (131072 packed
  // columns), so the dependent random load in sample() is a cache miss per
  // draw; issuing the whole batch's loads ahead of use overlaps them.
  void sample_many(Rng& rng, std::size_t count,
                   std::vector<std::uint64_t>& out) const;

  // Closed-form pmf, for the chi-square test.
  [[nodiscard]] double pmf(std::size_t i) const;

 private:
  // Keep-probability and alias packed into 8 bytes so every draw touches
  // exactly one cache line of a table that can span millions of objects (a
  // draw is a *random* index -- at 100k+ objects the table dominates the
  // sampler's cache footprint).  float precision only rounds each column's
  // split point by <= 2^-24; the realized distribution is still Zipf to
  // well below what the chi-square test can resolve.
  struct Col {
    float prob = 1.0F;          // P(column i keeps its own index)
    std::uint32_t alias = 0;
  };

  double s_ = 1.0;
  double norm_ = 1.0;  // sum over i of (i+1)^-s
  std::vector<Col> cols_;
};

// The K most recently touched objects, most recent first.  K is small
// (16 in SiteGenerator), so linear scans beat any fancier structure -- and a plain
// vector keeps the state partition-owned and allocation-free after warmup.
class HotSet {
 public:
  explicit HotSet(std::size_t capacity) : capacity_(capacity) {
    members_.reserve(capacity);
  }

  void touch(std::uint64_t obj) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i] == obj) {
        members_.erase(members_.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    members_.insert(members_.begin(), obj);
    if (members_.size() > capacity_) members_.pop_back();
  }

  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] std::uint64_t pick(Rng& rng) const {
    return members_[rng.below(members_.size())];
  }

 private:
  std::size_t capacity_;
  std::vector<std::uint64_t> members_;
};

// Nonhomogeneous Poisson arrival process: diurnal sinusoid times an
// optional flash-crowd multiplier, sampled by thinning against a per-window
// max-rate envelope.  Amortized O(1) per arrival; batches come out sorted.
class RateModel {
 public:
  RateModel(double base_hz, double amplitude, sim::Duration period,
            std::optional<FlashCrowd> flash);

  [[nodiscard]] double rate_at(sim::Time t) const;
  // Tight upper bound on rate_at over [t0, t1): the sinusoid's global max
  // times the flash multiplier only if the window intersects the flash.
  [[nodiscard]] double max_rate(sim::Time t0, sim::Time t1) const;

  [[nodiscard]] bool flash_active(sim::Time t) const {
    return flash_ && t >= flash_->start &&
           t < flash_->start + flash_->duration;
  }

  // The expected number of arrivals in [t0, t1): the integral of rate_at.
  [[nodiscard]] double expected_arrivals(sim::Time t0, sim::Time t1) const;

  // Append the arrivals in [t0, t1) to `out` (ascending by construction).
  void draw_arrivals(Rng& rng, sim::Time t0, sim::Time t1,
                     std::vector<sim::Time>& out) const;

 private:
  double base_hz_;
  double amplitude_;
  double period_ns_;
  std::optional<FlashCrowd> flash_;
};

// One open-loop generator, attached at a client node ("edge site").  Via-
// front-end mode batches arrivals and hands each to World::send_at (one
// scheduler event per request); direct mode (majority, primary/backup) arms
// one timer per arrival that drives the embedded ServiceClient.
class SiteGenerator final : public sim::Actor {
 public:
  struct Params {
    OpenLoopParams ol;
    double write_ratio = 0.05;
    double locality = 1.0;   // via-front-end mode only
    std::size_t site = 0;
    std::uint64_t seed = 42;
    // Shared per-trial alias table; built locally when null.
    std::shared_ptr<const ZipfAliasTable> zipf;
  };

  // Via-front-end mode.
  explicit SiteGenerator(Params p);
  // Direct mode: the generator owns a protocol service client.
  SiteGenerator(Params p, std::shared_ptr<protocols::ServiceClient> direct);

  // Registers instruments and arms the first batch timer.  Call from the
  // coordinating thread (after World::attach, before the first run) --
  // instrument registration is setup-time-only.
  void start();

  void on_message(const sim::Envelope& env) override;

  [[nodiscard]] bool done() const {
    if (!params_.ol.track_replies) return emission_done_;
    return emission_done_ && (pending_.empty() || drain_done_);
  }

  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] std::uint64_t offered() const { return offered_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t rejected_reads() const {
    return rejected_reads_;
  }
  [[nodiscard]] std::uint64_t rejected_writes() const {
    return rejected_writes_;
  }

 private:
  void run_batch();
  void raise_floor();
  void emit(sim::Time arrival);
  // Fast path: read request for a pre-sampled object straight to the home
  // front end.  Used when the batch qualifies for batched Zipf sampling.
  void emit_read(sim::Time arrival, ObjectId object);
  void issue_direct(std::uint64_t token, msg::OpKind kind, ObjectId object,
                    Value value);
  void complete(std::uint64_t key, bool ok, Value value, LogicalClock lc);
  void finish_emission();
  void finish_drain();
  [[nodiscard]] ObjectId sample_object(sim::Time at);
  [[nodiscard]] NodeId pick_front_end();

  Params params_;
  std::shared_ptr<protocols::ServiceClient> direct_;
  std::shared_ptr<const ZipfAliasTable> zipf_;
  RateModel rate_;
  HotSet hot_;
  // Sampling stream owned by this generator, derived from (seed, site):
  // identical regardless of engine, partition plan, or thread count.
  Rng rng_;

  NodeId home_;  // cached home front end (resolved once in start())
  sim::Time next_window_ = 0;
  std::vector<sim::Time> arrivals_;  // batch scratch, reused
  std::vector<std::uint64_t> objects_;  // batched-sampling scratch, reused
  bool emission_done_ = false;
  bool drain_done_ = false;
  sim::TimerToken drain_timer_;
  std::uint64_t write_seq_ = 0;
  std::uint64_t direct_seq_ = 0;

  // Outstanding requests keyed by rpc id (via front end) or a synthetic
  // token (direct mode).  Ordered map: determinism rules ban unordered
  // containers in partition-owned state.
  std::map<std::uint64_t, OpRecord> pending_;
  // Ack floor sent with each request (AppRequest::settled_below): the
  // oldest pending rpc id that may still be on the wire, or kNoFloor until
  // the batch mints one (0 when replies are not tracked).  The generator
  // never retransmits, so a pending request sent more than `on_wire_` ago
  // (the longest client-link delay) has reached its front end or been
  // lost: no copy of it can arrive after a later request, and the front
  // end may forget its reply.  Counting only requests still on the wire
  // keeps a lost one from pinning the floor for the rest of the run.
  static constexpr std::uint64_t kNoFloor = ~std::uint64_t{0};
  std::uint64_t floor_ = 0;
  sim::Duration on_wire_ = 0;
  History history_;
  std::uint64_t offered_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t rejected_reads_ = 0, rejected_writes_ = 0;

  // Cached instruments (registered in start(); lookups are setup-only).
  obs::Counter* offered_c_ = nullptr;
  obs::Counter* completed_c_ = nullptr;
  obs::Counter* failed_c_ = nullptr;
  obs::Counter* batches_c_ = nullptr;
  obs::Counter* site_offered_ = nullptr;
  obs::Counter* site_completed_ = nullptr;
  obs::Histogram* site_latency_ = nullptr;
};

}  // namespace dq::workload
