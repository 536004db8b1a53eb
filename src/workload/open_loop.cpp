#include "workload/open_loop.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/assert.h"

namespace dq::workload {

// ---------------------------------------------------------------------------
// ZipfAliasTable
// ---------------------------------------------------------------------------

ZipfAliasTable::ZipfAliasTable(double s, std::size_t n) : s_(s) {
  if (n == 0) n = 1;
  // The only pow() in the sampler: O(n) once per trial, never per draw.
  std::vector<double> scaled(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = std::pow(static_cast<double>(i + 1), -s);
    total += scaled[i];
  }
  norm_ = total;

  // Vose's stable alias construction: split columns into under- and
  // over-full, pair them off, each column ends up holding at most two
  // outcomes (itself and its alias).  The pairing runs in doubles; only the
  // finished split point is rounded into the packed column.
  cols_.assign(n, Col{});
  const double scale = static_cast<double>(n) / total;
  for (std::size_t i = 0; i < n; ++i) scaled[i] *= scale;
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(
        static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t sm = small.back();
    small.pop_back();
    const std::uint32_t lg = large.back();
    large.pop_back();
    cols_[sm] = Col{static_cast<float>(scaled[sm]), lg};
    scaled[lg] = (scaled[lg] + scaled[sm]) - 1.0;
    (scaled[lg] < 1.0 ? small : large).push_back(lg);
  }
  // Leftovers are exactly full up to rounding; they keep prob 1.0.
}

void ZipfAliasTable::sample_many(Rng& rng, std::size_t count,
                                 std::vector<std::uint64_t>& out) const {
  out.resize(count);
  const std::size_t n = cols_.size();
  // Pass 1: take the raw 64-bit draws (identical rng sequence to `count`
  // sample() calls) and start each column load.  The prefetch is only a
  // hint -- results are byte-identical with or without it.
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t r = rng();
    out[k] = r;
#if defined(__GNUC__) || defined(__clang__)
    const std::size_t i = static_cast<std::size_t>(
        ((r >> 32) * static_cast<std::uint64_t>(n)) >> 32);
    __builtin_prefetch(&cols_[i]);
#endif
  }
  // Pass 2: resolve each draw exactly as sample() would.
  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t r = out[k];
    const std::size_t i = static_cast<std::size_t>(
        ((r >> 32) * static_cast<std::uint64_t>(n)) >> 32);
    const double u = static_cast<double>(r & 0xffffffffULL) * 0x1.0p-32;
    const Col c = cols_[i];
    out[k] = u < c.prob ? i : c.alias;
  }
}

double ZipfAliasTable::pmf(std::size_t i) const {
  return std::pow(static_cast<double>(i + 1), -s_) / norm_;
}

// ---------------------------------------------------------------------------
// RateModel
// ---------------------------------------------------------------------------

RateModel::RateModel(double base_hz, double amplitude, sim::Duration period,
                     std::optional<FlashCrowd> flash)
    : base_hz_(base_hz),
      amplitude_(amplitude),
      period_ns_(period > 0 ? static_cast<double>(period) : 1.0),
      flash_(flash) {
  DQ_INVARIANT(amplitude_ >= 0.0 && amplitude_ < 1.0,
               "diurnal amplitude must be in [0, 1)");
}

namespace {
constexpr double kTwoPi = 6.283185307179586;
}  // namespace

double RateModel::rate_at(sim::Time t) const {
  double r = base_hz_;
  if (amplitude_ != 0.0) {
    r *= 1.0 + amplitude_ * std::sin(kTwoPi * static_cast<double>(t) /
                                     period_ns_);
  }
  if (flash_active(t)) r *= flash_->multiplier;
  return r > 0.0 ? r : 0.0;
}

double RateModel::max_rate(sim::Time t0, sim::Time t1) const {
  double r = base_hz_ * (1.0 + amplitude_);
  if (flash_ && flash_->multiplier > 1.0 &&
      t0 < flash_->start + flash_->duration && t1 > flash_->start) {
    r *= flash_->multiplier;
  }
  return r;
}

double RateModel::expected_arrivals(sim::Time t0, sim::Time t1) const {
  // The diurnal rate integrated over [a, b), in arrivals (rates are Hz,
  // times ns).
  const auto diurnal = [this](double a, double b) {
    if (b <= a) return 0.0;
    const double wave = amplitude_ * period_ns_ / kTwoPi *
                        (std::cos(kTwoPi * a / period_ns_) -
                         std::cos(kTwoPi * b / period_ns_));
    return base_hz_ * (b - a + wave) * 1e-9;
  };
  const auto a = static_cast<double>(t0);
  const auto b = static_cast<double>(t1);
  double n = diurnal(a, b);
  if (flash_) {
    // The flash scales the rate by its multiplier where it overlaps.
    const auto fs = static_cast<double>(flash_->start);
    const auto fe = static_cast<double>(flash_->start + flash_->duration);
    n += (flash_->multiplier - 1.0) *
         diurnal(std::max(a, fs), std::min(b, fe));
  }
  return std::max(n, 0.0);
}

void RateModel::draw_arrivals(Rng& rng, sim::Time t0, sim::Time t1,
                              std::vector<sim::Time>& out) const {
  const double lam = max_rate(t0, t1);  // Hz
  if (lam <= 0.0 || t1 <= t0) return;
  // When the rate is constant across the window the envelope is exact and
  // every candidate is accepted -- no thinning draw.  That is the regime the
  // throughput bench runs in (flat rate), so the fast path matters.
  bool constant = amplitude_ == 0.0;
  if (constant && flash_) {
    const sim::Time fe = flash_->start + flash_->duration;
    const bool fully_in = t0 >= flash_->start && t1 <= fe;
    const bool fully_out = t1 <= flash_->start || t0 >= fe;
    constant = fully_in || fully_out;
  }
  const double mean_gap_ns = 1e9 / lam;
  double t = static_cast<double>(t0);
  const double end = static_cast<double>(t1);
  while (true) {
    t += rng.exponential(mean_gap_ns);
    if (t >= end) return;
    const auto ti = static_cast<sim::Time>(t);
    if (constant || rng.uniform() * lam < rate_at(ti)) out.push_back(ti);
  }
}

// ---------------------------------------------------------------------------
// SiteGenerator
// ---------------------------------------------------------------------------

namespace {

// During a flash crowd, a draw lands in the hot set with this probability;
// the hot set tracks the kHotSetSize most recently touched objects.
constexpr double kHotFraction = 0.8;
constexpr std::size_t kHotSetSize = 16;

// Arrivals are drawn per batch window.
constexpr sim::Duration kBatchWindow = sim::milliseconds(100);
// Upper bound on expected arrivals per batch.  Every arrival in a batch
// becomes a pending delivery the moment the batch runs, so at high rates an
// uncapped window floods the partition's event heap until it falls out of
// cache and inflates the per-event cost.  When a window would exceed this,
// the generator shrinks the window (deterministically, from the rate
// envelope alone) instead.
constexpr std::size_t kMaxBatchArrivals = 4096;

}  // namespace

SiteGenerator::SiteGenerator(Params p) : SiteGenerator(std::move(p), nullptr) {}

SiteGenerator::SiteGenerator(Params p,
                             std::shared_ptr<protocols::ServiceClient> direct)
    : params_(std::move(p)),
      direct_(std::move(direct)),
      zipf_(params_.zipf != nullptr
                ? params_.zipf
                : std::make_shared<const ZipfAliasTable>(params_.ol.zipf_s,
                                                         params_.ol.objects)),
      rate_(params_.ol.site_rate_hz(), params_.ol.diurnal_amplitude,
            params_.ol.diurnal_period, params_.ol.flash),
      hot_(kHotSetSize),
      // Sampling stream derived from (seed, site) only: the same arrivals
      // and objects come out on every engine, partition plan, and thread
      // count.  The golden-ratio multiplier decorrelates adjacent sites.
      rng_(params_.seed ^ (0x9E3779B97F4A7C15ULL *
                           static_cast<std::uint64_t>(params_.site + 1))) {}

void SiteGenerator::start() {
  obs::MetricsRegistry& m = world().metrics();
  offered_c_ = &m.counter("open_loop.offered");
  completed_c_ = &m.counter("open_loop.completed");
  failed_c_ = &m.counter("open_loop.failed");
  batches_c_ = &m.counter("open_loop.batches");
  const std::string site = "s" + std::to_string(params_.site);
  site_offered_ = &m.counter("site.offered." + site);
  site_completed_ = &m.counter("site.completed." + site);
  site_latency_ = &m.histogram("site.latency_ms." + site);
  home_ = world().topology().home_of(id());
  on_wire_ = world().topology().max_client_delay();
  next_window_ = world().now();
  if (params_.ol.track_replies) {
    // Every arrival ends up in the history, so reserve the expected count
    // plus Poisson headroom (four standard deviations) once: recording then
    // never relocates the records already held.  Reserved pages nobody
    // touches cost address space, not memory; a run past the reserve grows
    // as usual.
    const double mean =
        rate_.expected_arrivals(next_window_, params_.ol.horizon);
    history_.reserve(
        static_cast<std::size_t>(std::ceil(mean + 4.0 * std::sqrt(mean))));
  }
  world().set_timer(id(), 0, [this] { run_batch(); });
}

void SiteGenerator::run_batch() {
  const sim::Time t0 = next_window_;
  // Shrink the window when the rate envelope says a full kBatchWindow would
  // exceed kMaxBatchArrivals expected arrivals: bounded batch occupancy
  // keeps the partition's event heap cache-resident at any site rate.  The
  // cap is computed from the params alone, so the arrival schedule is the
  // same on every engine and at every thread count.
  sim::Duration window = kBatchWindow;
  const double lam = rate_.max_rate(t0, t0 + window);  // Hz
  if (lam > 0.0) {
    const double cap_ns = static_cast<double>(kMaxBatchArrivals) * 1e9 / lam;
    if (cap_ns < static_cast<double>(window)) {
      window = std::max<sim::Duration>(1, static_cast<sim::Duration>(cap_ns));
    }
  }
  const sim::Time t1 = std::min<sim::Time>(t0 + window, params_.ol.horizon);
  batches_c_->inc();
  arrivals_.clear();
  rate_.draw_arrivals(rng_, t0, t1, arrivals_);
  // One counter update per batch, not per request (inc() is on the profile
  // at full emission rate).
  const auto n = static_cast<std::uint64_t>(arrivals_.size());
  offered_ += n;
  offered_c_->inc(n);
  site_offered_->inc(n);
  // When the zipf draw is the only randomness per arrival (reads only, full
  // locality, no flash-crowd hot set, via front end), sample the whole batch
  // through the prefetching path.  The rng sequence -- and so every report
  // byte -- is identical to the per-arrival loop; only the memory-level
  // parallelism differs.  The condition depends on params alone, never on
  // drawn values.
  const bool batched_zipf = direct_ == nullptr && params_.write_ratio <= 0.0 &&
                            params_.locality >= 1.0 && !params_.ol.flash;
  if (direct_ == nullptr && params_.ol.track_replies) raise_floor();
  if (batched_zipf) {
    zipf_->sample_many(rng_, arrivals_.size(), objects_);
    for (std::size_t k = 0; k < arrivals_.size(); ++k) {
      emit_read(arrivals_[k], ObjectId(objects_[k]));
    }
  } else {
    for (const sim::Time a : arrivals_) emit(a);
  }
  next_window_ = t1;
  if (t1 < params_.ol.horizon) {
    world().set_timer(id(), t1 - world().now(), [this] { run_batch(); });
  } else {
    finish_emission();
  }
}

void SiteGenerator::raise_floor() {
  // Every request still on the wire was sent at or after `cutoff`, and this
  // batch's requests depart at or after now, so they arrive strictly after
  // the last copy of anything older.  Requests skipped here stay pending
  // (a reply may still come); only the floor passes them, once.
  const sim::Time cutoff = world().now() - on_wire_;
  auto it = pending_.lower_bound(floor_);
  while (it != pending_.end() && it->second.invoked < cutoff) ++it;
  floor_ = it == pending_.end() ? kNoFloor : it->first;
}

NodeId SiteGenerator::pick_front_end() {
  // locality == 1 is the common (and bench) case; skip the draw entirely.
  if (params_.locality >= 1.0 || rng_.chance(params_.locality)) return home_;
  const auto& topo = world().topology();
  const std::size_t n = topo.num_servers();
  if (n <= 1) return home_;
  while (true) {
    const NodeId s = topo.server(rng_.below(n));
    if (s != home_) return s;
  }
}

ObjectId SiteGenerator::sample_object(sim::Time at) {
  std::uint64_t obj = zipf_->sample(rng_);
  if (rate_.flash_active(at)) {
    // Flash crowd: popularity collapses onto the recently touched set; the
    // alias table itself is never rebuilt.
    if (!hot_.empty() && rng_.chance(kHotFraction)) {
      obj = hot_.pick(rng_);
    }
    hot_.touch(obj);
  }
  return ObjectId(obj);
}

void SiteGenerator::emit(sim::Time arrival) {
  const bool is_write =
      params_.write_ratio > 0.0 && rng_.chance(params_.write_ratio);
  const msg::OpKind kind = is_write ? msg::OpKind::kWrite : msg::OpKind::kRead;
  const ObjectId object = sample_object(arrival);
  Value value;
  if (is_write) {
    value = "s" + std::to_string(params_.site) + "-" +
            std::to_string(++write_seq_);
  }

  if (direct_ != nullptr) {
    // Direct mode (majority, primary/backup): the protocol client issues the
    // op itself, so each arrival costs one timer on this partition's queue.
    const std::uint64_t token = ++direct_seq_;
    if (params_.ol.track_replies) {
      OpRecord rec;
      rec.client = ClientId(id().value());
      rec.kind = kind;
      rec.object = object;
      rec.invoked = arrival;
      rec.value = value;
      pending_.emplace(token, std::move(rec));
    }
    world().set_timer(id(), arrival - world().now(),
                      [this, token, kind, object, value = std::move(value)] {
                        issue_direct(token, kind, object, value);
                      });
    return;
  }

  // Via front end: the whole batch is already drawn, so hand the arrival
  // time to the network layer -- one delivery event per request, no
  // per-request timer (World::send_at).
  const NodeId fe = pick_front_end();
  // Fire-and-forget mode never matches a reply, so don't mint an rpc id
  // (0 marks one-way traffic, see sim::Envelope).
  const RequestId rpc =
      params_.ol.track_replies ? world().fresh_rpc_id() : RequestId(0);
  if (params_.ol.track_replies) {
    OpRecord rec;
    rec.client = ClientId(id().value());
    rec.kind = kind;
    rec.object = object;
    rec.invoked = arrival;
    rec.value = value;
    pending_.emplace(rpc.value(), std::move(rec));
    floor_ = std::min(floor_, rpc.value());
  }
  msg::AppRequest req;
  req.op = kind;
  req.object = object;
  req.value = std::move(value);
  req.settled_below = RequestId(floor_);
  world().send_at(id(), fe, arrival, rpc, std::move(req));
}

void SiteGenerator::emit_read(sim::Time arrival, ObjectId object) {
  const RequestId rpc =
      params_.ol.track_replies ? world().fresh_rpc_id() : RequestId(0);
  if (params_.ol.track_replies) {
    OpRecord rec;
    rec.client = ClientId(id().value());
    rec.kind = msg::OpKind::kRead;
    rec.object = object;
    rec.invoked = arrival;
    pending_.emplace(rpc.value(), std::move(rec));
    floor_ = std::min(floor_, rpc.value());
  }
  msg::AppRequest req;
  req.op = msg::OpKind::kRead;
  req.object = object;
  req.settled_below = RequestId(floor_);
  world().send_at(id(), home_, arrival, rpc, std::move(req));
}

void SiteGenerator::issue_direct(std::uint64_t token, msg::OpKind kind,
                                 ObjectId object, Value value) {
  if (kind == msg::OpKind::kWrite) {
    direct_->write(object, std::move(value),
                   [this, token](bool ok, LogicalClock lc) {
                     complete(token, ok, Value{}, lc);
                   });
  } else {
    direct_->read(object, [this, token](bool ok, VersionedValue vv) {
      complete(token, ok, std::move(vv.value), vv.clock);
    });
  }
}

void SiteGenerator::complete(std::uint64_t key, bool ok, Value value,
                             LogicalClock lc) {
  auto it = pending_.find(key);
  if (it == pending_.end()) return;  // duplicate, or already drained
  OpRecord rec = std::move(it->second);
  pending_.erase(it);
  rec.ok = ok;
  rec.completed = world().now();
  if (rec.kind == msg::OpKind::kRead) rec.value = std::move(value);
  rec.clock = lc;
  if (ok) {
    ++completed_;
    completed_c_->inc();
    site_completed_->inc();
    site_latency_->observe(sim::to_ms(rec.completed - rec.invoked));
  } else {
    ++failed_;
    failed_c_->inc();
    ++(rec.kind == msg::OpKind::kRead ? rejected_reads_ : rejected_writes_);
  }
  history_.record(std::move(rec));
  if (emission_done_ && pending_.empty()) {
    drain_timer_.cancel();
    drain_done_ = true;
  }
}

void SiteGenerator::finish_emission() {
  emission_done_ = true;
  if (!params_.ol.track_replies) return;
  if (pending_.empty()) {
    drain_done_ = true;
    return;
  }
  drain_timer_ = world().set_timer(id(), params_.ol.drain,
                                   [this] { finish_drain(); });
}

void SiteGenerator::finish_drain() {
  drain_done_ = true;
  for (auto& [key, rec] : pending_) {
    rec.ok = false;
    rec.completed = world().now();
    ++failed_;
    failed_c_->inc();
    ++(rec.kind == msg::OpKind::kRead ? rejected_reads_ : rejected_writes_);
    history_.record(std::move(rec));
  }
  pending_.clear();
}

void SiteGenerator::on_message(const sim::Envelope& env) {
  if (direct_ != nullptr && direct_->on_message(env)) return;
  const auto* rep = std::get_if<msg::AppReply>(&env.body);
  if (rep == nullptr) return;
  if (!params_.ol.track_replies) return;
  complete(env.rpc_id.value(), rep->ok, rep->value, rep->clock);
}

}  // namespace dq::workload
