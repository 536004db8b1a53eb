// Service clients for the dual-quorum store.
//
// Reads go to an OQS read quorum; the reply with the highest logical clock
// wins.  Writes are two QRPC phases against the IQS, exactly as in the
// paper: (1) read the highest logical clock from an IQS read quorum,
// (2) advance it and send the write to an IQS write quorum.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "core/config.h"
#include "msg/wire.h"
#include "protocols/quorum_client.h"

namespace dq::protocols {

struct DqMessages {
  static msg::Payload read(ObjectId o) { return msg::DqRead{o}; }
  static const msg::DqReadReply* read_reply(const msg::Payload& p) {
    return std::get_if<msg::DqReadReply>(&p);
  }
  static msg::Payload lc_read(ObjectId o) { return msg::DqLcRead{o}; }
  static const msg::DqLcReadReply* lc_read_reply(const msg::Payload& p) {
    return std::get_if<msg::DqLcReadReply>(&p);
  }
  static msg::Payload write(ObjectId o, const Value& v, LogicalClock lc) {
    return msg::DqWrite{o, v, lc};
  }
};

class DqServiceClient : public ClientStampedClient<DqMessages> {
 public:
  DqServiceClient(sim::World& world, NodeId self,
                  std::shared_ptr<const core::DqConfig> cfg)
      : ClientStampedClient(world, self, cfg->oqs, cfg->iqs, cfg->rpc) {}
};

// Atomic semantics (paper section 6, future work: "modifying DQVL to
// provide different consistency semantics (e.g. atomic semantics) and
// comparing the cost difference").
//
// Plain DQVL is regular, not atomic: a read may return a concurrent write's
// value from one freshly renewed OQS node while a later read, at a node
// whose (still valid) leases predate that write, returns the older value --
// a new-old inversion.
//
// The classic fix (ABD) is read write-back: before returning (value, lc),
// confirm it at an IQS write quorum.  The IQS write handler already has the
// needed semantics for a replayed clock: a DqWrite with lc <= lastWriteLC
// applies nothing but acks only once an OQS write quorum is unable to read
// anything older than lc.  After that every future read observes a clock
// >= lc, so inversions are impossible.  Writes are the plain DQVL writes
// (the LC-read phase already orders a write after every completed write).
//
// The cost (bench/ablation_atomic.cpp): reads are no longer local -- every
// read pays an IQS write-quorum round (about one WAN RTT) on top of the OQS
// read.
class DqAtomicServiceClient final : public DqServiceClient {
 public:
  using DqServiceClient::DqServiceClient;

  void read(ObjectId o, ReadCallback done) override {
    DqServiceClient::read(o, [this, o, done = std::move(done)](
                                 bool ok, VersionedValue vv) mutable {
      // The initial value needs no confirmation: no write to stabilize.
      if (!ok || vv.clock == LogicalClock::zero()) {
        done(ok, std::move(vv));
        return;
      }
      engine_.call(
          *writes_, quorum::Kind::kWrite,
          [o, vv](NodeId) -> std::optional<msg::Payload> {
            return DqMessages::write(o, vv.value, vv.clock);
          },
          [](NodeId, const msg::Payload&) {},
          [vv, done = std::move(done)](bool ok2) mutable {
            done(ok2, std::move(vv));
          },
          opts_);
    });
  }
};

}  // namespace dq::protocols
