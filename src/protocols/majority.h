// Majority-quorum replicated register (Gifford / Thomas weighted voting with
// equal votes).
//
// Reads gather a majority and take the highest-clock reply.  Writes are two
// phases: read the highest clock from a majority, advance it, write to a
// majority.  This provides regular semantics and is the paper's primary
// strong-consistency baseline.
#pragma once

#include <memory>
#include <optional>

#include "protocols/quorum_client.h"
#include "store/object_store.h"
#include "store/wal.h"

namespace dq::protocols {

class MajorityServer {
 public:
  // With `wal` set the server keeps a write-ahead log, gates write acks on
  // record durability, and implements crash recovery by replay -- the
  // minimal recovery story that keeps the baseline comparison with DQVL
  // fair.  Without it (the default) crashes keep state, as before.
  MajorityServer(sim::World& world, NodeId self,
                 std::optional<store::WalParams> wal = std::nullopt)
      : world_(world), self_(self),
        m_reads_(&world.metrics().counter("proto.majority.reads")),
        m_lc_reads_(&world.metrics().counter("proto.majority.lc_reads")),
        m_writes_(&world.metrics().counter("proto.majority.writes")) {
    if (wal) {
      wal_ = std::make_unique<store::Wal>(world_, self_, *wal);
      m_recoveries_ = &world.metrics().counter("proto.majority.recoveries");
    }
  }

  bool on_message(const sim::Envelope& env);
  void on_crash();
  void on_recover();

  [[nodiscard]] const store::ObjectStore& store() const { return store_; }

 private:
  void handle(const sim::Envelope& env);

  sim::World& world_;
  NodeId self_;
  store::ObjectStore store_;
  std::unique_ptr<store::Wal> wal_;
  obs::Counter* m_reads_;
  obs::Counter* m_lc_reads_;
  obs::Counter* m_writes_;
  obs::Counter* m_recoveries_ = nullptr;
};

struct MajorityMessages {
  static msg::Payload read(ObjectId o) { return msg::MajRead{o}; }
  static const msg::MajReadReply* read_reply(const msg::Payload& p) {
    return std::get_if<msg::MajReadReply>(&p);
  }
  static msg::Payload lc_read(ObjectId o) { return msg::MajLcRead{o}; }
  static const msg::MajLcReadReply* lc_read_reply(const msg::Payload& p) {
    return std::get_if<msg::MajLcReadReply>(&p);
  }
  static msg::Payload write(ObjectId o, const Value& v, LogicalClock lc) {
    return msg::MajWrite{o, v, lc};
  }
};

// Reads and writes both use the majority system.
using MajorityClient = ClientStampedClient<MajorityMessages>;

}  // namespace dq::protocols
