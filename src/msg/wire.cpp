#include "msg/wire.h"

#include <array>

namespace dq::msg {

namespace {

// Sizing building blocks (serialized-representation estimates).
constexpr std::size_t kHeader = 32;      // src, dst, rpc id, type tag, flags
constexpr std::size_t kId = 8;           // object / volume / rpc id
constexpr std::size_t kClock = 12;       // logical clock (counter + writer)
constexpr std::size_t kTime = 8;         // timestamps, durations, epochs

// One row of the wire-type table: an alternative's name and the approximate
// size of one message of it.
struct Row {
  const char* name;
  std::size_t size;
};

Row row(const char* name, std::size_t body) { return {name, kHeader + body}; }

// The wire-type table: a visitor with one overload per alternative, so each
// type's name sits next to its size and an alternative added without a row
// fails to compile.
struct Describe {
  Row operator()(const AppRequest& m) const {
    return row("AppRequest", 1 + 2 * kId + m.value.size());
  }
  Row operator()(const AppReply& m) const {
    return row("AppReply", 1 + kId + kClock + m.value.size());
  }
  Row operator()(const DqLcRead&) const { return row("DqLcRead", kId); }
  Row operator()(const DqLcReadReply&) const {
    return row("DqLcReadReply", kId + kClock);
  }
  Row operator()(const DqWrite& m) const {
    return row("DqWrite", kId + kClock + m.value.size());
  }
  Row operator()(const DqWriteAck&) const {
    return row("DqWriteAck", kId + kClock);
  }
  Row operator()(const DqRead&) const { return row("DqRead", kId); }
  Row operator()(const DqReadReply& m) const {
    return row("DqReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const DqVolRenew&) const {
    return row("DqVolRenew", kId + kTime);
  }
  Row operator()(const DqVolRenewReply& m) const {
    return row("DqVolRenewReply",
               kId + 3 * kTime + m.delayed.size() * (kId + kClock));
  }
  Row operator()(const DqVolRenewAck&) const {
    return row("DqVolRenewAck", kId + kClock);
  }
  Row operator()(const DqVolRenewBatch& m) const {
    return row("DqVolRenewBatch", m.renewals.size() * (kId + kTime));
  }
  Row operator()(const DqVolRenewBatchReply& m) const {
    std::size_t total = 0;
    for (const auto& r : m.replies) {
      total += kId + 3 * kTime + r.delayed.size() * (kId + kClock);
    }
    return row("DqVolRenewBatchReply", total);
  }
  Row operator()(const DqVolRenewAckBatch& m) const {
    return row("DqVolRenewAckBatch", m.acks.size() * (kId + kClock));
  }
  Row operator()(const DqObjRenew&) const {
    return row("DqObjRenew", kId + kTime);
  }
  Row operator()(const DqObjRenewReply& m) const {
    return row("DqObjRenewReply", kId + kClock + 3 * kTime + m.value.size());
  }
  Row operator()(const DqVolFetch&) const {
    return row("DqVolFetch", kId + kTime);
  }
  Row operator()(const DqVolFetchReply& m) const {
    std::size_t total = Describe{}(m.vol).size - kHeader;
    for (const auto& o : m.objects) {
      total += kId + kClock + 3 * kTime + o.value.size();
    }
    return row("DqVolFetchReply", total);
  }
  Row operator()(const DqVolObjRenew&) const {
    return row("DqVolObjRenew", 2 * kId + kTime);
  }
  Row operator()(const DqVolObjRenewReply& m) const {
    // One envelope around both bodies.
    return row("DqVolObjRenewReply", Describe{}(m.vol).size - kHeader +
                                         Describe{}(m.obj).size - kHeader);
  }
  Row operator()(const DqInval&) const { return row("DqInval", kId + kClock); }
  Row operator()(const DqInvalAck&) const {
    return row("DqInvalAck", kId + kClock);
  }
  Row operator()(const MajRead&) const { return row("MajRead", kId); }
  Row operator()(const MajReadReply& m) const {
    return row("MajReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const MajLcRead&) const { return row("MajLcRead", kId); }
  Row operator()(const MajLcReadReply&) const {
    return row("MajLcReadReply", kId + kClock);
  }
  Row operator()(const MajWrite& m) const {
    return row("MajWrite", kId + kClock + m.value.size());
  }
  Row operator()(const MajWriteAck&) const {
    return row("MajWriteAck", kId + kClock);
  }
  Row operator()(const PbRead&) const { return row("PbRead", kId); }
  Row operator()(const PbReadReply& m) const {
    return row("PbReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const PbWrite& m) const {
    return row("PbWrite", kId + m.value.size());
  }
  Row operator()(const PbWriteAck&) const {
    return row("PbWriteAck", kId + kClock);
  }
  Row operator()(const PbSync& m) const {
    return row("PbSync", kId + kClock + m.value.size());
  }
  Row operator()(const PbSyncAck&) const {
    return row("PbSyncAck", kId + kClock);
  }
  Row operator()(const RowaRead&) const { return row("RowaRead", kId); }
  Row operator()(const RowaReadReply& m) const {
    return row("RowaReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const RowaWrite& m) const {
    return row("RowaWrite", kId + kClock + m.value.size());
  }
  Row operator()(const RowaWriteAck&) const {
    return row("RowaWriteAck", kId + kClock);
  }
  Row operator()(const AsyncRead&) const { return row("AsyncRead", kId); }
  Row operator()(const AsyncReadReply& m) const {
    return row("AsyncReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const AsyncWrite& m) const {
    return row("AsyncWrite", kId + m.value.size());
  }
  Row operator()(const AsyncWriteAck&) const {
    return row("AsyncWriteAck", kId + kClock);
  }
  Row operator()(const GossipUpdate& m) const {
    return row("GossipUpdate", kId + kClock + m.value.size());
  }
  Row operator()(const AeDigest& m) const {
    return row("AeDigest", m.entries.size() * (kId + kClock));
  }
  Row operator()(const AeUpdates& m) const {
    std::size_t total = 0;
    for (const auto& u : m.updates) {
      total += kId + kClock + u.value.size();
    }
    return row("AeUpdates", total);
  }
  Row operator()(const HermesWrite& m) const {
    return row("HermesWrite", kId + m.value.size());
  }
  Row operator()(const HermesWriteAck&) const {
    return row("HermesWriteAck", kId + kClock);
  }
  Row operator()(const HermesRead&) const { return row("HermesRead", kId); }
  Row operator()(const HermesReadReply& m) const {
    return row("HermesReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const HermesInv& m) const {
    return row("HermesInv", kId + kClock + kTime + m.value.size());
  }
  Row operator()(const HermesInvAck&) const {
    return row("HermesInvAck", kId + kClock);
  }
  Row operator()(const HermesVal&) const {
    return row("HermesVal", kId + kClock + kTime);
  }
  Row operator()(const HermesValAck&) const {
    return row("HermesValAck", kId + kClock);
  }
  Row operator()(const DynRead&) const { return row("DynRead", kId); }
  Row operator()(const DynReadReply& m) const {
    return row("DynReadReply", kId + kClock + m.value.size());
  }
  Row operator()(const DynWrite& m) const {
    return row("DynWrite", kId + kClock + 4 + m.value.size());
  }
  Row operator()(const DynWriteAck&) const {
    return row("DynWriteAck", kId + kClock);
  }
  Row operator()(const DynHandoff& m) const {
    return row("DynHandoff", kId + kClock + m.value.size());
  }
  Row operator()(const DynHandoffAck&) const {
    return row("DynHandoffAck", kId + kClock);
  }
  Row operator()(const DynRepair& m) const {
    return row("DynRepair", kId + kClock + m.value.size());
  }
};

template <std::size_t... I>
std::array<const char*, sizeof...(I)> make_type_names(
    std::index_sequence<I...>) {
  // The default-constructed instances exist only during this one-time
  // table build.
  return {Describe{}(std::variant_alternative_t<I, Payload>{}).name...};
}

}  // namespace

const char* payload_type_name(std::size_t index) {
  static const std::array<const char*, payload_type_count()> kNames =
      make_type_names(std::make_index_sequence<payload_type_count()>{});
  return index < kNames.size() ? kNames[index] : "?";
}

std::size_t approximate_size(const Payload& p) {
  return std::visit(Describe{}, p).size;
}

}  // namespace dq::msg
