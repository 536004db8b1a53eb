#include "workload/history.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace dq::workload {

namespace {

std::string describe(const OpRecord& op) {
  std::ostringstream os;
  os << (op.kind == msg::OpKind::kRead ? "read" : "write") << " obj="
     << op.object << " client=" << op.client << " [" << op.invoked << ","
     << (op.ok ? op.completed : -1) << ") value='" << op.value << "' lc="
     << op.clock;
  return os.str();
}

}  // namespace

std::vector<Violation> History::check_regular() const {
  std::vector<Violation> out;

  // Partition by object.
  std::map<ObjectId, std::vector<const OpRecord*>> by_obj;
  for (const OpRecord& op : ops()) by_obj[op.object].push_back(&op);

  for (const auto& [obj, ops] : by_obj) {
    std::vector<const OpRecord*> writes;
    std::vector<const OpRecord*> reads;
    for (const OpRecord* op : ops) {
      (op->kind == msg::OpKind::kWrite ? writes : reads).push_back(op);
    }
    for (const OpRecord* r : reads) {
      if (!r->ok) continue;

      // (a) The latest write completed before the read began.
      const OpRecord* last_completed = nullptr;
      for (const OpRecord* w : writes) {
        if (!w->ok || w->completed > r->invoked) continue;
        if (last_completed == nullptr ||
            w->clock > last_completed->clock) {
          last_completed = w;
        }
      }
      bool legal = false;
      if (last_completed == nullptr) {
        // Nothing completed before the read: the initial value is legal.
        legal = r->clock == LogicalClock::zero() && r->value.empty();
      } else {
        legal = r->clock == last_completed->clock &&
                r->value == last_completed->value;
      }
      // (b) Any overlapping write (or a write that never completed and
      // started before the read finished).
      //
      // The clock may differ from the record's as long as the value matches:
      // one logical write can execute more than once when a crash wipes a
      // front end's at-most-once table and the client retransmits, and each
      // execution mints its own clock.  A reader overlapping the op may have
      // seen an earlier attempt's (value, clock) pair while the history
      // records only the attempt that finally acked.  Value-only matching is
      // sound here because workload values uniquely name their logical write;
      // the overlap requirement still holds, so a *stale* value (one whose
      // write completed before the read began) is never excused.
      if (!legal) {
        for (const OpRecord* w : writes) {
          const sim::Time w_end = w->ok ? w->completed : sim::kTimeInfinity;
          const bool overlaps = w->invoked < r->completed &&
                                w_end > r->invoked;
          if (overlaps && r->value == w->value) {
            legal = true;
            break;
          }
        }
      }
      if (!legal) {
        std::ostringstream why;
        why << "read returned value='" << r->value << "' lc=" << r->clock
            << " but the last completed write was ";
        if (last_completed == nullptr) {
          why << "(none; expected the initial value)";
        } else {
          why << describe(*last_completed);
        }
        out.push_back({*r, why.str()});
      }
    }
  }
  return out;
}

std::vector<Violation> History::check_atomic() const {
  std::vector<Violation> out = check_regular();

  std::map<ObjectId, std::vector<const OpRecord*>> by_obj;
  for (const OpRecord& op : ops()) {
    if (op.ok) by_obj[op.object].push_back(&op);
  }
  for (const auto& [obj, ops] : by_obj) {
    for (const OpRecord* a : ops) {
      for (const OpRecord* b : ops) {
        if (a == b || a->completed > b->invoked) continue;  // a precedes b?
        // a completed before b began.
        const bool a_w = a->kind == msg::OpKind::kWrite;
        const bool b_w = b->kind == msg::OpKind::kWrite;
        std::string why;
        if (a_w && b_w && !(a->clock < b->clock)) {
          why = "writes out of real-time order";
        } else if (!a_w && !b_w && b->clock < a->clock) {
          why = "new-old read inversion";
        } else if (a_w && !b_w && b->clock < a->clock) {
          why = "read missed an earlier completed write";
        }
        if (!why.empty()) {
          std::ostringstream os;
          os << why << ": earlier op lc=" << a->clock << " ["
             << a->invoked << "," << a->completed << "), later op lc="
             << b->clock << " [" << b->invoked << "," << b->completed << ")";
          out.push_back({*b, os.str()});
        }
      }
    }
  }
  return out;
}

}  // namespace dq::workload
