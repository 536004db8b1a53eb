#include "workload/flags.h"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <utility>
#include <vector>

namespace dq::workload {

const std::vector<FlagHelp>& experiment_flag_help() {
  static const std::vector<FlagHelp> kHelp = {
      {"protocol", "registered protocol name (default dqvl; 'help' lists"
                   " them)"},
      {"writes", "write ratio in [0,1] (default 0.05)"},
      {"locality", "access locality in [0,1] (default 1.0)"},
      {"burst", "workload burstiness in [0,1] (default 0)"},
      {"servers", "number of edge servers (default 9)"},
      {"clients", "number of application clients (default 3)"},
      {"requests", "requests per client (default 300)"},
      {"iqs", "IQS spec: majority:N | grid:RxC | read-one:N | N (default"
              " majority:5)"},
      {"orq", "OQS read quorum size (default 1)"},
      {"lease-ms", "volume lease length in ms (default 10000)"},
      {"obj-lease-ms", "object lease length in ms (default infinite)"},
      {"volumes", "number of volumes (default 1)"},
      {"drift", "max clock drift rate (default 0)"},
      {"jitter", "multiplicative delay jitter in [0,1): delays become"
                 " d*(1+U[0,jitter]) (default 0)"},
      {"loss", "message loss probability (default 0)"},
      {"node-unavail", "per-node unavailability for failure injection"},
      {"wal", "durability: sync | group | async (enables the WAL)"},
      {"wal-sync-ms", "WAL sync latency in ms (default 2)"},
      {"wal-flush-ms", "WAL group-commit flush interval in ms (default 10)"},
      {"wal-torn-tail", "model torn-tail faults on crash (default off)"},
      {"crash-mttc-ms", "mean time to crash per server in ms (enables"
                        " crash/restart injection)"},
      {"crash-downtime-ms", "mean post-crash downtime in ms (default 2000)"},
      {"deadline-ms", "per-op deadline in ms (default: none)"},
      {"think-ms", "client think time in ms (default 0)"},
      {"world-threads", "intra-trial parallelism: run each trial on the"
                        " topology-derived partition plan with N worker"
                        " threads (default 0 = one partition; output is"
                        " identical for every N >= 1)"},
      {"world-partitions", "partition-count override for --world-threads"
                           " (default 0 = derived from topology)"},
      {"seed", "RNG seed (default 42)"},
      {"object", "single shared object id (default: per-client objects)"},
      {"staleness", "record per-read staleness (age of information) and add"
                    " the staleness section to the report (default off)"},
      {"open-loop", "open-loop aggregated workload: one generator per site"
                    " emits a Poisson rate process on the topology-derived"
                    " partition plan (default off)"},
      {"sites", "open-loop: number of edge sites (overrides --clients)"},
      {"clients-per-site", "open-loop: logical clients aggregated per site"
                           " (default 1000)"},
      {"client-rate", "open-loop: per-logical-client request rate in Hz"
                      " (default 0.1)"},
      {"zipf", "open-loop: Zipf exponent of object popularity (default"
               " 0.99)"},
      {"objects", "open-loop: object population size (default 100000)"},
      {"diurnal", "open-loop: diurnal sine amplitude in [0,1) (default 0;"
                  " period 60s of sim time)"},
      {"flash-crowd", "open-loop: flash crowd START:DURATION:MULTIPLIER in"
                      " seconds (e.g. 4:2:10)"},
      {"open-seconds", "open-loop: emission horizon in seconds (default"
                       " 10)"},
  };
  return kHelp;
}

std::map<std::string, std::string> parse_flag_map(int argc, char** argv,
                                                  std::string* error) {
  std::map<std::string, std::string> out;
  for (int i = 1; i < argc; ++i) {
    const std::string_view raw = argv[i];
    if (raw.size() < 2 || raw[0] != '-' || raw[1] != '-') {
      if (error != nullptr) {
        *error = "unrecognized argument: " + std::string(raw);
      }
      return {};
    }
    const std::string_view arg = raw.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      out.emplace(std::string(arg), "1");
    } else {
      out.emplace(std::string(arg.substr(0, eq)),
                  std::string(arg.substr(eq + 1)));
    }
  }
  return out;
}

namespace {

// Pop flags[name] if present: returns the value and erases the key.
std::optional<std::string> take(std::map<std::string, std::string>& flags,
                                const char* name) {
  auto it = flags.find(name);
  if (it == flags.end()) return std::nullopt;
  std::string v = std::move(it->second);
  flags.erase(it);
  return v;
}

double take_num(std::map<std::string, std::string>& flags, const char* name,
                double dflt) {
  auto v = take(flags, name);
  return v ? std::atof(v->c_str()) : dflt;
}

}  // namespace

std::optional<ExperimentParams> params_from_flags(
    std::map<std::string, std::string>& flags, std::string* error) {
  auto fail = [error](std::string msg) -> std::optional<ExperimentParams> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };

  ExperimentParams p;
  if (auto proto_name = take(flags, "protocol")) {
    if (find_protocol(*proto_name) == nullptr) {
      return fail("unknown protocol '" + *proto_name +
                  "' (--protocol=help lists the registered protocols)");
    }
    p.protocol = *proto_name;
  }
  p.write_ratio = take_num(flags, "writes", 0.05);
  p.locality = take_num(flags, "locality", 1.0);
  p.burstiness = take_num(flags, "burst", 0.0);
  p.topo.num_servers =
      static_cast<std::size_t>(take_num(flags, "servers", 9));
  p.topo.num_clients =
      static_cast<std::size_t>(take_num(flags, "clients", 3));
  p.requests_per_client =
      static_cast<std::size_t>(take_num(flags, "requests", 300));

  if (auto iqs = take(flags, "iqs")) {
    const auto spec = QuorumSpec::parse(*iqs);
    if (!spec) {
      return fail("--iqs expects majority:N | grid:RxC | read-one:N | N,"
                  " got '" + *iqs + "'");
    }
    p.iqs = *spec;
  }
  p.oqs_read_quorum = static_cast<std::size_t>(take_num(flags, "orq", 1));
  p.lease_length = sim::milliseconds(
      static_cast<std::int64_t>(take_num(flags, "lease-ms", 10000)));
  if (flags.count("obj-lease-ms") != 0) {
    p.object_lease_length = sim::milliseconds(
        static_cast<std::int64_t>(take_num(flags, "obj-lease-ms", 0)));
  }
  p.num_volumes = static_cast<std::size_t>(take_num(flags, "volumes", 1));
  p.max_drift = take_num(flags, "drift", 0.0);
  p.topo.jitter = take_num(flags, "jitter", 0.0);
  p.loss = take_num(flags, "loss", 0.0);
  if (flags.count("node-unavail") != 0) {
    p.failures = sim::FailureInjector::Params::for_unavailability(
        take_num(flags, "node-unavail", 0.01), sim::seconds(100));
  }
  if (auto wal = take(flags, "wal")) {
    store::WalParams w;
    if (*wal == "sync") {
      w.policy = store::SyncPolicy::kSyncEveryWrite;
    } else if (*wal == "group") {
      w.policy = store::SyncPolicy::kGroupCommit;
    } else if (*wal == "async") {
      w.policy = store::SyncPolicy::kAsync;
    } else {
      return fail("--wal expects sync | group | async, got '" + *wal + "'");
    }
    w.sync_latency = sim::milliseconds(
        static_cast<std::int64_t>(take_num(flags, "wal-sync-ms", 2)));
    w.flush_interval = sim::milliseconds(
        static_cast<std::int64_t>(take_num(flags, "wal-flush-ms", 10)));
    w.torn_tail_faults = take_num(flags, "wal-torn-tail", 0.0) != 0.0;
    p.wal = w;
  }
  if (flags.count("crash-mttc-ms") != 0) {
    sim::CrashInjector::Params c;
    c.mean_time_to_crash = sim::milliseconds(
        static_cast<std::int64_t>(take_num(flags, "crash-mttc-ms", 120000)));
    c.mean_downtime = sim::milliseconds(static_cast<std::int64_t>(
        take_num(flags, "crash-downtime-ms", 2000)));
    p.crashes = c;
  }
  if (flags.count("deadline-ms") != 0) {
    p.op_deadline = sim::milliseconds(
        static_cast<std::int64_t>(take_num(flags, "deadline-ms", 0)));
  }
  p.think_time = sim::milliseconds(
      static_cast<std::int64_t>(take_num(flags, "think-ms", 0)));
  p.world_threads =
      static_cast<std::size_t>(take_num(flags, "world-threads", 0));
  p.world_partitions =
      static_cast<std::size_t>(take_num(flags, "world-partitions", 0));
  p.seed = static_cast<std::uint64_t>(take_num(flags, "seed", 42));
  if (flags.count("object") != 0) {
    const auto o = static_cast<std::uint64_t>(take_num(flags, "object", 0));
    p.choose_object = [o](Rng&) { return ObjectId(o); };
  }
  p.staleness = take_num(flags, "staleness", 0.0) != 0.0;

  if (take_num(flags, "open-loop", 0.0) != 0.0) {
    OpenLoopParams ol;
    if (flags.count("sites") != 0) {
      p.topo.num_clients =
          static_cast<std::size_t>(take_num(flags, "sites", 3));
    }
    ol.clients_per_site =
        static_cast<std::size_t>(take_num(flags, "clients-per-site", 1000));
    ol.client_rate_hz = take_num(flags, "client-rate", 0.1);
    ol.zipf_s = take_num(flags, "zipf", 0.99);
    ol.objects = static_cast<std::size_t>(take_num(flags, "objects", 100000));
    ol.diurnal_amplitude = take_num(flags, "diurnal", 0.0);
    if (ol.diurnal_amplitude < 0.0 || ol.diurnal_amplitude >= 1.0) {
      return fail("--diurnal expects an amplitude in [0,1)");
    }
    if (auto fc = take(flags, "flash-crowd")) {
      double start = 0.0, duration = 0.0, mult = 0.0;
      if (std::sscanf(fc->c_str(), "%lf:%lf:%lf", &start, &duration,
                      &mult) != 3 ||
          start < 0.0 || duration <= 0.0 || mult <= 0.0) {
        return fail("--flash-crowd expects START:DURATION:MULTIPLIER in"
                    " seconds, got '" + *fc + "'");
      }
      FlashCrowd flash;
      flash.start = sim::milliseconds(static_cast<std::int64_t>(start * 1e3));
      flash.duration =
          sim::milliseconds(static_cast<std::int64_t>(duration * 1e3));
      flash.multiplier = mult;
      ol.flash = flash;
    }
    ol.horizon = sim::milliseconds(
        static_cast<std::int64_t>(take_num(flags, "open-seconds", 10) * 1e3));
    p.open_loop = ol;
  }

  if (p.topo.num_servers > quorum::kMaxMembers) {
    return fail("--servers must be at most " +
                std::to_string(quorum::kMaxMembers) + " (the widest quorum"
                " system), got " + std::to_string(p.topo.num_servers));
  }
  if (p.iqs.size() > p.topo.num_servers) {
    return fail("--iqs spec '" + p.iqs.describe() + "' needs " +
                std::to_string(p.iqs.size()) + " nodes but --servers=" +
                std::to_string(p.topo.num_servers));
  }
  // An OQS read quorum r pairs with write quorums of n - r + 1, and two
  // write quorums intersect only while r <= (n + 1) / 2.
  const std::size_t max_orq = (p.topo.num_servers + 1) / 2;
  if (p.oqs_read_quorum < 1 || p.oqs_read_quorum > max_orq) {
    return fail("--orq must be in [1, " + std::to_string(max_orq) +
                "] with --servers=" + std::to_string(p.topo.num_servers) +
                ", got " + std::to_string(p.oqs_read_quorum));
  }
  return p;
}

}  // namespace dq::workload
