// Round-trip tests for the shared --flag vocabulary (workload/flags.h):
// parse_flag_map tokenizing, params_from_flags consuming exactly the keys it
// understands, the open-loop flag family, and the removal of the deprecated
// --grid alias (--iqs=grid:RxC is the only spelling).
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/flags.h"

namespace dq::workload {
namespace {

std::map<std::string, std::string> parse(std::vector<std::string> args,
                                         std::string* error = nullptr) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("test"));
  for (auto& a : args) argv.push_back(a.data());
  std::string local;
  auto out = parse_flag_map(static_cast<int>(argv.size()), argv.data(),
                            error != nullptr ? error : &local);
  return out;
}

TEST(Flags, ParseFlagMapSplitsNamesAndValues) {
  const auto m = parse({"--writes=0.2", "--staleness", "--seed=7"});
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at("writes"), "0.2");
  EXPECT_EQ(m.at("staleness"), "1");  // bare flag parses as "1"
  EXPECT_EQ(m.at("seed"), "7");
}

TEST(Flags, ParseFlagMapRejectsNonFlags) {
  std::string error;
  const auto m = parse({"writes=0.2"}, &error);
  EXPECT_TRUE(m.empty());
  EXPECT_NE(error.find("unrecognized argument"), std::string::npos);
}

TEST(Flags, RoundTripConsumesEveryKnownKey) {
  auto flags = parse({"--protocol=majority", "--writes=0.25",
                      "--locality=0.8", "--servers=7", "--clients=4",
                      "--requests=50", "--iqs=grid:2x3", "--seed=11",
                      "--jitter=0.1", "--loss=0.05", "--think-ms=20",
                      "--world-threads=2"});
  std::string error;
  const auto p = params_from_flags(flags, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_TRUE(flags.empty()) << "leftover key: " << flags.begin()->first;
  EXPECT_EQ(p->protocol, "majority");
  EXPECT_DOUBLE_EQ(p->write_ratio, 0.25);
  EXPECT_DOUBLE_EQ(p->locality, 0.8);
  EXPECT_EQ(p->topo.num_servers, 7u);
  EXPECT_EQ(p->topo.num_clients, 4u);
  EXPECT_EQ(p->requests_per_client, 50u);
  EXPECT_EQ(p->iqs.describe(), "grid:2x3");
  EXPECT_EQ(p->seed, 11u);
  EXPECT_DOUBLE_EQ(p->topo.jitter, 0.1);
  EXPECT_DOUBLE_EQ(p->loss, 0.05);
  EXPECT_EQ(p->think_time, sim::milliseconds(20));
  EXPECT_EQ(p->world_threads, 2u);
  EXPECT_FALSE(p->open_loop.has_value());
}

TEST(Flags, GridAliasIsGone) {
  // --grid was a deprecated alias for --iqs=grid:RxC; it is no longer a
  // known key, so params_from_flags leaves it in the map for the caller's
  // unknown-flag rejection.
  auto flags = parse({"--grid=3x3"});
  std::string error;
  const auto p = params_from_flags(flags, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_EQ(p->iqs.describe(), QuorumSpec::majority(5).describe());
  EXPECT_EQ(flags.count("grid"), 1u);
  for (const auto& h : experiment_flag_help()) {
    EXPECT_STRNE(h.name, "grid");
  }
}

TEST(Flags, OpenLoopFamilyParses) {
  auto flags = parse({"--open-loop", "--sites=5", "--clients-per-site=2000",
                      "--client-rate=0.5", "--zipf=1.1", "--objects=50000",
                      "--diurnal=0.3", "--flash-crowd=4:2:10",
                      "--open-seconds=6"});
  std::string error;
  const auto p = params_from_flags(flags, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_TRUE(flags.empty());
  ASSERT_TRUE(p->open_loop.has_value());
  const OpenLoopParams& ol = *p->open_loop;
  EXPECT_EQ(p->topo.num_clients, 5u);
  EXPECT_EQ(ol.clients_per_site, 2000u);
  EXPECT_DOUBLE_EQ(ol.client_rate_hz, 0.5);
  EXPECT_DOUBLE_EQ(ol.zipf_s, 1.1);
  EXPECT_EQ(ol.objects, 50000u);
  EXPECT_DOUBLE_EQ(ol.diurnal_amplitude, 0.3);
  ASSERT_TRUE(ol.flash.has_value());
  EXPECT_EQ(ol.flash->start, sim::seconds(4));
  EXPECT_EQ(ol.flash->duration, sim::seconds(2));
  EXPECT_DOUBLE_EQ(ol.flash->multiplier, 10.0);
  EXPECT_EQ(ol.horizon, sim::seconds(6));
  EXPECT_DOUBLE_EQ(ol.site_rate_hz(), 1000.0);
}

TEST(Flags, OpenLoopSubFlagsAreLeftoverWithoutOptIn) {
  auto flags = parse({"--clients-per-site=2000", "--zipf=1.1"});
  std::string error;
  const auto p = params_from_flags(flags, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_FALSE(p->open_loop.has_value());
  EXPECT_EQ(flags.count("clients-per-site"), 1u);
  EXPECT_EQ(flags.count("zipf"), 1u);
}

TEST(Flags, MalformedFlashCrowdFails) {
  auto flags = parse({"--open-loop", "--flash-crowd=nope"});
  std::string error;
  EXPECT_FALSE(params_from_flags(flags, &error).has_value());
  EXPECT_NE(error.find("flash-crowd"), std::string::npos);
}

TEST(Flags, ServersWiderThanAQuorumSystemFail) {
  auto flags = parse({"--servers=257"});
  std::string error;
  EXPECT_FALSE(params_from_flags(flags, &error).has_value());
  EXPECT_NE(error.find("--servers must be at most 256"), std::string::npos)
      << error;
  flags = parse({"--servers=256"});
  EXPECT_TRUE(params_from_flags(flags, &error).has_value()) << error;
}

TEST(Flags, OqsReadQuorumOutsideItsRangeFails) {
  // With n servers, OQS write quorums (n - r + 1) pairwise intersect only
  // while r <= (n + 1) / 2.
  for (const std::size_t n : {9u, 16u}) {
    const std::size_t max_orq = (n + 1) / 2;
    const std::string servers = "--servers=" + std::to_string(n);
    for (const std::size_t r : {std::size_t{0}, max_orq + 1, n + 1}) {
      auto flags = parse({servers, "--orq=" + std::to_string(r)});
      std::string error;
      EXPECT_FALSE(params_from_flags(flags, &error).has_value())
          << "n=" << n << " orq=" << r;
      EXPECT_NE(error.find("--orq must be in [1, " + std::to_string(max_orq) +
                           "]"),
                std::string::npos)
          << error;
    }
    auto flags = parse({servers, "--orq=" + std::to_string(max_orq)});
    std::string error;
    const auto p = params_from_flags(flags, &error);
    ASSERT_TRUE(p.has_value()) << error;
    EXPECT_EQ(p->oqs_read_quorum, max_orq);
  }
}

TEST(Flags, OpenLoopAcceptsInjection) {
  // Fault injection runs on every partition plan, open loop included.
  auto flags = parse({"--open-loop", "--node-unavail=0.01"});
  std::string error;
  const auto p = params_from_flags(flags, &error);
  ASSERT_TRUE(p.has_value()) << error;
  EXPECT_TRUE(p->open_loop.has_value());
  EXPECT_TRUE(p->failures.has_value());
}

}  // namespace
}  // namespace dq::workload
