#include "net/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "net/route_table.h"
#include "net/topology.h"
#include "trace/request.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace sds::net {
namespace {

Topology MakeTopology(uint32_t num_clients = 60, uint32_t num_servers = 2,
                      uint64_t seed = 1) {
  TopologyConfig config;
  config.regions = 4;
  config.orgs_per_region = 3;
  config.subnets_per_org = 2;
  std::vector<bool> remote(num_clients);
  for (uint32_t c = 0; c < num_clients; ++c) remote[c] = c % 3 != 0;
  Rng rng(seed);
  return Topology::Generate(config, num_clients, remote, num_servers, &rng);
}

TEST(FaultScheduleTest, IntervalsAreHalfOpen) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kNodeOutage, 7, 10.0, 20.0});
  EXPECT_FALSE(schedule.NodeDown(7, 9.999));
  EXPECT_TRUE(schedule.NodeDown(7, 10.0));
  EXPECT_TRUE(schedule.NodeDown(7, 19.999));
  EXPECT_FALSE(schedule.NodeDown(7, 20.0));
  // Other nodes and other fault kinds are unaffected.
  EXPECT_FALSE(schedule.NodeDown(8, 15.0));
  EXPECT_FALSE(schedule.LinkDown(7, 15.0));
  EXPECT_FALSE(schedule.ServerDown(7, 15.0));
}

TEST(FaultScheduleTest, KindsAreKeyedIndependently) {
  FaultSchedule schedule;
  schedule.Add({FaultKind::kLinkOutage, 3, 0.0, 5.0});
  schedule.Add({FaultKind::kServerOutage, 0, 0.0, 5.0});
  schedule.Add({FaultKind::kServerBrownout, 1, 0.0, 5.0});
  EXPECT_TRUE(schedule.LinkDown(3, 1.0));
  EXPECT_FALSE(schedule.NodeDown(3, 1.0));
  EXPECT_TRUE(schedule.ServerDown(0, 1.0));
  EXPECT_FALSE(schedule.ServerDegraded(0, 1.0));
  EXPECT_TRUE(schedule.ServerDegraded(1, 1.0));
  EXPECT_FALSE(schedule.ServerDown(1, 1.0));
  EXPECT_EQ(schedule.size(), 3u);
}

TEST(FaultScheduleTest, PathUpChecksRouteNodesAndEdges) {
  const Topology topo = MakeTopology();
  const NodeId server = topo.server_node(0);
  // Pick a remote client whose route to the server crosses several nodes.
  NodeId client = kInvalidNode;
  for (uint32_t c = 0; c < topo.num_clients(); ++c) {
    if (topo.Route(topo.client_node(c), server).size() >= 4) {
      client = topo.client_node(c);
      break;
    }
  }
  ASSERT_NE(client, kInvalidNode);
  const std::vector<NodeId> route = topo.Route(client, server);

  FaultSchedule empty;
  EXPECT_TRUE(empty.PathUp(topo, client, server, 0.0));

  // A node mid-route breaks the path while it is down.
  FaultSchedule node_fault;
  node_fault.Add({FaultKind::kNodeOutage, route[1], 0.0, 10.0});
  EXPECT_FALSE(node_fault.PathUp(topo, client, server, 5.0));
  EXPECT_TRUE(node_fault.PathUp(topo, client, server, 10.0));

  // The querying client's own attachment node is exempt.
  FaultSchedule own_node;
  own_node.Add({FaultKind::kNodeOutage, client, 0.0, 10.0});
  EXPECT_TRUE(own_node.PathUp(topo, client, server, 5.0));

  // Cutting the first edge (keyed by its deeper endpoint, the client's
  // subnet) breaks the path even though every node is up.
  FaultSchedule link_fault;
  link_fault.Add({FaultKind::kLinkOutage, client, 0.0, 10.0});
  EXPECT_FALSE(link_fault.PathUp(topo, client, server, 5.0));

  // A link elsewhere in the tree does not.
  NodeId off_route = kInvalidNode;
  for (NodeId n = 1; n < topo.num_nodes(); ++n) {
    if (!topo.OnRoute(n, client, server)) {
      off_route = n;
      break;
    }
  }
  ASSERT_NE(off_route, kInvalidNode);
  FaultSchedule other_link;
  other_link.Add({FaultKind::kLinkOutage, off_route, 0.0, 10.0});
  EXPECT_TRUE(other_link.PathUp(topo, client, server, 5.0));
}

TEST(GenerateFaultScheduleTest, ZeroRatesProduceEmptySchedule) {
  const Topology topo = MakeTopology();
  FaultInjectionConfig config;
  config.horizon_days = 30.0;
  Rng rng(42);
  const FaultSchedule schedule = GenerateFaultSchedule(topo, config, &rng);
  EXPECT_TRUE(schedule.empty());
}

TEST(GenerateFaultScheduleTest, DeterministicForEqualSeeds) {
  const Topology topo = MakeTopology();
  FaultInjectionConfig config;
  config.horizon_days = 60.0;
  config.node_failure_rate_per_day = 0.05;
  config.link_failure_rate_per_day = 0.02;
  config.server_failure_rate_per_day = 0.1;
  Rng rng_a(7);
  Rng rng_b(7);
  const FaultSchedule a = GenerateFaultSchedule(topo, config, &rng_a);
  const FaultSchedule b = GenerateFaultSchedule(topo, config, &rng_b);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_EQ(a.events()[i].end, b.events()[i].end);
  }
  Rng rng_c(8);
  const FaultSchedule c = GenerateFaultSchedule(topo, config, &rng_c);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = c.events()[i].id != a.events()[i].id ||
              c.events()[i].start != a.events()[i].start;
  }
  EXPECT_TRUE(differs);
}

TEST(GenerateFaultScheduleTest, RespectsEntityDomainsAndDurations) {
  const Topology topo = MakeTopology(60, 2);
  FaultInjectionConfig config;
  config.horizon_days = 90.0;
  config.node_failure_rate_per_day = 0.05;
  config.link_failure_rate_per_day = 0.05;
  config.server_failure_rate_per_day = 0.05;
  Rng rng(11);
  const FaultSchedule schedule = GenerateFaultSchedule(topo, config, &rng);
  ASSERT_FALSE(schedule.empty());
  const SimTime horizon = config.horizon_days * kDay;
  for (const FaultEvent& e : schedule.events()) {
    EXPECT_GE(e.start, 0.0);
    EXPECT_LT(e.start, horizon);
    EXPECT_GE(e.end - e.start, config.min_outage_days * kDay);
    switch (e.kind) {
      case FaultKind::kNodeOutage:
      case FaultKind::kLinkOutage:
        // The backbone root never fails and no id is out of range.
        EXPECT_GE(e.id, 1u);
        EXPECT_LT(e.id, topo.num_nodes());
        break;
      case FaultKind::kServerOutage:
        EXPECT_LT(e.id, topo.num_servers());
        break;
      case FaultKind::kServerBrownout:
        ADD_FAILURE() << "random generation must not emit brownouts";
        break;
    }
  }
}

TEST(AddLoadBrownoutsTest, TripsOnlyOverloadedDays) {
  trace::Trace trace;
  trace.num_clients = 1;
  trace.num_servers = 2;
  // Day 0: one tiny request on server 0 (under any sane threshold).
  // Day 1: heavy traffic on server 0. Day 1 on server 1: idle.
  trace::Request light;
  light.time = 1000.0;
  light.kind = trace::RequestKind::kDocument;
  light.server = 0;
  light.bytes = 1000;
  trace.requests.push_back(light);
  for (int i = 0; i < 200; ++i) {
    trace::Request heavy;
    heavy.time = kDay + 100.0 * i;
    heavy.kind = trace::RequestKind::kDocument;
    heavy.server = 0;
    heavy.bytes = 50'000'000;
    trace.requests.push_back(heavy);
  }
  // kScript/kNotFound records never count toward server load here.
  trace::Request script;
  script.time = 2 * kDay + 5.0;
  script.kind = trace::RequestKind::kScript;
  script.server = 0;
  script.bytes = 1'000'000'000;
  trace.requests.push_back(script);

  BrownoutConfig config;
  config.utilization_threshold = 0.05;
  // 200 x 50 MB / 1.5 MB/s ~ 6667 s busy ~ 0.077 utilization > 0.05.
  FaultSchedule schedule;
  trace::VectorCursor cursor(&trace);
  const uint32_t tripped =
      AddLoadBrownouts(CountDailyLoad(&cursor, 0), config, &schedule);
  EXPECT_EQ(tripped, 1u);
  EXPECT_FALSE(schedule.ServerDegraded(0, 1000.0));
  EXPECT_TRUE(schedule.ServerDegraded(0, kDay + 1.0));
  EXPECT_TRUE(schedule.ServerDegraded(0, 2 * kDay - 1.0));
  EXPECT_FALSE(schedule.ServerDegraded(0, 2 * kDay + 10.0));
  // Brownout does not mean down, and other servers are unaffected.
  EXPECT_FALSE(schedule.ServerDown(0, kDay + 1.0));
  FaultSchedule other;
  cursor.Rewind();
  EXPECT_EQ(AddLoadBrownouts(CountDailyLoad(&cursor, 1), config, &other), 0u);
  EXPECT_TRUE(other.empty());
}

TEST(FaultScheduleTest, CoversMatchesBruteForceOnMessyIntervals) {
  // Overlapping, nested, duplicated, adjacent and exactly-touching
  // intervals: the merged binary-search answer must equal a linear scan of
  // the raw event list at every probe, in particular on the boundaries.
  FaultSchedule schedule;
  const std::pair<SimTime, SimTime> raw[] = {
      {10.0, 20.0}, {15.0, 25.0},  // overlap
      {25.0, 30.0},                // touches [10, 25) exactly at 25
      {40.0, 50.0}, {50.0, 60.0},  // adjacent halves
      {40.0, 50.0},                // duplicate
      {41.0, 43.0},                // nested
      {5.0, 12.0},                 // overlaps the merged front
      {70.0, 70.0},                // empty interval covers nothing
  };
  for (const auto& [start, end] : raw) {
    schedule.Add({FaultKind::kNodeOutage, 3, start, end});
  }
  // The event log keeps every Add verbatim.
  ASSERT_EQ(schedule.size(), std::size(raw));

  std::vector<SimTime> probes;
  for (double t = 0.0; t <= 75.0; t += 0.5) probes.push_back(t);
  for (const FaultEvent& e : schedule.events()) {
    probes.push_back(e.start);
    probes.push_back(e.end);
    probes.push_back(e.start - 1e-9);
    probes.push_back(e.end - 1e-9);
  }
  for (const SimTime t : probes) {
    bool brute = false;
    for (const FaultEvent& e : schedule.events()) {
      brute = brute || (e.start <= t && t < e.end);
    }
    EXPECT_EQ(schedule.NodeDown(3, t), brute) << "t=" << t;
  }
}

TEST(GenerateFaultScheduleTest, ZoneFailureTakesDownWholeSubtree) {
  const Topology topo = MakeTopology();
  FaultInjectionConfig config;
  config.horizon_days = 20.0;
  config.node_failure_rate_per_day = 0.05;
  config.zone_failure_probability = 1.0;
  Rng rng(13);
  const FaultSchedule schedule = GenerateFaultSchedule(topo, config, &rng);
  ASSERT_FALSE(schedule.empty());
  // Every drawn node outage is a zone failure: all strict descendants of
  // the node share the exact interval. Replicated descendant events are
  // themselves node outages whose own subtrees were replicated too, so the
  // check holds for every event in the log.
  bool saw_interior = false;
  for (const FaultEvent& e : schedule.events()) {
    ASSERT_EQ(e.kind, FaultKind::kNodeOutage);
    const SimTime mid = 0.5 * (e.start + e.end);
    for (NodeId other = 1; other < topo.num_nodes(); ++other) {
      bool descendant = false;
      for (NodeId up = topo.parent(other); ; up = topo.parent(up)) {
        if (up == e.id) {
          descendant = true;
          break;
        }
        if (up == topo.root()) break;
      }
      if (descendant) {
        saw_interior = true;
        EXPECT_TRUE(schedule.NodeDown(other, mid))
            << "descendant " << other << " of " << e.id << " not down";
      }
    }
  }
  EXPECT_TRUE(saw_interior);  // at least one non-leaf outage fired

  // Same seed, same config: the zone draws are part of the deterministic
  // stream.
  Rng rng_b(13);
  const FaultSchedule b = GenerateFaultSchedule(topo, config, &rng_b);
  ASSERT_EQ(b.size(), schedule.size());
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b.events()[i].id, schedule.events()[i].id);
    EXPECT_EQ(b.events()[i].start, schedule.events()[i].start);
  }
}

TEST(FaultScheduleTest, PathUpEqualsRouteConjunctionOnRandomSchedules) {
  // Property (random topologies and schedules): PathUp(from, to, t) is
  // exactly the conjunction of !NodeDown / !LinkDown over the explicit
  // route, with nodes checked excluding `from` and each edge keyed by its
  // deeper endpoint — evaluated here over RouteTable's precomputed routes.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology topo = MakeTopology(40 + 7 * seed, 2, seed);
    const NodeId server = topo.server_node(0);
    const RouteTable routes(topo, server);

    FaultInjectionConfig config;
    config.horizon_days = 15.0;
    config.node_failure_rate_per_day = 0.10;
    config.link_failure_rate_per_day = 0.08;
    config.zone_failure_probability = seed % 2 == 0 ? 0.5 : 0.0;
    Rng rng(seed * 1000 + 17);
    const FaultSchedule schedule = GenerateFaultSchedule(topo, config, &rng);

    Rng probe_rng(seed);
    for (int probe = 0; probe < 200; ++probe) {
      const NodeId from = 1 + static_cast<NodeId>(probe_rng.NextDouble() *
                                                  (topo.num_nodes() - 1));
      const SimTime t = probe_rng.NextDouble() * config.horizon_days * kDay;
      // RouteTable stores server -> from; PathUp walks from -> server.
      // The conjunction is direction-independent.
      const std::vector<NodeId>& route = routes.route(from);
      bool expected = true;
      for (size_t i = 0; i + 1 < route.size(); ++i) {
        const NodeId a = route[i];
        const NodeId b = route[i + 1];
        if (a != from && schedule.NodeDown(a, t)) expected = false;
        if (b != from && schedule.NodeDown(b, t)) expected = false;
        const NodeId child = topo.depth(b) > topo.depth(a) ? b : a;
        if (schedule.LinkDown(child, t)) expected = false;
      }
      EXPECT_EQ(schedule.PathUp(topo, from, server, t), expected)
          << "seed=" << seed << " from=" << from << " t=" << t;
    }
  }
}

TEST(FaultScheduleTest, PathUpEqualsRouteConjunctionOnAllNodePairs) {
  // Property over every (from, to) node pair, not only client -> server:
  // proxies sit on interior nodes, so targets include the root, ancestors
  // and descendants of `from`, and `from` itself. PathUp must equal the
  // conjunction of !NodeDown over Route(from, to) minus `from` and of
  // !LinkDown over each route edge keyed by its deeper endpoint.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng shape_rng(seed * 31 + 5);
    TopologyConfig topo_config;
    topo_config.regions = 2 + static_cast<uint32_t>(shape_rng.NextBounded(4));
    topo_config.orgs_per_region =
        1 + static_cast<uint32_t>(shape_rng.NextBounded(4));
    topo_config.subnets_per_org =
        1 + static_cast<uint32_t>(shape_rng.NextBounded(3));
    const uint32_t num_clients = 30 + 5 * static_cast<uint32_t>(seed);
    std::vector<bool> remote(num_clients);
    for (uint32_t c = 0; c < num_clients; ++c) remote[c] = c % 4 != 0;
    const Topology topo =
        Topology::Generate(topo_config, num_clients, remote, 1, &shape_rng);

    FaultInjectionConfig config;
    config.horizon_days = 12.0;
    config.node_failure_rate_per_day = 0.12;
    config.link_failure_rate_per_day = 0.10;
    config.zone_failure_probability = seed % 2 == 0 ? 0.5 : 0.0;
    Rng rng(seed * 7919 + 3);
    const FaultSchedule schedule = GenerateFaultSchedule(topo, config, &rng);
    ASSERT_FALSE(schedule.empty()) << "seed=" << seed;

    // Probe at random times and exactly at event boundaries, where the
    // half-open intervals switch.
    std::vector<SimTime> times;
    Rng probe_rng(seed);
    for (int i = 0; i < 6; ++i) {
      times.push_back(probe_rng.NextDouble() * config.horizon_days * kDay);
    }
    for (size_t i = 0; i < schedule.size(); i += 1 + schedule.size() / 4) {
      times.push_back(schedule.events()[i].start);
      times.push_back(schedule.events()[i].end);
    }

    size_t up = 0;
    size_t down = 0;
    for (NodeId from = 0; from < topo.num_nodes(); ++from) {
      for (NodeId to = 0; to < topo.num_nodes(); ++to) {
        const std::vector<NodeId> route = topo.Route(from, to);
        for (const SimTime t : times) {
          bool expected = true;
          for (size_t i = 1; i < route.size(); ++i) {
            if (schedule.NodeDown(route[i], t)) expected = false;
            const NodeId child =
                topo.depth(route[i]) > topo.depth(route[i - 1]) ? route[i]
                                                                : route[i - 1];
            if (schedule.LinkDown(child, t)) expected = false;
          }
          const bool got = schedule.PathUp(topo, from, to, t);
          ASSERT_EQ(got, expected) << "seed=" << seed << " from=" << from
                                   << " to=" << to << " t=" << t;
          ++(got ? up : down);
        }
      }
    }
    // The schedule is dense enough that both answers occur.
    EXPECT_GT(up, 0u) << "seed=" << seed;
    EXPECT_GT(down, 0u) << "seed=" << seed;
  }
}

TEST(FaultScheduleTest, WindowIsTheCoveringIntervalOrTheGap) {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  FaultSchedule schedule;
  schedule.Add({FaultKind::kNodeOutage, 7, 10.0, 20.0});
  schedule.Add({FaultKind::kNodeOutage, 7, 30.0, 40.0});
  schedule.Add({FaultKind::kNodeOutage, 7, 40.0, 45.0});  // coalesces
  const struct {
    SimTime t;
    bool down;
    SimTime lo;
    SimTime hi;
  } cases[] = {
      {5.0, false, -kInf, 10.0}, {10.0, true, 10.0, 20.0},
      {19.5, true, 10.0, 20.0},  {20.0, false, 20.0, 30.0},
      {40.0, true, 30.0, 45.0},  {45.0, false, 45.0, kInf},
  };
  for (const auto& c : cases) {
    Window window;
    EXPECT_EQ(schedule.NodeDown(7, c.t, &window), c.down) << "t=" << c.t;
    EXPECT_EQ(window.lo, c.lo) << "t=" << c.t;
    EXPECT_EQ(window.hi, c.hi) << "t=" << c.t;
  }
  // An entity with no outages leaves the window as it was; a second query
  // narrows it to the intersection.
  Window window;
  EXPECT_FALSE(schedule.NodeDown(8, 25.0, &window));
  EXPECT_EQ(window.lo, -kInf);
  EXPECT_EQ(window.hi, kInf);
  EXPECT_FALSE(schedule.NodeDown(7, 25.0, &window));
  EXPECT_FALSE(schedule.ServerDown(0, 25.0, &window));
  EXPECT_EQ(window.lo, 20.0);
  EXPECT_EQ(window.hi, 30.0);
}

TEST(FaultScheduleTest, WindowedAnswersHoldAcrossTheirWindowOnRandomSchedules) {
  // Property (random topologies and schedules): every windowed query
  // returns a window [lo, hi) around t, and the boolean query gives the
  // same answer at lo, at the midpoint and at the last double below hi.
  // Unbounded ends are probed far outside the schedule's horizon instead.
  // Probe times include every interval start and end, where answers flip.
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const Topology topo = MakeTopology(40 + 7 * seed, 3, seed);
    FaultInjectionConfig config;
    config.horizon_days = 10.0;
    config.node_failure_rate_per_day = 0.15;
    config.link_failure_rate_per_day = 0.12;
    config.server_failure_rate_per_day = 0.3;
    config.zone_failure_probability = seed % 2 == 0 ? 0.5 : 0.0;
    Rng rng(seed * 4099 + 11);
    const FaultSchedule schedule = GenerateFaultSchedule(topo, config, &rng);
    ASSERT_FALSE(schedule.empty()) << "seed=" << seed;
    const SimTime horizon = config.horizon_days * kDay;

    std::vector<SimTime> times;
    Rng probe_rng(seed);
    for (int i = 0; i < 20; ++i) {
      times.push_back(probe_rng.NextDouble() * horizon);
    }
    for (const FaultEvent& e : schedule.events()) {
      times.push_back(e.start);
      times.push_back(e.end);
    }

    // Checks one windowed answer against the boolean form `query`.
    const auto check = [&](const char* what, SimTime t, bool got,
                           const Window& w, const auto& query) {
      ASSERT_LE(w.lo, t) << what << " seed=" << seed << " t=" << t;
      ASSERT_LT(t, w.hi) << what << " seed=" << seed << " t=" << t;
      const SimTime lo = std::isfinite(w.lo) ? w.lo : -horizon;
      const SimTime last =
          std::isfinite(w.hi)
              ? std::nextafter(w.hi, -std::numeric_limits<SimTime>::infinity())
              : 2.0 * horizon;
      for (const SimTime at : {lo, lo + 0.5 * (last - lo), last}) {
        ASSERT_EQ(query(at), got) << what << " seed=" << seed << " t=" << t
                                  << " window=[" << w.lo << ", " << w.hi
                                  << ") at=" << at;
      }
    };

    size_t flips = 0;
    for (const SimTime t : times) {
      const NodeId from = 1 + static_cast<NodeId>(probe_rng.NextBounded(
                                  topo.num_nodes() - 1));
      const NodeId to =
          probe_rng.NextBounded(2) == 0
              ? topo.server_node(0)
              : static_cast<NodeId>(probe_rng.NextBounded(topo.num_nodes()));
      const trace::ServerId server =
          static_cast<trace::ServerId>(probe_rng.NextBounded(3));

      Window path;
      const bool up = schedule.PathUp(topo, from, to, t, &path);
      check("PathUp", t, up, path,
            [&](SimTime at) { return schedule.PathUp(topo, from, to, at); });
      Window node;
      const bool node_down = schedule.NodeDown(to, t, &node);
      check("NodeDown", t, node_down, node,
            [&](SimTime at) { return schedule.NodeDown(to, at); });
      Window link;
      const bool link_down = schedule.LinkDown(from, t, &link);
      check("LinkDown", t, link_down, link,
            [&](SimTime at) { return schedule.LinkDown(from, at); });
      Window srv;
      const bool server_down = schedule.ServerDown(server, t, &srv);
      check("ServerDown", t, server_down, srv,
            [&](SimTime at) { return schedule.ServerDown(server, at); });
      flips += !up + node_down + link_down + server_down;
    }
    // The schedule is dense enough that down answers occur.
    EXPECT_GT(flips, 0u) << "seed=" << seed;
  }
}

TEST(RetryPolicyTest, ValidateAcceptsDefaultsAndCatchesEachField) {
  EXPECT_TRUE(RetryPolicy{}.Validate().ok());

  RetryPolicy p;
  p.max_attempts = 0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);

  p = RetryPolicy{};
  p.jitter = 1.5;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  p.jitter = -0.1;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
  p.jitter = 1.0;
  EXPECT_TRUE(p.Validate().ok());

  p = RetryPolicy{};
  p.timeout_s = -1.0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);

  p = RetryPolicy{};
  p.base_backoff_s = -1.0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);

  p = RetryPolicy{};
  p.max_backoff_s = -1.0;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);

  p = RetryPolicy{};
  p.backoff_multiplier = 0.5;
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);

  // NaN never validates.
  p = RetryPolicy{};
  p.jitter = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(p.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(LoadTrackerTest, TripsAtThresholdAndCountsBrownouts) {
  LoadTrackerConfig config;
  config.service_overhead_s = 10.0;
  config.service_rate_bytes_per_s = 1e12;  // bytes negligible
  config.window_s = 100.0;
  config.utilization_threshold = 0.5;
  config.admission_threshold = 0.3;
  config.brownout_duration_s = 50.0;
  LoadTracker tracker(2, config);

  // Four requests: 40 busy seconds, utilization 0.4 — under pressure but
  // not overloaded.
  for (int i = 0; i < 4; ++i) tracker.RecordService(0, 10.0 + i, 0.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(0, 20.0), 0.4);
  EXPECT_FALSE(tracker.Overloaded(0, 20.0));
  EXPECT_TRUE(tracker.UnderPressure(0, 20.0));
  EXPECT_EQ(tracker.emergent_brownouts(), 0u);

  // Two more pushes past the 0.5 threshold: exactly one transition.
  tracker.RecordOverhead(0, 20.0);
  tracker.RecordOverhead(0, 21.0);
  EXPECT_TRUE(tracker.Overloaded(0, 22.0));
  EXPECT_EQ(tracker.emergent_brownouts(), 1u);
  // More load while browned out does not re-count the transition.
  tracker.RecordOverhead(0, 25.0);
  EXPECT_EQ(tracker.emergent_brownouts(), 1u);

  // The brownout expires after its duration (21 + 50).
  EXPECT_TRUE(tracker.Overloaded(0, 70.0));
  EXPECT_FALSE(tracker.Overloaded(0, 71.5));

  // The other entity is independent, and a fresh window starts clean.
  EXPECT_FALSE(tracker.UnderPressure(1, 20.0));
  EXPECT_DOUBLE_EQ(tracker.Utilization(0, 500.0), 0.0);
  tracker.RecordService(0, 500.0, 0.0);
  EXPECT_DOUBLE_EQ(tracker.Utilization(0, 500.0), 0.1);
  EXPECT_FALSE(tracker.UnderPressure(0, 500.0));
}

TEST(LoadTrackerTest, BytesCountTowardUtilization) {
  LoadTrackerConfig config;
  config.service_overhead_s = 0.0;
  config.service_rate_bytes_per_s = 100.0;
  config.window_s = 100.0;
  LoadTracker tracker(1, config);
  tracker.RecordService(0, 0.0, 2000.0);  // 20 busy seconds
  EXPECT_DOUBLE_EQ(tracker.Utilization(0, 1.0), 0.2);
}

TEST(LoadTrackerTest, OutOfOrderChargesNeverRollBackwards) {
  LoadTrackerConfig config;
  config.service_overhead_s = 1.0;
  config.window_s = 100.0;
  LoadTracker tracker(1, config);
  tracker.RecordOverhead(0, 250.0);  // window [200, 300)
  tracker.RecordOverhead(0, 150.0);  // late charge lands in the window
  EXPECT_DOUBLE_EQ(tracker.Utilization(0, 250.0), 0.02);
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndProbes) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.cooldown_s = 30.0;
  CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordFailure(1.0);
  breaker.RecordFailure(2.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // A success resets the consecutive count.
  breaker.RecordSuccess();
  breaker.RecordFailure(3.0);
  breaker.RecordFailure(4.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(5.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 1u);

  // Open: fail fast until the cooldown elapses.
  EXPECT_FALSE(breaker.AllowRequest(10.0));
  EXPECT_FALSE(breaker.AllowRequest(34.999));
  // Cooldown over: one half-open probe is admitted.
  EXPECT_TRUE(breaker.AllowRequest(35.0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Probe fails: straight back to open, counted as a transition.
  breaker.RecordFailure(35.5);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 2u);
  EXPECT_FALSE(breaker.AllowRequest(36.0));

  // Next probe succeeds: closed again, and it takes the full threshold of
  // fresh failures to re-open.
  EXPECT_TRUE(breaker.AllowRequest(35.5 + 30.0));
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(70.0);
  breaker.RecordFailure(71.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(72.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 3u);
}

TEST(RetryBudgetTest, CapsRetryRatioWithFloor) {
  RetryBudgetConfig config;
  config.window_s = 100.0;
  config.max_retry_ratio = 0.5;
  config.min_retries_per_window = 2;
  RetryBudget budget(config);

  // No requests yet: the floor still admits two retries.
  EXPECT_TRUE(budget.TryRetry(0.0));
  EXPECT_TRUE(budget.TryRetry(1.0));
  EXPECT_FALSE(budget.TryRetry(2.0));
  EXPECT_EQ(budget.suppressed(), 1u);

  // Requests earn budget: 8 requests -> 4 retries allowed; 2 are already
  // spent this window.
  for (int i = 0; i < 8; ++i) budget.RecordRequest(10.0 + i);
  EXPECT_TRUE(budget.TryRetry(20.0));
  EXPECT_TRUE(budget.TryRetry(21.0));
  EXPECT_FALSE(budget.TryRetry(22.0));
  EXPECT_EQ(budget.suppressed(), 2u);

  // A new window resets both counters.
  EXPECT_TRUE(budget.TryRetry(150.0));
  EXPECT_TRUE(budget.TryRetry(151.0));
  EXPECT_FALSE(budget.TryRetry(152.0));
  EXPECT_EQ(budget.suppressed(), 3u);
}

}  // namespace
}  // namespace sds::net
