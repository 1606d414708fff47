// The in-transit buffer NIC pipeline: exact re-injection timing, reception
// overlap, pool accounting, host-memory spill, and injection priority.
#include <gtest/gtest.h>

#include <vector>

#include "core/route_builder.hpp"
#include "net/network.hpp"
#include "route/simple_routes.hpp"
#include "sim/simulator.hpp"
#include "support/pack_routes.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

constexpr TimePs F = 6250;
constexpr TimePs W = 49200;
constexpr TimePs R = 150000;
constexpr TimePs D = 275000 + 200000;  // detect + DMA program

// Fixture: support/pack_routes.hpp itb_fixture(), pair (3 -> 2) needs
// exactly one in-transit buffer, at switch 4.

struct Capture {
  std::vector<DeliveryRecord> records;
  void attach(Network& net) {
    net.set_delivery_callback(
        [this](const DeliveryRecord& r) { records.push_back(r); });
  }
};

// Host ids in the fixture: switch s owns hosts {2s, 2s+1}.
constexpr HostId kSrc = 6;   // switch 3
constexpr HostId kDst = 4;   // switch 2

TEST(ItbFixture, RouteHasExactlyOneItbAtSwitch4) {
  Topology t = itb_fixture();
  UpDown ud(t, 0);
  EXPECT_EQ(ud.level(4), 2);
  EXPECT_EQ(ud.up_end(t.peer(3, t.switch_ports_of(3)[1]).cable), 3);
  const RouteSet rs = build_itb_routes(t, ud);
  const auto& alts = rs.alternatives(3, 2);
  ASSERT_EQ(alts.size(), 1u);
  EXPECT_EQ(alts[0].num_itbs(), 1);
  EXPECT_EQ(alts[0].total_switch_hops, 2);
  ASSERT_EQ(alts[0].legs.size(), 2u);
  const HostId itb_host = alts[0].legs[0].end_host;
  EXPECT_EQ(t.host(itb_host).sw, 4);
}

TEST(ItbTiming, OneItbZeroLoadExact) {
  MyrinetParams p;
  p.chunk_flits = 1;
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  Capture cap;
  cap.attach(net);
  net.inject(kSrc, kDst, 512);
  sim.run_until(ms(2));
  ASSERT_EQ(cap.records.size(), 1u);
  const auto& rec = cap.records[0];
  EXPECT_EQ(rec.itbs_used, 1);
  // Leg 0 crosses 1 cable (3->4) then ejects; leg 1 crosses 1 cable
  // (4->2) and delivers:
  //   header at ITB NIC:  (k0+2)(F+W) + (k0+1)R      with k0 = 1
  //   ready to re-inject: + D
  //   delivery:           + (k1+2)(F+W) + (k1+1)R + P*F   with k1 = 1
  const TimePs want = 3 * (F + W) + 2 * R + D + 3 * (F + W) + 2 * R + 512 * F;
  EXPECT_EQ(rec.deliver_time - rec.inject_time, want);
  EXPECT_FALSE(rec.spilled);
  EXPECT_EQ(net.itb_spills(), 0u);
}

TEST(ItbTiming, ReinjectionOverlapsReception) {
  // Total latency must be far below store-and-forward at the ITB host
  // (which would add a full P*F = 3.2 us): the re-injection starts D after
  // the header arrives, not after the tail.
  MyrinetParams p;
  p.chunk_flits = 1;
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  Capture cap;
  cap.attach(net);
  net.inject(kSrc, kDst, 512);
  sim.run_until(ms(2));
  ASSERT_EQ(cap.records.size(), 1u);
  const TimePs lat = cap.records[0].deliver_time - cap.records[0].inject_time;
  // Store-and-forward bound: both legs full streams = 2 * P*F + overheads.
  EXPECT_LT(lat, 2 * 512 * F);
  // And the ITB overhead vs a hypothetical straight minimal path is about
  // D + one extra (F+W) pair + R (NIC hop), well under 1 us.
  const TimePs straight = 4 * (F + W) + 3 * R + 512 * F;
  EXPECT_LT(lat - straight, us(1));
}

TEST(ItbPool, ReservationsAccountedAndReleased) {
  MyrinetParams p;
  p.chunk_flits = 8;
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  Capture cap;
  cap.attach(net);
  for (int i = 0; i < 10; ++i) net.inject(kSrc, kDst, 512);
  sim.run_until(ms(5));
  EXPECT_EQ(cap.records.size(), 10u);
  EXPECT_EQ(net.itb_spills(), 0u);
  EXPECT_EQ(net.packets_in_flight(), 0u);
  for (const auto& r : cap.records) EXPECT_EQ(r.itbs_used, 1);
}

TEST(ItbPool, ExhaustionSpillsToHostMemoryWithPenalty) {
  MyrinetParams p;
  p.chunk_flits = 1;
  p.itb_pool_bytes = 100;  // smaller than one packet -> every visit spills
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  Capture cap;
  cap.attach(net);
  net.inject(kSrc, kDst, 512);
  sim.run_until(ms(5));
  ASSERT_EQ(cap.records.size(), 1u);
  EXPECT_TRUE(cap.records[0].spilled);
  EXPECT_EQ(net.itb_spills(), 1u);
  const TimePs base = 3 * (F + W) + 2 * R + D + 3 * (F + W) + 2 * R + 512 * F;
  EXPECT_EQ(cap.records[0].deliver_time - cap.records[0].inject_time,
            base + p.host_memory_penalty);
}

TEST(ItbPool, LargePacketsEventuallySpillUnderBackToBackLoad) {
  // 90 KB pool with 1 KB packets: sustained pressure may reserve up to
  // ~90 entries; a short burst must NOT spill.
  MyrinetParams p;
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  for (int i = 0; i < 50; ++i) net.inject(kSrc, kDst, 1024);
  sim.run_until(ms(10));
  EXPECT_EQ(net.itb_spills(), 0u)
      << "re-injection keeps pace with ejection; pool never exhausts";
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST(ItbPriority, InTransitBeatsLocalInjection) {
  // The ITB host (on switch 4) also generates its own traffic.  With
  // priority enabled the in-transit packet's latency stays near zero-load;
  // with priority disabled it queues behind local packets.
  auto run = [](bool priority) {
    MyrinetParams p;
    p.chunk_flits = 8;
    p.itb_priority_over_injection = priority;
    Topology topo = itb_fixture();
    UpDown ud(topo, 0);
    RouteSet routes = build_itb_routes(topo, ud);
    Simulator sim;
    Network net(sim, topo, routes, p, PathPolicy::kSingle);
    Capture cap;
    cap.attach(net);
    RouteSet* routes_keepalive = &routes;
    (void)routes_keepalive;
    // Find the ITB host for (3, 2).
    const HostId itb_host = routes.alternatives(3, 2)[0].legs[0].end_host;
    const HostId other_dst = 0;  // host on switch 0
    // The ITB host floods its own link.
    for (int i = 0; i < 20; ++i) net.inject(itb_host, other_dst, 512);
    net.inject(kSrc, kDst, 512);
    sim.run_until(ms(20));
    TimePs itb_latency = -1;
    for (const auto& r : cap.records) {
      if (r.src == kSrc) itb_latency = r.deliver_time - r.inject_time;
    }
    return itb_latency;
  };
  const TimePs with_priority = run(true);
  const TimePs without_priority = run(false);
  ASSERT_GT(with_priority, 0);
  ASSERT_GT(without_priority, 0);
  // Without priority the in-transit packet waits behind ~19 local packets
  // (one may already be streaming when it becomes ready).
  EXPECT_GT(without_priority, with_priority + 10 * 516 * F);
}

TEST(ItbChain, TwoItbsAccumulateOverhead) {
  // Chain two fixture-like violations: build a ladder where the minimal
  // path needs two splits.
  //
  //      0
  //     / \ .
  //    1   2
  //    |   |
  //    3   4     and cables 3-4, plus 5 hanging under 3, cable 5-... :
  // Simpler: reuse enumerate on a 8x8 torus and find a pair whose best
  // alternative uses 2 ITBs, then check itbs_used matches num_itbs.
  MyrinetParams p;
  Topology topo = make_torus_2d(8, 8, 2);
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  SwitchId s_found = kNoSwitch, d_found = kNoSwitch;
  for (SwitchId s = 0; s < 64 && s_found == kNoSwitch; ++s) {
    for (SwitchId d = 0; d < 64; ++d) {
      if (s == d) continue;
      if (routes.alternatives(s, d)[0].num_itbs() == 2) {
        s_found = s;
        d_found = d;
        break;
      }
    }
  }
  ASSERT_NE(s_found, kNoSwitch) << "torus must have 2-ITB first alternatives";
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  Capture cap;
  cap.attach(net);
  net.inject(topo.hosts_of_switch(s_found)[0], topo.hosts_of_switch(d_found)[0],
             512);
  sim.run_until(ms(5));
  ASSERT_EQ(cap.records.size(), 1u);
  EXPECT_EQ(cap.records[0].itbs_used, 2);
  EXPECT_EQ(net.packets_in_flight(), 0u);
}

TEST(ItbMetrics, DeliveryRecordCarriesRouteFacts) {
  MyrinetParams p;
  Topology topo = itb_fixture();
  UpDown ud(topo, 0);
  RouteSet routes = build_itb_routes(topo, ud);
  Simulator sim;
  Network net(sim, topo, routes, p, PathPolicy::kSingle);
  Capture cap;
  cap.attach(net);
  net.inject(kSrc, kDst, 256);
  sim.run_until(ms(2));
  ASSERT_EQ(cap.records.size(), 1u);
  EXPECT_EQ(cap.records[0].src, kSrc);
  EXPECT_EQ(cap.records[0].dst, kDst);
  EXPECT_EQ(cap.records[0].payload_flits, 256);
  EXPECT_EQ(cap.records[0].total_switch_hops, 2);
  EXPECT_EQ(cap.records[0].alt_index, 0);
}

}  // namespace
}  // namespace itb
