// Golden engine determinism: committed delivery-stream fixtures and the
// uncoalesced event-for-event reference.
//
// Events fire by (time, seq), equal timestamps FIFO in push order, so a
// run is a pure function of its inputs.  The stream fixtures below pin
// three scenarios — a mid-load point (UP/DOWN and ITB-RR), the same ITB-RR
// point without coalescing, and a congested bit-reversal point that
// exercises ITB ejection/re-injection and stop&go — as a digest of the full
// delivery stream (plus spills, peak buffer occupancy and end time) and an
// executed-event count.  They were recorded while the original
// std::function engine was still asserted to produce the identical
// streams, and, uncoalesced, the identical event counts.
//
// Delivery tail-burst coalescing only elides events that nothing observes:
// with coalesce_chunk_flow off every chunk arrival is its own event, and
// that run is the reference the coalesced schedule is compared against.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/json.hpp"
#include "harness/runner.hpp"
#include "harness/testbed.hpp"
#include "metrics/collector.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "topo/generators.hpp"
#include "traffic/generator.hpp"
#include "traffic/patterns.hpp"

namespace itb {
namespace {

bool operator==(const DeliveryRecord& a, const DeliveryRecord& b) {
  return a.src == b.src && a.dst == b.dst &&
         a.payload_flits == b.payload_flits && a.gen_time == b.gen_time &&
         a.inject_time == b.inject_time && a.deliver_time == b.deliver_time &&
         a.itbs_used == b.itbs_used && a.alt_index == b.alt_index &&
         a.total_switch_hops == b.total_switch_hops && a.spilled == b.spilled;
}

struct EngineRun {
  std::vector<DeliveryRecord> deliveries;
  std::uint64_t events = 0;
  std::uint64_t events_coalesced = 0;
  std::uint64_t fc_violations = 0;
  std::uint64_t spills = 0;
  int max_occupancy = 0;
  TimePs end_time = 0;
};

/// One 300 us point on the 4x4 torus (2 hosts/switch), driven directly so
/// the full delivery stream can be captured, not just aggregate metrics.
EngineRun run_stream(const Testbed& tb, RoutingScheme scheme,
                     const DestinationPattern& pat, double load,
                     std::uint64_t traffic_seed, bool coalesce) {
  Simulator sim;
  MyrinetParams params;
  params.coalesce_chunk_flow = coalesce;
  Network net(sim, tb.topo(), tb.routes(scheme), params, policy_of(scheme),
              42 ^ 0x9e37u);
  EngineRun out;
  net.set_delivery_callback(
      [&out](const DeliveryRecord& r) { out.deliveries.push_back(r); });

  TrafficConfig tcfg;
  tcfg.load_flits_per_ns_per_switch = load;
  tcfg.payload_bytes = 512;
  tcfg.seed = traffic_seed;
  TrafficGenerator gen(sim, net, pat, tcfg);
  gen.start();
  sim.run_until(us(300));
  gen.stop();

  out.events = sim.events_executed();
  out.events_coalesced = net.chunk_events_coalesced();
  out.fc_violations = net.flow_control_violations();
  out.spills = net.itb_spills();
  out.max_occupancy = net.max_buffer_occupancy();
  out.end_time = sim.now();
  return out;
}

/// The mid-load point: uniform traffic at 0.02 flits/ns/switch.
EngineRun run_midload(const Testbed& tb, RoutingScheme scheme, bool coalesce) {
  UniformPattern pat(tb.topo().num_hosts());
  return run_stream(tb, scheme, pat, 0.02, 42, coalesce);
}

std::uint64_t fnv_mix(std::uint64_t h, std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    h ^= (u >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a over every field of every delivery, then spills, peak buffer
/// occupancy and end time.
std::uint64_t stream_digest(const EngineRun& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const DeliveryRecord& d : r.deliveries) {
    h = fnv_mix(h, d.src);
    h = fnv_mix(h, d.dst);
    h = fnv_mix(h, d.payload_flits);
    h = fnv_mix(h, d.gen_time);
    h = fnv_mix(h, d.inject_time);
    h = fnv_mix(h, d.deliver_time);
    h = fnv_mix(h, d.itbs_used);
    h = fnv_mix(h, d.alt_index);
    h = fnv_mix(h, d.total_switch_hops);
    h = fnv_mix(h, d.spilled ? 1 : 0);
  }
  h = fnv_mix(h, static_cast<std::int64_t>(r.spills));
  h = fnv_mix(h, r.max_occupancy);
  h = fnv_mix(h, r.end_time);
  return h;
}

struct StreamFixture {
  std::uint64_t digest;
  std::size_t deliveries;
  std::uint64_t events;
};

constexpr StreamFixture kMidLoadUpDown{0x2a30d0d148db8f6bull, 184, 85526};
constexpr StreamFixture kMidLoadItbRr{0xdbb37ec6efab1057ull, 184, 99156};
constexpr StreamFixture kCoalescingOffItbRr{0xdbb37ec6efab1057ull, 184,
                                            110748};
constexpr StreamFixture kHighLoadItbRr{0xb110144c204c7676ull, 551, 294021};

void expect_fixture(const EngineRun& r, const StreamFixture& want) {
  EXPECT_EQ(r.fc_violations, 0u);
  EXPECT_EQ(r.deliveries.size(), want.deliveries);
  EXPECT_EQ(stream_digest(r), want.digest)
      << "delivery stream changed; got digest 0x" << std::hex
      << stream_digest(r);
  EXPECT_EQ(r.events, want.events);
}

void expect_same_stream(const EngineRun& ref, const EngineRun& run) {
  EXPECT_EQ(ref.spills, run.spills);
  EXPECT_EQ(ref.max_occupancy, run.max_occupancy);
  EXPECT_EQ(ref.end_time, run.end_time);
  ASSERT_EQ(ref.deliveries.size(), run.deliveries.size());
  for (std::size_t i = 0; i < ref.deliveries.size(); ++i) {
    ASSERT_TRUE(ref.deliveries[i] == run.deliveries[i])
        << "delivery stream diverges at record " << i;
  }
}

TEST(EngineGolden, MidLoadDeliveryStreamIdentical) {
  Testbed tb(make_torus_2d(4, 4, 2));
  for (const auto& [scheme, fixture] :
       {std::pair{RoutingScheme::kUpDown, kMidLoadUpDown},
        std::pair{RoutingScheme::kItbRr, kMidLoadItbRr}}) {
    SCOPED_TRACE(to_string(scheme));
    const EngineRun pod = run_midload(tb, scheme, true);
    const EngineRun ref = run_midload(tb, scheme, false);
    expect_fixture(pod, fixture);
    expect_same_stream(ref, pod);
    // Coalescing really elides events, and only events: every elided chunk
    // arrival is accounted, so the reference count is bracketed by the
    // coalesced count and the coalesced count plus elisions (arrivals
    // pending at the deadline make the upper bound an inequality).
    EXPECT_GT(pod.events_coalesced, 0u);
    EXPECT_LT(pod.events, ref.events);
    EXPECT_LE(ref.events, pod.events + pod.events_coalesced);
  }
}

TEST(EngineGolden, CoalescingOffMatchesEventForEvent) {
  Testbed tb(make_torus_2d(4, 4, 2));
  const EngineRun ref = run_midload(tb, RoutingScheme::kItbRr, false);
  EXPECT_EQ(ref.events_coalesced, 0u);
  expect_fixture(ref, kCoalescingOffItbRr);
}

TEST(EngineGolden, HighLoadWithItbsStillIdentical) {
  // Push into congestion so ITB ejection/re-injection, stop&go flow control
  // and output arbitration all fire; bit-reversal stresses the up/down
  // detour paths that create in-transit hops.
  Testbed tb(make_torus_2d(4, 4, 2));
  BitReversalPattern pat(tb.topo().num_hosts());
  const EngineRun pod =
      run_stream(tb, RoutingScheme::kItbRr, pat, 0.08, 7, true);
  expect_fixture(pod, kHighLoadItbRr);
  std::uint64_t itb_hops = 0;
  for (const DeliveryRecord& r : pod.deliveries) {
    itb_hops += static_cast<std::uint64_t>(r.itbs_used);
  }
  EXPECT_GT(itb_hops, 0u) << "point should exercise the ITB mechanism";
}

/// RunResult comparison across engines and coalescing modes: every
/// simulated metric must match; executed-event counts and queue peaks
/// legitimately differ (that is the point of coalescing), wall-clock always
/// differs.
void expect_same_metrics(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.avg_latency_gen_ns, b.avg_latency_gen_ns);
  EXPECT_EQ(a.p50_latency_ns, b.p50_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.latency_ci95_ns, b.latency_ci95_ns);
  EXPECT_EQ(a.avg_itbs, b.avg_itbs);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.spills, b.spills);
  EXPECT_EQ(a.fc_violations, 0u);
  EXPECT_EQ(b.fc_violations, 0u);
  EXPECT_EQ(a.max_buffer_occupancy, b.max_buffer_occupancy);
  EXPECT_EQ(a.saturated, b.saturated);
  ASSERT_EQ(a.link_util.size(), b.link_util.size());
  for (std::size_t i = 0; i < a.link_util.size(); ++i) {
    EXPECT_EQ(a.link_util[i].utilization, b.link_util[i].utilization);
    EXPECT_EQ(a.link_util[i].stopped_fraction,
              b.link_util[i].stopped_fraction);
  }
}

// ---------------------------------------------------------------------------
// Golden fixtures: committed canonical-JSON snapshots of one small cell from
// each experiment family (fig. 7 uniform, fig. 10 bit-reversal, fig. 12
// local traffic).  Any engine change that alters a simulated quantity —
// a latency, a delivery count, an event total — shows up as a fixture diff
// that must be reviewed and regenerated deliberately:
//
//   ITB_UPDATE_GOLDEN=1 ctest -R GoldenFixture
//
// The config pins everything build-dependent: checked=false explicitly
// (not the ITB_CHECKED-dependent default — watchdog sampling adds events),
// so every build produces the identical canonical string.

RunResult run_golden_cell(const Testbed& tb, const DestinationPattern& pat,
                          RoutingScheme scheme) {
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.payload_bytes = 512;
  cfg.warmup = us(50);
  cfg.measure = us(150);
  cfg.seed = 42;
  cfg.checked = false;
  return run_point(tb, scheme, pat, cfg);
}

void compare_or_update_golden(const char* name, const RunResult& r) {
  const std::string path = std::string(ITB_GOLDEN_DIR) + "/" + name;
  const std::string got = run_result_to_canonical_json(r) + "\n";
  if (std::getenv("ITB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path
                         << " missing; regenerate with ITB_UPDATE_GOLDEN=1";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "simulated results changed; if intended, regenerate " << name
      << " with ITB_UPDATE_GOLDEN=1 and review the diff";
}

TEST(GoldenFixture, Fig7UniformCell) {
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult r = run_golden_cell(tb, pat, RoutingScheme::kItbSp);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("fig7_cell.json", r);
}

TEST(GoldenFixture, Fig10BitReversalCell) {
  Testbed tb(make_torus_2d(4, 4, 2));
  BitReversalPattern pat(tb.topo().num_hosts());
  const RunResult r = run_golden_cell(tb, pat, RoutingScheme::kItbRr);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("fig10_cell.json", r);
}

TEST(GoldenFixture, Fig12LocalCell) {
  Testbed tb(make_torus_2d(4, 4, 2));
  LocalPattern pat(tb.topo(), 3);
  const RunResult r = run_golden_cell(tb, pat, RoutingScheme::kUpDown);
  ASSERT_GT(r.delivered, 0u);
  ASSERT_EQ(r.invariant_violations, 0u);
  compare_or_update_golden("fig12_cell.json", r);
}

TEST(GoldenFixture, CanonicalJsonIsDeterministicAcrossRepeats) {
  // The fixture representation itself must be bit-stable: same config, two
  // fresh runs, identical canonical strings (wall-clock fields excluded).
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  const RunResult a = run_golden_cell(tb, pat, RoutingScheme::kItbSp);
  const RunResult b = run_golden_cell(tb, pat, RoutingScheme::kItbSp);
  EXPECT_EQ(run_result_to_canonical_json(a), run_result_to_canonical_json(b));
  EXPECT_TRUE(same_simulated_metrics(a, b));
}

TEST(EngineGolden, RunPointMatchesAcrossEngines) {
  // The uncoalesced serial run is the reference; the coalesced serial run
  // and the two-lane sharded run must simulate the identical point.
  Testbed tb(make_torus_2d(4, 4, 2));
  UniformPattern pat(tb.topo().num_hosts());
  RunConfig cfg;
  cfg.load_flits_per_ns_per_switch = 0.02;
  cfg.warmup = us(50);
  cfg.measure = us(150);
  cfg.collect_link_util = true;
  cfg.params.coalesce_chunk_flow = false;
  const RunResult ref = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  cfg.params.coalesce_chunk_flow = true;
  const RunResult pod = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  cfg.engine = EngineKind::kPodParallel;
  cfg.shards = 2;
  const RunResult sharded = run_point(tb, RoutingScheme::kItbRr, pat, cfg);
  expect_same_metrics(ref, pod);
  expect_same_metrics(ref, sharded);
  EXPECT_EQ(ref.events_coalesced, 0u);
  EXPECT_GT(pod.events_coalesced, 0u);
  EXPECT_LE(pod.peak_event_queue_len, ref.peak_event_queue_len);
  EXPECT_EQ(sharded.shards, 2u);
  EXPECT_EQ(sharded.events, pod.events);
}

}  // namespace
}  // namespace itb
