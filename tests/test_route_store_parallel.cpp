// Parallel route-table construction must be bit-identical to the serial
// build: staging rows fan out across the thread pool, but compression
// consumes them strictly in (s,d) order, so every array of the store — the
// dedup'd pools included — is a pure function of the route values.  These
// tests build the same tables at jobs 1, 2, 3 and 8 and require the seven
// raw arrays to match byte for byte.  A build fans out to at most
// usable_cpus() workers, so on a host that lets this process use a single
// CPU every jobs value builds serially; the jobs sweeps skip there instead
// of passing without a parallel build, and their labels name the worker
// count each jobs value really ran.
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/route_builder.hpp"
#include "harness/testbed.hpp"
#include "sim/pool.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

template <typename T>
::testing::AssertionResult spans_byte_identical(std::span<const T> a,
                                                std::span<const T> b,
                                                const char* what) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << what << ": size " << a.size() << " vs " << b.size();
  }
  if (!a.empty() &&
      std::memcmp(a.data(), b.data(), a.size_bytes()) != 0) {
    return ::testing::AssertionFailure() << what << ": bytes differ";
  }
  return ::testing::AssertionSuccess();
}

void expect_stores_byte_identical(const RouteStore& x, const RouteStore& y,
                                  const std::string& label) {
  EXPECT_TRUE(spans_byte_identical(x.port_pool(), y.port_pool(),
                                   "port_pool")) << label;
  EXPECT_TRUE(spans_byte_identical(x.walks(), y.walks(), "walks")) << label;
  EXPECT_TRUE(spans_byte_identical(x.route_walks(), y.route_walks(),
                                   "route_walks")) << label;
  EXPECT_TRUE(spans_byte_identical(x.core_routes(), y.core_routes(),
                                   "core_routes")) << label;
  EXPECT_TRUE(spans_byte_identical(x.alt_routes(), y.alt_routes(),
                                   "alt_routes")) << label;
  EXPECT_TRUE(spans_byte_identical(x.altlists(), y.altlists(),
                                   "altlists")) << label;
  EXPECT_TRUE(spans_byte_identical(x.pair_altlist(), y.pair_altlist(),
                                   "pair_altlist")) << label;
  EXPECT_EQ(x.table_bytes(), y.table_bytes()) << label;
  EXPECT_EQ(x.segments_shared(), y.segments_shared()) << label;
}

void expect_stores_byte_identical(const RouteSet& a, const RouteSet& b,
                                  const std::string& label) {
  expect_stores_byte_identical(a.store(), b.store(), label);
}

constexpr const char* kSerialOnly =
    "one usable CPU: every jobs value builds serially";

/// "<what> jobs=J workers=W" for a build over `rows` rows.
std::string jobs_label(const std::string& what, int rows, int jobs) {
  return what + " jobs=" + std::to_string(jobs) +
         " workers=" + std::to_string(route_build_workers(rows, jobs));
}

/// Re-stages a built ITB store the way build_itb_routes streams it:
/// destination-major, one block per destination, every pair's
/// alternatives interned walk by walk.
std::vector<FactorizedBlock> restage_destination_major(const RouteStore& st) {
  const auto n = static_cast<std::size_t>(st.num_switches());
  std::vector<FactorizedBlock> blocks;
  FactorizedBlockStager stager;
  std::vector<std::uint32_t> walk_ids;
  std::vector<std::uint32_t> route_ids;
  for (std::size_t d = 0; d < n; ++d) {
    blocks.emplace_back();
    stager.begin_block(&blocks.back());
    for (std::size_t s = 0; s < n; ++s) {
      const AltListRec a = st.altlists()[st.pair_altlist()[s * n + d]];
      route_ids.clear();
      for (std::uint32_t slot = a.first; slot < a.first + a.count; ++slot) {
        const RouteRec rr = st.core_routes()[st.alt_routes()[slot]];
        walk_ids.clear();
        for (std::uint32_t li = 0; li < rr.leg_count; ++li) {
          const WalkRec w = st.walks()[st.route_walks()[rr.first_walk + li]];
          walk_ids.push_back(stager.stage_walk(
              st.port_pool().data() + w.port_off, w.port_count));
        }
        route_ids.push_back(
            stager.stage_route(walk_ids.data(), walk_ids.size(), rr.alt_tag));
      }
      stager.commit_pair(route_ids.data(), route_ids.size());
    }
  }
  return blocks;
}

TEST(RouteStoreParallelBuild, ItbTableIdenticalAcrossJobCounts) {
  if (usable_cpus() < 2) GTEST_SKIP() << kSerialOnly;
  const Testbed tb(make_torus_2d(8, 8, 2));
  const RouteSet serial = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
  for (const int jobs : {2, 3, 8}) {
    const RouteSet par = build_itb_routes(tb.topo(), tb.updown(), {}, jobs);
    expect_stores_byte_identical(
        serial, par, jobs_label("itb", tb.topo().num_switches(), jobs));
  }
}

TEST(RouteStoreParallelBuild, UpDownTableIdenticalAcrossJobCounts) {
  if (usable_cpus() < 2) GTEST_SKIP() << kSerialOnly;
  const Testbed tb(make_torus_2d(8, 8, 2));
  const SimpleRoutes sr(tb.topo(), tb.updown());
  const RouteSet serial = build_updown_routes(tb.topo(), sr, 1);
  for (const int jobs : {2, 8}) {
    const RouteSet par = build_updown_routes(tb.topo(), sr, jobs);
    expect_stores_byte_identical(
        serial, par, jobs_label("updown", tb.topo().num_switches(), jobs));
  }
}

TEST(RouteStoreParallelBuild, IrregularTopologyIdenticalAcrossJobCounts) {
  // CPLANT exercises the fallback paths (pairs whose minimal candidates
  // are all discarded); the express torus exercises long express links.
  if (usable_cpus() < 2) GTEST_SKIP() << kSerialOnly;
  for (const int variant : {0, 1}) {
    const Testbed tb(variant == 0 ? make_cplant()
                                  : make_torus_2d_express(8, 8, 2));
    const RouteSet serial = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
    const RouteSet par = build_itb_routes(tb.topo(), tb.updown(), {}, 8);
    expect_stores_byte_identical(
        serial, par,
        jobs_label(variant == 0 ? "cplant" : "express",
                   tb.topo().num_switches(), 8));
  }
}

TEST(RouteStoreParallelBuild, DenseLowDiameterIdenticalAcrossJobCounts) {
  // Dense adjacency stresses the row builders differently than the paper's
  // sparse tori: many equal-length candidates per pair (alternative
  // selection order must not depend on thread schedule) and, for MIN, the
  // structured oracle shared across all workers.
  if (usable_cpus() < 2) GTEST_SKIP() << kSerialOnly;
  struct Case {
    std::string name;
    Topology topo;
  };
  std::vector<Case> cases;
  cases.push_back({"hyperx", make_hyperx({4, 4}, 2)});
  cases.push_back({"dragonfly", make_dragonfly(4, 2, 2)});
  cases.push_back({"fullmesh", make_full_mesh(16, 2)});
  for (const Case& c : cases) {
    const Testbed tb(Topology(c.topo), kAutoRoot);
    const RouteSet itb_serial = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
    const RouteSet min_serial = build_minimal_routes(tb.topo(), 1);
    const int rows = tb.topo().num_switches();
    for (const int jobs : {2, 8}) {
      expect_stores_byte_identical(
          itb_serial, build_itb_routes(tb.topo(), tb.updown(), {}, jobs),
          jobs_label(c.name + " itb", rows, jobs));
      expect_stores_byte_identical(
          min_serial, build_minimal_routes(tb.topo(), jobs),
          jobs_label(c.name + " min", rows, jobs));
    }
  }
}

TEST(RouteStoreParallelBuild, WarmedTestbedServesTheSameTable) {
  // Testbed::warm(scheme, jobs) builds with the pool from the main thread;
  // the table it caches must be the one a cold serial build produces.
  if (usable_cpus() < 2) GTEST_SKIP() << kSerialOnly;
  const Testbed cold(make_torus_2d(8, 8, 2));
  const Testbed warm(make_torus_2d(8, 8, 2));
  warm.warm(RoutingScheme::kItbSp, 8);
  expect_stores_byte_identical(cold.routes(RoutingScheme::kItbSp),
                               warm.routes(RoutingScheme::kItbSp),
                               "warm vs cold");
}

TEST(RouteStoreParallelBuild, ShortDestinationMajorStreamIsRejected) {
  const Testbed tb(make_torus_2d(4, 4, 2));
  const RouteSet full = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
  const std::vector<FactorizedBlock> rows =
      restage_destination_major(full.store());
  FactorizedStoreBuilder b(tb.topo(), 0);
  b.set_pair_transposed(true);
  for (std::size_t i = 0; i + 1 < rows.size(); ++i) b.append_block(rows[i]);
  try {
    (void)b.finish();
    FAIL() << "a stream missing its last destination row was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("pair stream incomplete"),
              std::string::npos)
        << e.what();
  }
  // Completing the stream, then overrunning it, is rejected too.
  b.append_block(rows.back());
  EXPECT_THROW(b.append_block(rows.back()), std::logic_error);
}

TEST(RouteStoreParallelBuild, WorkerCountIsClamped) {
  const int cpus = usable_cpus();
  ASSERT_GE(cpus, 1);
  EXPECT_EQ(route_build_workers(2064, 1), 1);
  EXPECT_EQ(route_build_workers(2064, 2), std::min(2, cpus));
  EXPECT_EQ(route_build_workers(3, 64), std::min(3, cpus));
  EXPECT_EQ(route_build_workers(100000, 1000), std::min(1000, cpus));
  EXPECT_EQ(route_build_workers(0, 0), 1);
}

TEST(RouteStoreParallelBuild, WorkerCapFollowsTheAffinityMask) {
  // Pinning narrows the CPUs a build may use below hardware_concurrency();
  // the cap must follow the mask.  The pin is set on a scratch thread, so
  // the test process keeps its own mask.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  int pinned_cpus = 0;
  int pinned_workers = 0;
  std::thread([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) return;
    pinned_cpus = usable_cpus();
    pinned_workers = route_build_workers(64, 8);
  }).join();
  EXPECT_EQ(pinned_cpus, 1);
  EXPECT_EQ(pinned_workers, 1);
}

}  // namespace
}  // namespace itb
