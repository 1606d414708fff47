// Parallel route-table construction must be bit-identical to the serial
// build: staging rows fan out across the thread pool, but compression
// consumes them strictly in (s,d) order, so every array of the store — the
// dedup'd pools included — is a pure function of the route values.  These
// tests build the same tables at jobs 1, 2 and 8 and require the seven raw
// arrays to match byte for byte.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/route_builder.hpp"
#include "harness/testbed.hpp"
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

void expect_stores_byte_identical(const RouteSet& a, const RouteSet& b,
                                  const std::string& label) {
  const RouteStore& x = a.store();
  const RouteStore& y = b.store();
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

TEST(RouteStoreParallelBuild, ItbTableIdenticalAcrossJobCounts) {
  const Testbed tb(make_torus_2d(8, 8, 2));
  const RouteSet serial = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
  for (const int jobs : {2, 8}) {
    const RouteSet par = build_itb_routes(tb.topo(), tb.updown(), {}, jobs);
    expect_stores_byte_identical(serial, par,
                                 "itb jobs=" + std::to_string(jobs));
  }
}

TEST(RouteStoreParallelBuild, UpDownTableIdenticalAcrossJobCounts) {
  const Testbed tb(make_torus_2d(8, 8, 2));
  const SimpleRoutes sr(tb.topo(), tb.updown());
  const RouteSet serial = build_updown_routes(tb.topo(), sr, 1);
  for (const int jobs : {2, 8}) {
    const RouteSet par = build_updown_routes(tb.topo(), sr, jobs);
    expect_stores_byte_identical(serial, par,
                                 "updown jobs=" + std::to_string(jobs));
  }
}

TEST(RouteStoreParallelBuild, IrregularTopologyIdenticalAcrossJobCounts) {
  // CPLANT exercises the fallback paths (pairs whose minimal candidates
  // are all discarded); the express torus exercises long express links.
  for (const int variant : {0, 1}) {
    const Testbed tb(variant == 0 ? make_cplant()
                                  : make_torus_2d_express(8, 8, 2));
    const RouteSet serial = build_itb_routes(tb.topo(), tb.updown(), {}, 1);
    const RouteSet par = build_itb_routes(tb.topo(), tb.updown(), {}, 8);
    expect_stores_byte_identical(
        serial, par, variant == 0 ? "cplant jobs=8" : "express jobs=8");
  }
}

TEST(RouteStoreParallelBuild, DenseLowDiameterIdenticalAcrossJobCounts) {
  // Dense adjacency stresses the row builders differently than the paper's
  // sparse tori: many equal-length candidates per pair (alternative
  // selection order must not depend on thread schedule) and, for MIN, the
  // structured oracle shared across all workers.
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
    for (const int jobs : {2, 8}) {
      expect_stores_byte_identical(
          itb_serial, build_itb_routes(tb.topo(), tb.updown(), {}, jobs),
          c.name + " itb jobs=" + std::to_string(jobs));
      expect_stores_byte_identical(
          min_serial, build_minimal_routes(tb.topo(), jobs),
          c.name + " min jobs=" + std::to_string(jobs));
    }
  }
}

TEST(RouteStoreParallelBuild, WarmedTestbedServesTheSameTable) {
  // Testbed::warm(scheme, jobs) builds with the pool from the main thread;
  // the table it caches must be the one a cold serial build produces.
  const Testbed cold(make_torus_2d(8, 8, 2));
  const Testbed warm(make_torus_2d(8, 8, 2));
  warm.warm(RoutingScheme::kItbSp, 8);
  expect_stores_byte_identical(cold.routes(RoutingScheme::kItbSp),
                               warm.routes(RoutingScheme::kItbSp),
                               "warm vs cold");
}

}  // namespace
}  // namespace itb
