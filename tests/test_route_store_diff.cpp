// Differential verification of the factorized route store: the runtime
// builders must produce, pair for pair and alternative for alternative,
// exactly the Routes the nested reference builders (support/) compile — on
// the paper testbeds and the low-diameter beds, for every table.  A second
// suite checks the dedup machinery from the raw arrays: every interned
// segment must reconstruct the original port sequences byte for byte, and
// the store must actually be smaller than the nested table.  A third
// checks pack_routes, the path every hand-built test table takes into the
// store.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/route_builder.hpp"
#include "harness/testbed.hpp"
#include "support/pack_routes.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

struct NamedTestbed {
  std::string name;
  Testbed tb;
};

std::vector<NamedTestbed> paper_testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"torus", Testbed(make_torus_2d(8, 8, 2))});
  out.push_back({"express", Testbed(make_torus_2d_express(8, 8, 2))});
  out.push_back({"cplant", Testbed(make_cplant())});
  return out;
}

/// Dense low-diameter graphs (PR 8): short routes, huge alternative
/// fan-out, heavy segment sharing — the opposite corner of the store's
/// input space from the sparse tori above.
std::vector<NamedTestbed> lowdiameter_testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"hyperx4x4", Testbed(make_hyperx({4, 4}, 2), kAutoRoot)});
  out.push_back(
      {"dragonfly422", Testbed(make_dragonfly(4, 2, 2), kAutoRoot)});
  out.push_back({"fullmesh16", Testbed(make_full_mesh(16, 2), kAutoRoot)});
  return out;
}

std::vector<NamedTestbed> all_testbeds() {
  std::vector<NamedTestbed> out = paper_testbeds();
  for (NamedTestbed& t : lowdiameter_testbeds()) {
    out.push_back(std::move(t));
  }
  return out;
}

/// Every (s,d) pair of `flat` materializes to exactly `nested`'s
/// alternatives, same order, same content (Route has defaulted ==).
void expect_tables_identical(const std::string& name,
                             const NestedRouteTable& nested,
                             const RouteSet& flat) {
  ASSERT_EQ(nested.num_switches(), flat.num_switches()) << name;
  const int n = nested.num_switches();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& want = nested.alternatives(s, d);
      const AltsView got = flat.alternatives(s, d);
      ASSERT_EQ(got.size(), want.size())
          << name << ": pair " << s << "->" << d;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(materialize_route(got[i]), want[i])
            << name << ": pair " << s << "->" << d << " alternative " << i;
      }
    }
  }
}

TEST(RouteStoreDifferential, UpDownFlatMatchesNestedOnEveryTestbed) {
  for (const NamedTestbed& t : all_testbeds()) {
    const SimpleRoutes sr(t.tb.topo(), t.tb.updown());
    const NestedRouteTable nested = build_updown_routes_nested(t.tb.topo(), sr);
    const RouteSet flat = build_updown_routes(t.tb.topo(), sr);
    expect_tables_identical(t.name, nested, flat);
  }
}

TEST(RouteStoreDifferential, ItbFlatMatchesNestedOnEveryTestbed) {
  for (const NamedTestbed& t : all_testbeds()) {
    const NestedRouteTable nested =
        build_itb_routes_nested(t.tb.topo(), t.tb.updown());
    const RouteSet flat = build_itb_routes(t.tb.topo(), t.tb.updown());
    expect_tables_identical(t.name, nested, flat);
  }
}

TEST(RouteStoreDifferential, MinimalFlatMatchesNestedOnLowDiameter) {
  for (const NamedTestbed& t : lowdiameter_testbeds()) {
    const NestedRouteTable nested = build_minimal_routes_nested(t.tb.topo());
    const RouteSet flat = build_minimal_routes(t.tb.topo());
    EXPECT_EQ(flat.algorithm(), RoutingAlgorithm::kMinimal) << t.name;
    expect_tables_identical(t.name, nested, flat);
  }
}

TEST(RouteStoreDedup, DenseGraphSharesSegmentsAndRoundTrips) {
  // On a full mesh every route is one hop, so the walk pool should intern
  // aggressively; packing the materialized table must be loss-free and
  // land on the same distinct shapes.
  const Testbed tb(make_full_mesh(16, 2), kAutoRoot);
  const RouteSet& flat = tb.routes(RoutingScheme::kItbSp);
  EXPECT_GT(flat.segments_shared(), 0u);
  const NestedRouteTable nested = materialize_nested(flat);
  const RouteSet again = pack_routes(tb.topo(), nested);
  const RouteStore& a = flat.store();
  const RouteStore& b = again.store();
  EXPECT_EQ(a.num_routes(), b.num_routes());
  EXPECT_EQ(a.distinct_walks(), b.distinct_walks());
  EXPECT_EQ(a.distinct_routes(), b.distinct_routes());
  EXPECT_EQ(a.distinct_altlists(), b.distinct_altlists());
  EXPECT_EQ(a.core_bytes(), b.core_bytes());
  expect_tables_identical("fullmesh roundtrip", nested, again);
}

/// Raw bytes of a span of trivially copyable records.
template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

TEST(RouteStoreDifferential, MaterializeNestedRoundTrips) {
  // pack(materialize(x)) must carry x's route values, and packing is
  // idempotent: a second round trip reproduces every array byte for byte.
  const Testbed tb(make_torus_2d(8, 8, 2));
  const RouteSet& flat = tb.routes(RoutingScheme::kItbSp);
  const RouteSet once = pack_routes(tb.topo(), materialize_nested(flat));
  const RouteSet twice = pack_routes(tb.topo(), materialize_nested(once));
  const RouteStore& a = once.store();
  const RouteStore& b = twice.store();
  EXPECT_TRUE(same_bytes(a.port_pool(), b.port_pool()));
  EXPECT_TRUE(same_bytes(a.walks(), b.walks()));
  EXPECT_TRUE(same_bytes(a.route_walks(), b.route_walks()));
  EXPECT_TRUE(same_bytes(a.core_routes(), b.core_routes()));
  EXPECT_TRUE(same_bytes(a.alt_routes(), b.alt_routes()));
  EXPECT_TRUE(same_bytes(a.altlists(), b.altlists()));
  EXPECT_TRUE(same_bytes(a.pair_altlist(), b.pair_altlist()));
  EXPECT_EQ(a.num_routes(), b.num_routes());
  EXPECT_EQ(a.num_pairs(), b.num_pairs());
  EXPECT_EQ(a.table_bytes(), b.table_bytes());
  expect_tables_identical("torus roundtrip", materialize_nested(once), flat);
}

TEST(RouteStorePack, RejectsRoutesTheStoreCannotHold) {
  // pack_routes must refuse a fixture the store would silently turn into a
  // different route: one filed under the wrong pair, or one whose
  // in-transit host is not the host the store derives for its slot.
  const Testbed tb(itb_fixture());
  const NestedRouteTable base = materialize_nested(tb.routes(RoutingScheme::kItbSp));
  EXPECT_NO_THROW((void)pack_routes(tb.topo(), base));
  auto rejects = [&](const NestedRouteTable& t, const std::string& what) {
    try {
      (void)pack_routes(tb.topo(), t);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find(what) != std::string::npos;
    }
    return false;
  };

  NestedRouteTable misfiled = base;
  misfiled.mutable_alternatives(3, 1)[0] = base.alternatives(3, 2)[0];
  EXPECT_TRUE(rejects(misfiled,
                      "pair 3->1 alt 0: endpoints disagree with the table slot"));

  // Pair 3 -> 2 is split at switch 4 (hosts 8 and 9): eject into the
  // other host.
  NestedRouteTable rehosted = base;
  RouteLeg& leg0 = rehosted.mutable_alternatives(3, 2)[0].legs[0];
  ASSERT_NE(leg0.end_host, kNoHost);
  leg0.end_host = leg0.end_host == 8 ? 9 : 8;
  leg0.ports.back() = tb.topo().host(leg0.end_host).port;
  EXPECT_TRUE(rejects(rehosted, "pair 3->2 alt 0: the store composes"));
}

// --- dedup property: interned segments reconstruct exactly ---------------

TEST(RouteStoreDedup, SharedSegmentsReconstructByteIdentical) {
  // Build the same table twice: once nested (ground truth sequences), once
  // factorized (interned).  Walk the raw factorized arrays — not the view
  // layer — pair_altlist -> altlists -> alt_routes -> core_routes ->
  // route_walks -> walks -> port_pool, and check every leg's pool slice
  // against the staged vectors.  This catches offset bookkeeping bugs the
  // view-level differential could mask if compose() had a compensating
  // bug.
  const Testbed tb(make_torus_2d(8, 8, 2));
  const NestedRouteTable nested =
      build_itb_routes_nested(tb.topo(), tb.updown());
  const RouteSet flat = build_itb_routes(tb.topo(), tb.updown());
  const RouteStore& store = flat.store();

  // Dedup must actually fire on a regular topology: many pairs share
  // dimension-ordered sub-walks.
  EXPECT_GT(flat.segments_shared(), 0u);
  EXPECT_LT(store.distinct_routes(), store.num_routes());

  const std::span<const PortId> ports = store.port_pool();
  const std::span<const WalkRec> walks = store.walks();
  const std::span<const std::uint32_t> route_walks = store.route_walks();
  const std::span<const RouteRec> core_routes = store.core_routes();
  const std::span<const std::uint32_t> alt_routes = store.alt_routes();
  const std::span<const AltListRec> altlists = store.altlists();
  const std::span<const std::uint32_t> pair_altlist = store.pair_altlist();

  const int n = nested.num_switches();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::size_t key = static_cast<std::size_t>(s) *
                                  static_cast<std::size_t>(n) +
                              static_cast<std::size_t>(d);
      const AltListRec& al = altlists[pair_altlist[key]];
      const std::vector<Route>& want = nested.alternatives(s, d);
      ASSERT_EQ(al.count, want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        const RouteRec& rr = core_routes[alt_routes[al.first + i]];
        const Route& w = want[i];
        ASSERT_EQ(rr.leg_count, w.legs.size());
        // Default build options keep DFS order, so the baked alternative
        // tag is the slot index.
        EXPECT_EQ(rr.alt_tag, i);
        for (std::size_t li = 0; li < w.legs.size(); ++li) {
          const WalkRec& wk = walks[route_walks[rr.first_walk + li]];
          const RouteLeg& wl = w.legs[li];
          // Interned walks hold switch output ports only; intermediate
          // legs of the nested Route carry one extra trailing eject port.
          const bool final_leg = li + 1 == w.legs.size();
          ASSERT_EQ(wk.port_count, wl.ports.size() - (final_leg ? 0 : 1));
          ASSERT_EQ(wk.port_count, static_cast<std::size_t>(wl.switch_hops));
          for (std::size_t p = 0; p < wk.port_count; ++p) {
            ASSERT_EQ(ports[wk.port_off + p], wl.ports[p])
                << s << "->" << d << " alt " << i << " leg " << li;
          }
        }
      }
    }
  }
}

TEST(RouteStoreDedup, CompressedTableAtLeastHalvesNestedFootprint) {
  // Acceptance bar: on a 512-host testbed (16x16 torus,
  // 2 hosts/switch) the flat store must cut table memory by at least 2x
  // versus the nested representation it replaced.
  const Testbed tb(make_torus_2d(16, 16, 2));
  const RouteSet& flat = tb.routes(RoutingScheme::kItbSp);
  const std::uint64_t nested_bytes =
      nested_table_bytes(materialize_nested(flat));
  EXPECT_GT(flat.table_bytes(), 0u);
  EXPECT_LE(flat.table_bytes() * 2, nested_bytes)
      << "flat=" << flat.table_bytes() << " nested=" << nested_bytes;
}

}  // namespace
}  // namespace itb
