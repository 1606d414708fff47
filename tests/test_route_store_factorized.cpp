// Properties of the switch-pair factorized store: on-the-fly host-leg
// composition must agree with the reference compile_route (support/) for
// every pair — including non-default ITB host salts and
// alternative-preference orders — the factorized pools must be byte-identical for every jobs value, and a
// full-scale table (the dragonfly16 bench point under ITB_CHECKED) must
// pass the route-legality verifier, which retraces every composed walk
// against the topology.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "check/route_verify.hpp"
#include "core/route_builder.hpp"
#include "harness/testbed.hpp"
#include "route/topo_minimal.hpp"
#include "support/nested_routes.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

struct NamedTestbed {
  std::string name;
  Testbed tb;
};

/// Dense low-diameter graphs: many equal-length minimal paths, so ITB
/// tables carry real alternative lists and in-transit legs — the cases
/// where composed host choice actually matters.
std::vector<NamedTestbed> testbeds() {
  std::vector<NamedTestbed> out;
  out.push_back({"hyperx8x8", Testbed(make_hyperx({8, 8}, 2), kAutoRoot)});
  out.push_back({"dragonfly442", Testbed(make_dragonfly(4, 4, 2), kAutoRoot)});
  out.push_back({"torus8x8", Testbed(make_torus_2d(8, 8, 2))});
  return out;
}

void expect_composes_to(const std::string& name,
                        const NestedRouteTable& nested, const RouteSet& flat) {
  ASSERT_EQ(nested.num_switches(), flat.num_switches()) << name;
  const int n = nested.num_switches();
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& want = nested.alternatives(s, d);
      const AltsView got = flat.alternatives(s, d);
      ASSERT_EQ(got.size(), want.size()) << name << ": " << s << "->" << d;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(materialize_route(got[i]), want[i])
            << name << ": " << s << "->" << d << " alternative " << i;
      }
    }
  }
}

TEST(RouteStoreFactorized, ComposedViewsMatchCompiledRoutesEveryScheme) {
  for (const NamedTestbed& t : testbeds()) {
    const SimpleRoutes sr(t.tb.topo(), t.tb.updown());
    expect_composes_to(t.name + "/updown",
                       build_updown_routes_nested(t.tb.topo(), sr),
                       build_updown_routes(t.tb.topo(), sr));
    expect_composes_to(t.name + "/itb",
                       build_itb_routes_nested(t.tb.topo(), t.tb.updown()),
                       build_itb_routes(t.tb.topo(), t.tb.updown()));
    if (has_structured_minimal(t.tb.topo())) {
      expect_composes_to(t.name + "/minimal",
                         build_minimal_routes_nested(t.tb.topo()),
                         build_minimal_routes(t.tb.topo()));
    }
  }
}

TEST(RouteStoreFactorized, SampledDifferentialOnMediumTestbeds) {
  // The small beds above compare all pairs; the 256-switch bench-ladder
  // beds are compared on a deterministic LCG pair sample so the nested
  // ground-truth build stays cheap enough for the fast suite.
  std::vector<NamedTestbed> beds;
  beds.push_back({"hyperx16x16", Testbed(make_hyperx({16, 16}, 8), kAutoRoot)});
  beds.push_back({"dragonfly884", Testbed(make_dragonfly(8, 8, 4), kAutoRoot)});
  for (const NamedTestbed& t : beds) {
    const NestedRouteTable nested =
        build_itb_routes_nested(t.tb.topo(), t.tb.updown());
    const RouteSet flat = build_itb_routes(t.tb.topo(), t.tb.updown());
    const auto n = static_cast<std::uint64_t>(t.tb.topo().num_switches());
    std::uint64_t lcg = 0x2545f4914f6cdd1dULL;
    for (int i = 0; i < 4096; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto s = static_cast<SwitchId>((lcg >> 33) % n);
      const auto d = static_cast<SwitchId>((lcg >> 13) % n);
      const std::vector<Route>& want = nested.alternatives(s, d);
      const AltsView got = flat.alternatives(s, d);
      ASSERT_EQ(got.size(), want.size()) << t.name << ": " << s << "->" << d;
      for (std::size_t a = 0; a < want.size(); ++a) {
        ASSERT_EQ(materialize_route(got[a]), want[a])
            << t.name << ": " << s << "->" << d << " alternative " << a;
      }
    }
  }
}

TEST(RouteStoreFactorized, HostMixTracksSaltAndAlternativeOrder) {
  // The in-transit host is not stored — the composer re-derives it from
  // (s, d, baked alternative tag, leg index, salt).  Exercise the two
  // knobs that move it: a non-zero salt, and prefer_fewest_itbs = true,
  // whose stable sort makes alternative slot != DFS tag — the baked tag,
  // not the slot, must drive the mix.
  const Testbed tb(make_hyperx({8, 8}, 2), kAutoRoot);
  for (const bool prefer : {true, false}) {
    for (const std::uint64_t salt :
         {std::uint64_t{0}, std::uint64_t{0x5eedf00d}}) {
      ItbBuildOptions opts;
      opts.prefer_fewest_itbs = prefer;
      opts.itb_host_salt = salt;
      expect_composes_to(
          "hyperx8x8 salt=" + std::to_string(salt) +
              " prefer=" + std::to_string(prefer),
          build_itb_routes_nested(tb.topo(), tb.updown(), opts),
          build_itb_routes(tb.topo(), tb.updown(), opts));
    }
  }
}

template <typename T>
void expect_span_equal(std::span<const T> a, std::span<const T> b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(),
                         [](const T& x, const T& y) {
                           return __builtin_memcmp(&x, &y, sizeof(T)) == 0;
                         }))
      << what;
}

void expect_pools_byte_identical(const RouteStore& a, const RouteStore& b) {
  expect_span_equal(a.port_pool(), b.port_pool(), "port_pool");
  expect_span_equal(a.walks(), b.walks(), "walks");
  expect_span_equal(a.route_walks(), b.route_walks(), "route_walks");
  expect_span_equal(a.core_routes(), b.core_routes(), "core_routes");
  expect_span_equal(a.alt_routes(), b.alt_routes(), "alt_routes");
  expect_span_equal(a.altlists(), b.altlists(), "altlists");
  expect_span_equal(a.pair_altlist(), b.pair_altlist(), "pair_altlist");
  EXPECT_EQ(a.table_bytes(), b.table_bytes());
}

TEST(RouteStoreFactorized, PoolsByteIdenticalAcrossJobCounts) {
  // Global intern ids are first-appearance order over the canonical pair
  // stream — destination-major for ITB, source-major otherwise — so every
  // fan-out must reproduce the serial pools exactly, not just the same
  // route values.
  for (const NamedTestbed& t : testbeds()) {
    const RouteSet serial = build_itb_routes(t.tb.topo(), t.tb.updown(), {}, 1);
    for (const int jobs : {2, 8}) {
      const RouteSet fan = build_itb_routes(t.tb.topo(), t.tb.updown(), {}, jobs);
      SCOPED_TRACE(t.name + " itb jobs=" + std::to_string(jobs));
      expect_pools_byte_identical(serial.store(), fan.store());
    }
    if (has_structured_minimal(t.tb.topo())) {
      const RouteSet ms = build_minimal_routes(t.tb.topo(), 1);
      for (const int jobs : {2, 8}) {
        const RouteSet fan = build_minimal_routes(t.tb.topo(), jobs);
        SCOPED_TRACE(t.name + " minimal jobs=" + std::to_string(jobs));
        expect_pools_byte_identical(ms.store(), fan.store());
      }
    }
  }
}

TEST(RouteStoreFactorized, ScalePointPassesRouteVerifier) {
  // verify_route_set retraces every composed leg against the topology —
  // ports must name real cables, in-transit hosts must be attached to the
  // split switch, legs must be up*/down* legal and minimal.  Running it on
  // a bench-ladder scale point checks the factorized composition where
  // segment sharing is heaviest.  The full dragonfly16 point (2064
  // switches, 8.8M route instances) rides on the ITB_CHECKED build; the
  // fast suite uses the dragonfly8 point.
#ifdef ITB_CHECKED
  const Testbed tb(make_dragonfly(16, 8, 8), kAutoRoot);
#else
  const Testbed tb(make_dragonfly(8, 8, 4), kAutoRoot);
#endif
  const RouteSet rs = build_itb_routes(tb.topo(), tb.updown(), {}, 8);
  const RouteVerifyReport rep = verify_route_set(tb.topo(), tb.updown(), rs);
  EXPECT_TRUE(rep.ok()) << rep.violations.size() << " violations; first: "
                        << (rep.violations.empty()
                                ? std::string()
                                : rep.violations.front().detail);
  // The verifier covers every ordered pair except the trivial diagonal.
  const auto n = static_cast<std::uint64_t>(tb.topo().num_switches());
  EXPECT_EQ(rep.pairs_checked, n * (n - 1));
}

}  // namespace
}  // namespace itb
