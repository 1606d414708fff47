#include "support/pack_routes.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace itb {

namespace {

[[noreturn]] void reject(SwitchId s, SwitchId d, std::size_t alt,
                         const std::string& why) {
  throw std::invalid_argument("pack_routes: pair " + std::to_string(s) +
                              "->" + std::to_string(d) + " alt " +
                              std::to_string(alt) + ": " + why);
}

bool view_matches(const RouteView& v, const Route& want) {
  if (v.total_switch_hops != want.total_switch_hops ||
      v.legs.size() != want.legs.size()) {
    return false;
  }
  for (std::size_t li = 0; li < want.legs.size(); ++li) {
    const LegView got = v.legs[li];
    const RouteLeg& leg = want.legs[li];
    if (got.end_host != leg.end_host || got.switch_hops != leg.switch_hops ||
        !std::equal(got.ports.begin(), got.ports.end(), leg.ports.begin(),
                    leg.ports.end())) {
      return false;
    }
  }
  return true;
}

}  // namespace

RouteSet pack_routes(const Topology& topo, const NestedRouteTable& nested,
                     std::uint64_t itb_host_salt) {
  const int n = nested.num_switches();
  if (n != topo.num_switches()) {
    throw std::invalid_argument("pack_routes: table and topology disagree "
                                "on the switch count");
  }
  FactorizedStoreBuilder builder(topo, itb_host_salt);
  FactorizedBlock block;
  FactorizedBlockStager stager;
  std::vector<std::uint32_t> walk_ids;
  std::vector<std::uint32_t> route_ids;
  for (SwitchId s = 0; s < n; ++s) {
    stager.begin_block(&block);
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& alts = nested.alternatives(s, d);
      route_ids.clear();
      for (std::size_t a = 0; a < alts.size(); ++a) {
        const Route& r = alts[a];
        if (r.src_switch != s || r.dst_switch != d) {
          reject(s, d, a, "endpoints disagree with the table slot");
        }
        walk_ids.clear();
        SwitchId cur = s;
        for (std::size_t li = 0; li < r.legs.size(); ++li) {
          const std::vector<PortId>& ports = r.legs[li].ports;
          const bool final_leg = li + 1 == r.legs.size();
          if (!final_leg && ports.empty()) {
            reject(s, d, a, "intermediate leg has no eject port");
          }
          // The store keeps switch output ports only; composition walks
          // intermediate legs to find their in-transit switch, so those
          // walks must stay on the switch graph.
          const std::size_t hops = ports.size() - (final_leg ? 0 : 1);
          for (std::size_t h = 0; !final_leg && h < hops; ++h) {
            const PortPeer& pp = topo.peer(cur, ports[h]);
            if (pp.kind != PeerKind::kSwitch) {
              reject(s, d, a, "intermediate leg leaves the switch graph");
            }
            cur = pp.sw;
          }
          walk_ids.push_back(stager.stage_walk(ports.data(), hops));
        }
        route_ids.push_back(stager.stage_route(
            walk_ids.data(), walk_ids.size(), static_cast<std::uint16_t>(a)));
      }
      stager.commit_pair(route_ids.data(), route_ids.size());
    }
    builder.append_block(block);
  }
  RouteSet packed(n, nested.algorithm(), builder.finish());
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      const std::vector<Route>& alts = nested.alternatives(s, d);
      for (std::size_t a = 0; a < alts.size(); ++a) {
        if (!view_matches(packed.view(s, d, static_cast<int>(a)), alts[a])) {
          reject(s, d, a,
                 "the store composes different ports, in-transit hosts or "
                 "hop counts");
        }
      }
    }
  }
  return packed;
}

Topology itb_fixture() {
  Topology t(5, 8, "itb-fixture");
  t.connect_auto(0, 1);
  t.connect_auto(0, 2);
  t.connect_auto(1, 3);
  t.connect_auto(2, 4);
  t.connect_auto(3, 4);
  for (SwitchId s = 0; s < 5; ++s) t.attach_hosts(s, 2);
  return t;
}

}  // namespace itb
