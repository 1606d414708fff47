// Reference route tables for the test suite.
//
// The runtime builders (core/route_builder.hpp) stage straight into the
// factorized store and never materialize a Route.  The builders here
// construct the same tables the straightforward way — one owning Route per
// alternative, lowered by compile_route, held in a `vector<vector<Route>>`
// — so the differential suites can compare the two pair for pair.
// compile_route picks in-transit hosts with its own copy of the host-choice
// mix; RouteStore::compose re-derives them independently, and the suites
// pin the two against each other.
#pragma once

#include <cstdint>
#include <vector>

#include "core/route.hpp"
#include "core/route_builder.hpp"
#include "route/simple_routes.hpp"
#include "route/switch_path.hpp"
#include "route/updown.hpp"
#include "topo/topology.hpp"

namespace itb {

class NestedRouteTable {
 public:
  NestedRouteTable(int num_switches, RoutingAlgorithm algo)
      : num_switches_(num_switches), algo_(algo),
        table_(static_cast<std::size_t>(num_switches) *
               static_cast<std::size_t>(num_switches)) {}

  [[nodiscard]] RoutingAlgorithm algorithm() const { return algo_; }
  [[nodiscard]] int num_switches() const { return num_switches_; }

  [[nodiscard]] const std::vector<Route>& alternatives(SwitchId s,
                                                       SwitchId d) const {
    return table_[key(s, d)];
  }

  std::vector<Route>& mutable_alternatives(SwitchId s, SwitchId d) {
    return table_[key(s, d)];
  }

 private:
  [[nodiscard]] std::size_t key(SwitchId s, SwitchId d) const {
    return static_cast<std::size_t>(s) *
               static_cast<std::size_t>(num_switches_) +
           static_cast<std::size_t>(d);
  }

  int num_switches_;
  RoutingAlgorithm algo_;
  std::vector<std::vector<Route>> table_;
};

/// Reference tables: same route values as the runtime builders, serial
/// construction.
[[nodiscard]] NestedRouteTable build_updown_routes_nested(
    const Topology& topo, const SimpleRoutes& sr);
[[nodiscard]] NestedRouteTable build_itb_routes_nested(
    const Topology& topo, const UpDown& ud, ItbBuildOptions opts = {});
[[nodiscard]] NestedRouteTable build_minimal_routes_nested(
    const Topology& topo);

/// Lowers a switch-level path (plus split points for ITB legs) into a Route
/// with concrete ports and in-transit host choices.  `alt_index`
/// participates in in-transit host spreading so different alternatives use
/// different hosts of the same switch.
[[nodiscard]] Route compile_route(const Topology& topo, const SwitchPath& path,
                                  const std::vector<int>& split_points,
                                  int alt_index, std::uint64_t itb_host_salt);

/// Inflate a whole store into a nested table of owning Routes.
[[nodiscard]] NestedRouteTable materialize_nested(const RouteSet& rs);

/// Heap footprint of a nested table (object headers + vector storage),
/// the baseline the factorized store's table_bytes() is compared against.
[[nodiscard]] std::uint64_t nested_table_bytes(const NestedRouteTable& t);

}  // namespace itb
