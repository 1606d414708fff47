// Hand-built and mutated routing tables for tests.
//
// Fixtures that need a table no builder produces (an illegal ring, a
// corrupted leg, a duplicated alternative) write owning Routes into a
// NestedRouteTable and pack it into the runtime store with pack_routes.
#pragma once

#include <cstdint>

#include "core/route_set.hpp"
#include "support/nested_routes.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Stages every Route of `nested` into the factorized store, tagging each
/// alternative with its slot index, and checks that each composed view
/// reproduces its input: endpoints, per-leg ports, in-transit hosts and
/// hop counts (the `switches` field is not stored and not checked).
/// Throws std::invalid_argument naming the pair and alternative otherwise —
/// e.g. a route filed under the wrong pair, or an in-transit host other
/// than the one the store derives from (s, d, slot, leg, itb_host_salt).
[[nodiscard]] RouteSet pack_routes(const Topology& topo,
                                   const NestedRouteTable& nested,
                                   std::uint64_t itb_host_salt = 0);

/// Five-switch network whose pair (3 -> 2) needs exactly one in-transit
/// buffer; switch s owns hosts {2s, 2s+1}:
///
///        0 (root)
///       / \ .
///      1   2        levels 1
///      |   |
///      3---4        levels 2; cable 3-4 oriented up-end = 3
///
/// The only 2-hop path 3-4-2 goes "down" (3->4) then "up" (4->2), so it is
/// split at switch 4; the legal alternative 3-1-0-2 has 3 hops.
[[nodiscard]] Topology itb_fixture();

}  // namespace itb
