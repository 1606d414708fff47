// Reference enumerator of minimal (shortest, unrestricted) switch paths.
//
// The runtime ITB builder enumerates with for_each_minimal_path_dag
// (route/minimal_paths.hpp) over a per-destination pruned DAG.  This is the
// straightforward recursive DFS over the topology the suites compare it
// against, plus the path counts the routing tests check by hand.
#pragma once

#include <span>
#include <vector>

#include "route/switch_path.hpp"
#include "topo/topology.hpp"

namespace itb {

/// Up to `max_paths` distinct minimal paths from s to d in deterministic
/// DFS sequence.  s == d yields the trivial path.
///
/// `port_rotation` rotates the per-switch port visiting order; the DFS
/// therefore *starts* from a different direction for different rotations
/// while still enumerating the same set.
[[nodiscard]] std::vector<SwitchPath> enumerate_minimal_paths(
    const Topology& topo, SwitchId s, SwitchId d, int max_paths,
    unsigned port_rotation = 0);

/// Same enumeration, with the BFS distances *to d* supplied by the caller
/// (`dist_to_d[u]` = hop distance from u to d; the graph is undirected,
/// so Topology::switch_distances_from(d) serves).
[[nodiscard]] std::vector<SwitchPath> enumerate_minimal_paths(
    const Topology& topo, SwitchId s, SwitchId d, int max_paths,
    unsigned port_rotation, std::span<const int> dist_to_d);

/// Count of minimal paths from s to d, saturating at `cap`.
[[nodiscard]] int count_minimal_paths(const Topology& topo, SwitchId s,
                                      SwitchId d, int cap);

}  // namespace itb
