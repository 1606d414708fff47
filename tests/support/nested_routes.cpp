#include "support/nested_routes.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/itb_split.hpp"
#include "route/topo_minimal.hpp"
#include "support/minimal_paths_ref.hpp"

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }
}  // namespace

Route compile_route(const Topology& topo, const SwitchPath& path,
                    const std::vector<int>& split_points, int alt_index,
                    std::uint64_t itb_host_salt) {
  Route r;
  r.src_switch = path.src();
  r.dst_switch = path.dst();
  r.switches = path.sw;
  r.total_switch_hops = path.hops();

  const auto segments = split_path(path, split_points);
  r.legs.reserve(segments.size());
  for (std::size_t seg_i = 0; seg_i < segments.size(); ++seg_i) {
    const SwitchPath& seg = segments[seg_i];
    const bool is_final = seg_i + 1 == segments.size();
    RouteLeg leg;
    leg.switch_hops = seg.hops();
    leg.ports.reserve(seg.cable.size() + 1);
    for (std::size_t h = 0; h < seg.cable.size(); ++h) {
      // Output port of the switch we are leaving, for the cable we cross.
      const Cable& cb = topo.cable(seg.cable[h]);
      const SwitchId from = seg.sw[h];
      leg.ports.push_back(cb.a.sw == from ? cb.a.port : cb.b.port);
    }
    if (!is_final) {
      // Choose the in-transit host on the segment's last switch, spreading
      // the load over that switch's hosts deterministically.  The
      // factorized store recomputes this exact mix at composition time
      // (RouteStore::compose) — keep the two in lockstep.
      const SwitchId itb_sw = seg.dst();
      const auto hosts = topo.hosts_of_switch(itb_sw);
      if (hosts.empty()) {
        throw std::invalid_argument(
            "compile_route: split switch has no attached host");
      }
      const std::uint64_t mix =
          static_cast<std::uint64_t>(path.src()) * 1315423911ULL +
          static_cast<std::uint64_t>(path.dst()) * 2654435761ULL +
          static_cast<std::uint64_t>(alt_index) * 40503ULL +
          static_cast<std::uint64_t>(seg_i) * 97ULL + itb_host_salt;
      const HostId h = hosts[mix % hosts.size()];
      leg.end_host = h;
      leg.ports.push_back(topo.host(h).port);
    }
    r.legs.push_back(std::move(leg));
  }
  return r;
}

namespace {

/// One staged row: the alternatives of every destination for one source
/// switch.
using Row = std::vector<std::vector<Route>>;

Row updown_row(const Topology& topo, const SimpleRoutes& sr, SwitchId s) {
  Row row(static_cast<std::size_t>(topo.num_switches()));
  for (SwitchId d = 0; d < topo.num_switches(); ++d) {
    const SwitchPath& p = sr.route(s, d);
    row[idx(d)].push_back(compile_route(topo, p, {}, 0, 0));
  }
  return row;
}

Row minimal_row(const Topology& topo, const StructuredMinimal& sm,
                SwitchId s) {
  Row row(static_cast<std::size_t>(topo.num_switches()));
  for (SwitchId d = 0; d < topo.num_switches(); ++d) {
    row[idx(d)].push_back(compile_route(topo, sm.path(s, d), {}, 0, 0));
  }
  return row;
}

/// All-pairs BFS distance matrix (row-major, row = source switch).
std::vector<int> all_pairs_distances(const Topology& topo) {
  const int n = topo.num_switches();
  std::vector<int> flat;
  flat.reserve(idx(n) * idx(n));
  for (SwitchId s = 0; s < n; ++s) {
    const std::vector<int> row = topo.switch_distances_from(s);
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

Row itb_row(const Topology& topo, const UpDown& ud,
            const ItbBuildOptions& opts, SwitchId s,
            const std::vector<int>& all_dist) {
  const auto n = idx(topo.num_switches());
  Row row(n);
  for (SwitchId d = 0; d < topo.num_switches(); ++d) {
    std::vector<Route>& alts = row[idx(d)];
    // Per-pair rotation of the DFS direction order: ITB-SP's pinned
    // "first minimal path" is then spread across directions network-wide
    // (see enumerate_minimal_paths).
    const auto rotation = static_cast<unsigned>(
        (static_cast<std::uint64_t>(s) * 0x9e3779b9u +
         static_cast<std::uint64_t>(d) * 0x85ebca6bu) >>
        16);
    // Row d of the matrix = distances from d = distances to d (undirected).
    const auto paths = enumerate_minimal_paths(
        topo, s, d, opts.max_alternatives, rotation,
        std::span<const int>(all_dist.data() + idx(d) * n, n));
    int alt_index = 0;
    for (const SwitchPath& p : paths) {
      const auto splits = itb_split_points(ud, p);
      // Skip candidates whose split switch has no host to eject into.
      bool feasible = true;
      for (const int sp : splits) {
        if (topo.hosts_of_switch(p.sw[idx(sp)]).empty()) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      alts.push_back(
          compile_route(topo, p, splits, alt_index, opts.itb_host_salt));
      ++alt_index;
    }
    if (alts.empty()) {
      // No usable minimal path (can only happen on host-less split
      // switches); fall back to a shortest legal route.
      const auto legal = ud.shortest_legal_paths(s, d, 1);
      if (legal.empty()) {
        throw std::runtime_error("build_itb_routes: pair unreachable");
      }
      alts.push_back(compile_route(topo, legal.front(), {}, 0, 0));
    }
    if (opts.prefer_fewest_itbs) {
      // ITB-SP uses alternative 0: prefer routes with fewer in-transit
      // stops; the sort is stable so the DFS order breaks ties.
      std::stable_sort(alts.begin(), alts.end(),
                       [](const Route& a, const Route& b) {
                         return a.num_itbs() < b.num_itbs();
                       });
    }
  }
  return row;
}

}  // namespace

NestedRouteTable build_updown_routes_nested(const Topology& topo,
                                            const SimpleRoutes& sr) {
  NestedRouteTable rs(topo.num_switches(), RoutingAlgorithm::kUpDown);
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    Row row = updown_row(topo, sr, s);
    for (SwitchId d = 0; d < topo.num_switches(); ++d) {
      rs.mutable_alternatives(s, d) = std::move(row[idx(d)]);
    }
  }
  return rs;
}

NestedRouteTable build_itb_routes_nested(const Topology& topo,
                                         const UpDown& ud,
                                         ItbBuildOptions opts) {
  const std::vector<int> all_dist = all_pairs_distances(topo);
  NestedRouteTable rs(topo.num_switches(), RoutingAlgorithm::kItb);
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    Row row = itb_row(topo, ud, opts, s, all_dist);
    for (SwitchId d = 0; d < topo.num_switches(); ++d) {
      rs.mutable_alternatives(s, d) = std::move(row[idx(d)]);
    }
  }
  return rs;
}

NestedRouteTable build_minimal_routes_nested(const Topology& topo) {
  const StructuredMinimal sm(topo);
  NestedRouteTable rs(topo.num_switches(), RoutingAlgorithm::kMinimal);
  for (SwitchId s = 0; s < topo.num_switches(); ++s) {
    Row row = minimal_row(topo, sm, s);
    for (SwitchId d = 0; d < topo.num_switches(); ++d) {
      rs.mutable_alternatives(s, d) = std::move(row[idx(d)]);
    }
  }
  return rs;
}

NestedRouteTable materialize_nested(const RouteSet& rs) {
  NestedRouteTable out(rs.num_switches(), rs.algorithm());
  for (SwitchId s = 0; s < rs.num_switches(); ++s) {
    for (SwitchId d = 0; d < rs.num_switches(); ++d) {
      std::vector<Route>& alts = out.mutable_alternatives(s, d);
      const AltsView views = rs.alternatives(s, d);
      alts.reserve(views.size());
      for (const RouteView v : views) alts.push_back(materialize_route(v));
    }
  }
  return out;
}

std::uint64_t nested_table_bytes(const NestedRouteTable& t) {
  const int n = t.num_switches();
  // Count size()-based storage, not capacity: the fairest possible
  // baseline for the nested layout (real capacities only grow it).
  std::uint64_t bytes = static_cast<std::uint64_t>(n) *
                        static_cast<std::uint64_t>(n) *
                        sizeof(std::vector<Route>);
  for (SwitchId s = 0; s < n; ++s) {
    for (SwitchId d = 0; d < n; ++d) {
      for (const Route& r : t.alternatives(s, d)) {
        bytes += sizeof(Route);
        bytes += r.switches.size() * sizeof(SwitchId);
        for (const RouteLeg& leg : r.legs) {
          bytes += sizeof(RouteLeg);
          bytes += leg.ports.size() * sizeof(PortId);
        }
      }
    }
  }
  return bytes;
}

}  // namespace itb
