#include "support/minimal_paths_ref.hpp"

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }
}  // namespace

std::vector<SwitchPath> enumerate_minimal_paths(const Topology& topo,
                                                SwitchId s, SwitchId d,
                                                int max_paths,
                                                unsigned port_rotation) {
  // Distances *to* d (the graph is undirected, so distances from d serve).
  const std::vector<int> dist = topo.switch_distances_from(d);
  return enumerate_minimal_paths(topo, s, d, max_paths, port_rotation,
                                 std::span<const int>(dist));
}

std::vector<SwitchPath> enumerate_minimal_paths(const Topology& topo,
                                                SwitchId s, SwitchId d,
                                                int max_paths,
                                                unsigned port_rotation,
                                                std::span<const int> dist_to_d) {
  std::vector<SwitchPath> out;
  if (max_paths <= 0) return out;
  if (s == d) {
    out.push_back(SwitchPath{{s}, {}});
    return out;
  }
  if (dist_to_d[idx(s)] < 0) return out;

  SwitchPath cur;
  cur.sw.push_back(s);

  auto rec = [&](auto&& self, SwitchId u) -> void {
    if (static_cast<int>(out.size()) >= max_paths) return;
    if (u == d) {
      out.push_back(cur);
      return;
    }
    const int remaining = dist_to_d[idx(u)];
    const auto ports = topo.switch_ports_of(u);
    for (std::size_t pi = 0; pi < ports.size(); ++pi) {
      if (static_cast<int>(out.size()) >= max_paths) return;
      const PortId p = ports[(pi + port_rotation) % ports.size()];
      const PortPeer& e = topo.peer(u, p);
      if (dist_to_d[idx(e.sw)] != remaining - 1) continue;
      cur.sw.push_back(e.sw);
      cur.cable.push_back(e.cable);
      self(self, e.sw);
      cur.sw.pop_back();
      cur.cable.pop_back();
    }
  };
  rec(rec, s);
  return out;
}

int count_minimal_paths(const Topology& topo, SwitchId s, SwitchId d,
                        int cap) {
  return static_cast<int>(enumerate_minimal_paths(topo, s, d, cap).size());
}

}  // namespace itb
