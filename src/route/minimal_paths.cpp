#include "route/minimal_paths.hpp"

namespace itb {

namespace {
std::size_t idx(std::int64_t v) { return static_cast<std::size_t>(v); }
}  // namespace

SwitchAdjacency::SwitchAdjacency(const Topology& topo) {
  const int n = topo.num_switches();
  off.assign(idx(n) + 1, 0);
  for (SwitchId u = 0; u < n; ++u) {
    const auto ports = topo.switch_ports_of(u);
    off[idx(u) + 1] = off[idx(u)] + static_cast<std::uint32_t>(ports.size());
    for (const PortId p : ports) {
      const PortPeer& e = topo.peer(u, p);
      edges.push_back(Edge{e.sw, e.cable, p});
    }
  }
}

void SwitchAdjacency::distances_from(SwitchId src, std::vector<int>& dist,
                                     std::vector<SwitchId>& queue) const {
  dist.assign(off.size() - 1, -1);
  queue.clear();
  dist[idx(src)] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const SwitchId u = queue[head];
    for (const Edge& e : of(u)) {
      if (dist[idx(e.sw)] == -1) {
        dist[idx(e.sw)] = dist[idx(u)] + 1;
        queue.push_back(e.sw);
      }
    }
  }
}

}  // namespace itb
