// Source-host path-selection policies.
//
// The paper evaluates two (single path and round-robin) and names adaptive
// selection at the source host as future work; kRandom and kAdaptive are
// provided as that extension and exercised by bench_adaptive_policy.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "topo/types.hpp"

namespace itb {

enum class PathPolicy : std::uint8_t {
  kSingle,      // ITB-SP / UP-DOWN: always alternative 0
  kRoundRobin,  // ITB-RR: cycle through the alternatives per pair
  kRandom,      // uniformly random alternative per packet (extension)
  kAdaptive,    // latency-EWMA driven with epsilon exploration (extension)
};

[[nodiscard]] const char* to_string(PathPolicy p);

/// Per-source-NIC selection state.  `pick` chooses the alternative index
/// for a packet headed to `dst_switch`; `feedback` (used only by kAdaptive)
/// reports the measured network latency of a delivered packet so the source
/// can steer toward currently faster alternatives — the "adaptivity at the
/// source host" the paper's future-work section sketches.
class PathSelector {
 public:
  /// An empty selector (no destinations); reset() before use.
  PathSelector() : PathSelector(PathPolicy::kSingle, 0, 0) {}
  PathSelector(PathPolicy policy, int num_switches, std::uint64_t seed);

  /// Return the selector to the exact state the corresponding constructor
  /// would produce (same RNG stream, same rotation offsets), reusing table
  /// capacity where possible.  O(1): no per-destination state is touched
  /// until a pick asks for it.  Part of the workspace-reuse determinism
  /// contract (see sim/workspace.hpp).
  void reset(PathPolicy policy, int num_switches, std::uint64_t seed);

  [[nodiscard]] PathPolicy policy() const { return policy_; }

  int pick(SwitchId dst_switch, int num_alternatives);
  void feedback(SwitchId dst_switch, int alternative, TimePs latency);

 private:
  /// Draw the round-robin offsets of destinations [size, n) in order.
  void fill_rr_offsets(std::size_t n);

  /// Grow the EWMA table's row stride to at least `alts` columns,
  /// re-laying existing rows out in place (new cells read "unexplored").
  void ensure_ewma_stride(int alts);

  /// The EWMA row of `dst_switch`, or nullptr while it has no feedback.
  [[nodiscard]] double* find_ewma_row(SwitchId dst_switch);

  PathPolicy policy_;
  Rng rng_;
  int num_switches_ = 0;
  // kRoundRobin: rotation counter per destination switch, drawn on demand
  // as a prefix — rr_next_[d] is always the (d+1)-th draw of rng_ (the
  // policy draws nothing else), so a NIC holds counters only up to the
  // highest destination it has picked.
  std::vector<std::uint32_t> rr_next_;
  // kAdaptive: one flat rows x ewma_stride_ array (row-major, -1.0 means
  // unexplored) holding a row only for destinations that have had
  // feedback; a destination without a row reads all-unexplored.  The
  // stride grows lazily to the widest alternative count seen, preserving
  // values.  ewma_row_of_ maps destination -> row, sorted by destination
  // (a compact index: every NIC embeds one selector).
  std::vector<std::pair<SwitchId, std::uint32_t>> ewma_row_of_;
  std::vector<double> ewma_;
  int ewma_stride_ = 0;
  static constexpr double kEwmaAlpha = 0.1;
  static constexpr double kExploreEps = 0.1;
};

}  // namespace itb
