#include "core/path_policy.hpp"

#include <algorithm>
#include <cassert>

namespace itb {

const char* to_string(PathPolicy p) {
  switch (p) {
    case PathPolicy::kSingle: return "SP";
    case PathPolicy::kRoundRobin: return "RR";
    case PathPolicy::kRandom: return "RND";
    case PathPolicy::kAdaptive: return "ADAPT";
  }
  return "?";
}

PathSelector::PathSelector(PathPolicy policy, int num_switches,
                           std::uint64_t seed)
    : policy_(policy), rng_(seed) {
  reset(policy, num_switches, seed);
}

void PathSelector::reset(PathPolicy policy, int num_switches,
                         std::uint64_t seed) {
  policy_ = policy;
  rng_ = Rng(seed);
  num_switches_ = num_switches;
  // Every per-destination table restarts empty (capacity is kept, so a
  // reset-and-rerun reuses the storage) and refills on demand.
  rr_next_.clear();
  ewma_row_of_.clear();
  ewma_.clear();
  ewma_stride_ = 0;
}

void PathSelector::fill_rr_offsets(std::size_t n) {
  // Random starting offsets: different sources begin their rotation at
  // different alternatives, so the load-spreading effect of round-robin
  // appears immediately instead of only after many repeat messages to
  // the same destination.  Growth is geometric but capped at the dense
  // table, which this never exceeds.
  if (n > rr_next_.capacity()) {
    rr_next_.reserve(std::min(static_cast<std::size_t>(num_switches_),
                              std::max(n, 2 * rr_next_.capacity())));
  }
  while (rr_next_.size() < n) {
    rr_next_.push_back(static_cast<std::uint32_t>(rng_.next_u64()));
  }
}

void PathSelector::ensure_ewma_stride(int alts) {
  if (alts <= ewma_stride_) return;
  const std::size_t rows = ewma_row_of_.size();
  const auto old_s = static_cast<std::size_t>(ewma_stride_);
  const auto new_s = static_cast<std::size_t>(alts);
  ewma_.resize(rows * new_s, -1.0);
  // Re-layout in place from the last row down (regions cannot overlap
  // forward when widening).
  for (std::size_t r = rows; r-- > 0;) {
    for (std::size_t a = new_s; a-- > 0;) {
      ewma_[r * new_s + a] = a < old_s ? ewma_[r * old_s + a] : -1.0;
    }
  }
  ewma_stride_ = alts;
}

namespace {

auto row_lower_bound(std::vector<std::pair<SwitchId, std::uint32_t>>& index,
                     SwitchId dst) {
  return std::lower_bound(
      index.begin(), index.end(), dst,
      [](const std::pair<SwitchId, std::uint32_t>& e, SwitchId d) {
        return e.first < d;
      });
}

}  // namespace

double* PathSelector::find_ewma_row(SwitchId dst_switch) {
  const auto it = row_lower_bound(ewma_row_of_, dst_switch);
  if (it == ewma_row_of_.end() || it->first != dst_switch) return nullptr;
  return ewma_.data() +
         static_cast<std::size_t>(it->second) *
             static_cast<std::size_t>(ewma_stride_);
}

int PathSelector::pick(SwitchId dst_switch, int num_alternatives) {
  assert(num_alternatives > 0);
  if (num_alternatives == 1) return 0;
  switch (policy_) {
    case PathPolicy::kSingle:
      return 0;
    case PathPolicy::kRoundRobin: {
      const auto d = static_cast<std::size_t>(dst_switch);
      if (d >= rr_next_.size()) fill_rr_offsets(d + 1);
      auto& next = rr_next_[d];
      const int alt = static_cast<int>(next % static_cast<std::uint32_t>(
                                                  num_alternatives));
      ++next;
      return alt;
    }
    case PathPolicy::kRandom:
      return static_cast<int>(
          rng_.next_below(static_cast<std::uint64_t>(num_alternatives)));
    case PathPolicy::kAdaptive: {
      if (rng_.next_bool(kExploreEps)) {
        return static_cast<int>(
            rng_.next_below(static_cast<std::uint64_t>(num_alternatives)));
      }
      ensure_ewma_stride(num_alternatives);
      const double* scores = find_ewma_row(dst_switch);
      if (scores == nullptr) return 0;  // all unexplored: the first one
      int best = 0;
      for (int i = 0; i < num_alternatives; ++i) {
        const double si = scores[i];
        const double sb = scores[best];
        if (si < 0) return i;  // unexplored alternative first
        if (si < sb) best = i;
      }
      return best;
    }
  }
  return 0;
}

void PathSelector::feedback(SwitchId dst_switch, int alternative,
                            TimePs latency) {
  if (policy_ != PathPolicy::kAdaptive) return;
  ensure_ewma_stride(alternative + 1);
  auto it = row_lower_bound(ewma_row_of_, dst_switch);
  if (it == ewma_row_of_.end() || it->first != dst_switch) {
    const auto r = static_cast<std::uint32_t>(ewma_row_of_.size());
    it = ewma_row_of_.insert(it, {dst_switch, r});
    ewma_.resize(ewma_.size() + static_cast<std::size_t>(ewma_stride_), -1.0);
  }
  double& s = ewma_[static_cast<std::size_t>(it->second) *
                        static_cast<std::size_t>(ewma_stride_) +
                    static_cast<std::size_t>(alternative)];
  const auto l = static_cast<double>(latency);
  s = (s < 0) ? l : (1.0 - kEwmaAlpha) * s + kEwmaAlpha * l;
}

}  // namespace itb
