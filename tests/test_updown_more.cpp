// Additional up*/down* coverage: root choice, k-ary family, and the
// relationship between tree structure and path restriction.
#include <gtest/gtest.h>

#include <algorithm>

#include "route/updown.hpp"
#include "support/minimal_paths_ref.hpp"
#include "topo/generators.hpp"

namespace itb {
namespace {

TEST(UpDownRoot, DifferentRootsChangeOrientation) {
  const Topology t = make_torus_2d(4, 4, 1);
  const UpDown a(t, 0);
  const UpDown b(t, 10);
  EXPECT_EQ(a.root(), 0);
  EXPECT_EQ(b.root(), 10);
  EXPECT_EQ(b.level(10), 0);
  int differing = 0;
  for (CableId c = 0; c < t.num_cables(); ++c) {
    if (t.cable(c).to_host()) continue;
    if (a.up_end(c) != b.up_end(c)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(UpDownRoot, RestrictionSimilarAcrossRootsOnSymmetricTorus) {
  // On a vertex-transitive topology the fraction of pairs with a legal
  // minimal path is root-independent.
  const Topology t = make_torus_2d(4, 4, 1);
  auto minimal_fraction = [&](SwitchId root) {
    const UpDown ud(t, root);
    const auto all = t.all_switch_distances();
    int minimal = 0, pairs = 0;
    for (SwitchId s = 0; s < 16; ++s) {
      const auto legal = ud.legal_distances_from(s);
      for (SwitchId d = 0; d < 16; ++d) {
        if (s == d) continue;
        ++pairs;
        if (legal[static_cast<std::size_t>(d)] ==
            all[static_cast<std::size_t>(s) * 16 +
                static_cast<std::size_t>(d)]) {
          ++minimal;
        }
      }
    }
    return static_cast<double>(minimal) / pairs;
  };
  const double f0 = minimal_fraction(0);
  for (const SwitchId root : {5, 10, 15}) {
    EXPECT_DOUBLE_EQ(minimal_fraction(root), f0) << "root " << root;
  }
}

TEST(UpDownKary, ThreeDTorusRestrictionBetween2DAndHypercube) {
  // More dimensions -> more path diversity -> milder up*/down*
  // restriction.  Compare legal-minimal fractions at 64 switches.
  auto fraction = [](const Topology& t) {
    const UpDown ud(t, 0);
    const auto all = t.all_switch_distances();
    const int n = t.num_switches();
    int minimal = 0, pairs = 0;
    for (SwitchId s = 0; s < n; ++s) {
      const auto legal = ud.legal_distances_from(s);
      for (SwitchId d = 0; d < n; ++d) {
        if (s == d) continue;
        ++pairs;
        if (legal[static_cast<std::size_t>(d)] ==
            all[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(d)]) {
          ++minimal;
        }
      }
    }
    return static_cast<double>(minimal) / pairs;
  };
  const double torus2d = fraction(make_torus_2d(8, 8, 1));
  const double torus3d = fraction(make_kary_ncube(4, 3, 1));
  const double cube6 = fraction(make_kary_ncube(2, 6, 1, 8));
  EXPECT_GT(torus3d, torus2d);
  // Short rings (k=4) and hypercubes are both fully unrestricted; the
  // 8-ary 2-cube with its long rings is the constrained one.
  EXPECT_GE(cube6, torus3d);
  EXPECT_GT(cube6, 0.95) << "hypercubes are nearly unrestricted";
  EXPECT_LT(torus2d, 0.9);
}

TEST(UpDownKary, RingHasIllegalMinimalPairs) {
  // On a ring the up*/down* cut forbids minimal paths crossing the
  // "back" of the ring in one direction.
  const Topology t = make_kary_ncube(8, 1, 1, 8);
  const UpDown ud(t, 0);
  const auto all = t.all_switch_distances();
  int illegal_minimal = 0;
  for (SwitchId s = 0; s < 8; ++s) {
    const auto legal = ud.legal_distances_from(s);
    for (SwitchId d = 0; d < 8; ++d) {
      if (s == d) continue;
      if (legal[static_cast<std::size_t>(d)] >
          all[static_cast<std::size_t>(s) * 8 + static_cast<std::size_t>(d)]) {
        ++illegal_minimal;
      }
    }
  }
  EXPECT_GT(illegal_minimal, 0);
}

TEST(UpDownKary, EveryPairReachableOnAllFamilies) {
  for (const auto& t :
       {make_kary_ncube(3, 2, 1, 8), make_kary_ncube(4, 3, 1),
        make_kary_ncube(2, 5, 1, 8), make_kary_ncube(5, 2, 1, 8)}) {
    const UpDown ud(t, 0);
    for (SwitchId s = 0; s < t.num_switches(); s += 3) {
      const auto legal = ud.legal_distances_from(s);
      for (SwitchId d = 0; d < t.num_switches(); ++d) {
        EXPECT_GE(legal[static_cast<std::size_t>(d)], 0)
            << t.name() << " " << s << "->" << d;
      }
    }
  }
}

TEST(MinimalPathsRotation, RotationsEnumerateTheSameSet) {
  const Topology t = make_torus_2d(5, 5, 1);
  for (SwitchId d : {SwitchId{6}, SwitchId{18}}) {
    auto base = enumerate_minimal_paths(t, 0, d, 100, 0);
    std::sort(base.begin(), base.end(),
              [](const SwitchPath& a, const SwitchPath& b) {
                return a.cable < b.cable;
              });
    for (const unsigned rot : {1u, 7u, 123u}) {
      auto rotated = enumerate_minimal_paths(t, 0, d, 100, rot);
      EXPECT_EQ(rotated.size(), base.size());
      std::sort(rotated.begin(), rotated.end(),
                [](const SwitchPath& a, const SwitchPath& b) {
                  return a.cable < b.cable;
                });
      EXPECT_EQ(rotated, base) << "rotation " << rot;
    }
  }
}

TEST(MinimalPathsRotation, RotationChangesTheFirstPath) {
  const Topology t = make_torus_2d(8, 8, 1);
  int changed = 0;
  for (SwitchId d : {SwitchId{9}, SwitchId{18}, SwitchId{27}}) {
    const auto a = enumerate_minimal_paths(t, 0, d, 1, 0);
    const auto b = enumerate_minimal_paths(t, 0, d, 1, 1);
    if (!(a == b)) ++changed;
  }
  EXPECT_GT(changed, 0) << "rotation must actually spread first choices";
}

}  // namespace
}  // namespace itb
