// Tests for pairwise trajectory matching and multi-trajectory aggregation —
// the heart of CrowdMap's indoor path modeling.
#include <gtest/gtest.h>

#include <cmath>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "sim/buildings.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/matching.hpp"
#include "trajectory/trajectory.hpp"

namespace ct = crowdmap::trajectory;
namespace cs = crowdmap::sim;
namespace cc = crowdmap::common;
using crowdmap::geometry::Pose2;
using crowdmap::geometry::Vec2;

namespace {

/// Shared fixture: a small set of extracted trajectories over Lab1.
class MatchingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    spec_ = new cs::FloorPlanSpec(cs::lab1());
    scene_ = new cs::Scene(cs::Scene::from_spec(*spec_, 0x1AB1));
    cs::SimOptions options;
    options.fps = 3.0;
    cs::UserSimulator user(*scene_, *spec_, options, cc::Rng(131));
    same_a_ = new ct::Trajectory(ct::extract_trajectory(
        user.hallway_walk_between({2, 0}, {26, 0}, cs::Lighting::day())));
    same_b_ = new ct::Trajectory(ct::extract_trajectory(
        user.hallway_walk_between({6, 0}, {32, 0}, cs::Lighting::day())));
    opposite_ = new ct::Trajectory(ct::extract_trajectory(
        user.hallway_walk_between({30, 0}, {4, 0}, cs::Lighting::day())));
    spur_ = new ct::Trajectory(ct::extract_trajectory(
        user.hallway_walk_between({20, 3}, {20, 14}, cs::Lighting::day())));
  }
  static void TearDownTestSuite() {
    delete same_a_;
    delete same_b_;
    delete opposite_;
    delete spur_;
    delete scene_;
    delete spec_;
  }

  static cs::FloorPlanSpec* spec_;
  static cs::Scene* scene_;
  static ct::Trajectory* same_a_;
  static ct::Trajectory* same_b_;
  static ct::Trajectory* opposite_;
  static ct::Trajectory* spur_;
};

cs::FloorPlanSpec* MatchingTest::spec_ = nullptr;
cs::Scene* MatchingTest::scene_ = nullptr;
ct::Trajectory* MatchingTest::same_a_ = nullptr;
ct::Trajectory* MatchingTest::same_b_ = nullptr;
ct::Trajectory* MatchingTest::opposite_ = nullptr;
ct::Trajectory* MatchingTest::spur_ = nullptr;

}  // namespace

TEST_F(MatchingTest, AnchorsForOverlappingSameDirectionWalks) {
  const auto anchors = ct::find_anchors(*same_a_, *same_b_, {});
  EXPECT_GE(anchors.size(), 2u);
  // Anchors correspond to genuinely nearby true poses.
  for (const auto& a : anchors) {
    const auto& ka = same_a_->keyframes[a.kf_a];
    const auto& kb = same_b_->keyframes[a.kf_b];
    EXPECT_LT(ka.true_position.distance_to(kb.true_position), 3.0);
  }
}

TEST_F(MatchingTest, SequenceMatchAcceptsTrueOverlap) {
  const auto match = ct::match_trajectories(*same_a_, *same_b_, {});
  ASSERT_TRUE(match.has_value());
  EXPECT_GE(match->s3, 0.35);
  // The recovered transform must preserve inter-key-frame distances across
  // the pair: |T(b_kf) - a_kf| should approximate the true distance.
  double err = 0.0;
  int n = 0;
  for (const auto& kb : same_b_->keyframes) {
    const Vec2 mapped = match->b_to_a.apply(kb.position);
    for (std::size_t i = 0; i < same_a_->keyframes.size(); i += 7) {
      const auto& ka = same_a_->keyframes[i];
      err += std::abs(mapped.distance_to(ka.position) -
                      kb.true_position.distance_to(ka.true_position));
      ++n;
    }
  }
  EXPECT_LT(err / n, 2.0);
}

TEST_F(MatchingTest, OppositeDirectionWalksDoNotMatch) {
  EXPECT_FALSE(ct::match_trajectories(*same_a_, *opposite_, {}).has_value());
}

TEST_F(MatchingTest, DisjointCorridorsDoNotMatch) {
  // same_a_ runs along the main corridor, spur_ along the perpendicular spur
  // ending 3 m beyond the junction; at most weak anchors near the junction.
  const auto match = ct::match_trajectories(*same_a_, *spur_, {});
  if (match) {
    // If a junction match exists, the transform must place the junction
    // consistently (translation magnitude bounded by corridor geometry).
    EXPECT_LT(match->b_to_a.position.norm(), 45.0);
  }
  SUCCEED();
}

TEST_F(MatchingTest, SingleImageBaselineIsLessStrict) {
  // Single-image accepts anything with one anchor; sequence-based requires
  // consensus + LCSS. Over the same pair both should agree when overlap is
  // genuine.
  const auto seq = ct::match_trajectories(*same_a_, *same_b_, {});
  const auto single = ct::match_single_image(*same_a_, *same_b_, {});
  EXPECT_TRUE(single.has_value());
  EXPECT_TRUE(seq.has_value());
}

TEST(AnchorTransform, RecoversRelativePose) {
  // Construct two synthetic key-frames observing the same spot: trajectory
  // b's local frame is rotated by 0.3 and translated by (2, -1) w.r.t. a's.
  const Pose2 b_to_a_truth{{2, -1}, 0.3};
  ct::KeyFrame ka;
  ka.position = {4, 5};
  ka.heading = 1.0;
  ct::KeyFrame kb;
  kb.position = b_to_a_truth.inverse().apply(ka.position);
  kb.heading = 1.0 - 0.3;
  const Pose2 recovered = ct::anchor_transform(ka, kb);
  EXPECT_NEAR(recovered.position.x, b_to_a_truth.position.x, 1e-9);
  EXPECT_NEAR(recovered.position.y, b_to_a_truth.position.y, 1e-9);
  EXPECT_NEAR(cc::angle_diff(recovered.theta, b_to_a_truth.theta), 0.0, 1e-9);
}

TEST_F(MatchingTest, AggregationPlacesOverlappingSet) {
  std::vector<ct::Trajectory> trajectories = {*same_a_, *same_b_, *opposite_};
  ct::AggregationConfig config;
  const auto result = ct::aggregate_trajectories(trajectories, config);
  // a and b overlap in the same direction; at least those two place.
  EXPECT_GE(result.placed_count, 2u);
  ASSERT_TRUE(result.global_pose[0].has_value());
  ASSERT_TRUE(result.global_pose[1].has_value());
  // Verify the relative placement against ground truth key-frames.
  double err = 0.0;
  int n = 0;
  for (std::size_t idx : {std::size_t{0}, std::size_t{1}}) {
    const auto& traj = trajectories[idx];
    for (const auto& kf : traj.keyframes) {
      const Vec2 placed = result.global_pose[idx]->apply(kf.position);
      // Compare pairwise distances rather than absolute (gauge freedom):
      // use first keyframe of trajectory 0 as the anchor.
      const Vec2 ref_placed =
          result.global_pose[0]->apply(trajectories[0].keyframes[0].position);
      const Vec2 ref_true = trajectories[0].keyframes[0].true_position;
      err += std::abs(placed.distance_to(ref_placed) -
                      kf.true_position.distance_to(ref_true));
      ++n;
    }
  }
  EXPECT_LT(err / n, 2.0);
}

TEST(Aggregation, EmptyInput) {
  const auto result = ct::aggregate_trajectories({}, {});
  EXPECT_EQ(result.placed_count, 0u);
  EXPECT_TRUE(result.edges.empty());
}

TEST(Aggregation, SingleTrajectoryPlacedAtIdentity) {
  std::vector<ct::Trajectory> one(1);
  one[0].points.push_back({{0, 0}, 0.0, 0.0});
  const auto result = ct::aggregate_trajectories(one, {});
  ASSERT_TRUE(result.global_pose[0].has_value());
  EXPECT_EQ(result.placed_count, 1u);
  EXPECT_NEAR(result.global_pose[0]->theta, 0.0, 1e-12);
}

TEST(Aggregation, GlobalPointsCollectsPlaced) {
  std::vector<ct::Trajectory> one(1);
  one[0].points.push_back({{1, 2}, 0.0, 0.0});
  one[0].points.push_back({{3, 4}, 1.0, 0.0});
  const auto result = ct::aggregate_trajectories(one, {});
  const auto points = result.global_points(one);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_NEAR(points[0].x, 1.0, 1e-12);
}

TEST(MatchConfig, ConsensusGateRejectsLoneAnchors) {
  // With min_consistent_anchors raised very high, even genuine overlaps are
  // rejected — verifying the gate is actually consulted.
  const auto spec = cs::lab1();
  const auto scene = cs::Scene::from_spec(spec, 139);
  cs::SimOptions options;
  options.fps = 3.0;
  cs::UserSimulator user(scene, spec, options, cc::Rng(139));
  const auto a = ct::extract_trajectory(
      user.hallway_walk_between({2, 0}, {22, 0}, cs::Lighting::day()));
  const auto b = ct::extract_trajectory(
      user.hallway_walk_between({4, 0}, {26, 0}, cs::Lighting::day()));
  ct::MatchConfig strict;
  strict.min_consistent_anchors = 1000;
  EXPECT_FALSE(ct::match_trajectories(a, b, strict).has_value());
}

// Placement over a given edge set, without re-matching.

TEST(PlaceEdges, SyntheticChainPlacesAll) {
  // Three nodes in a chain: 0 -(b_to_a = +x 5)- 1 -(+x 5)- 2.
  std::vector<ct::MatchEdge> edges;
  ct::MatchEdge e01;
  e01.a = 0;
  e01.b = 1;
  e01.b_to_a = {{5, 0}, 0.0};
  e01.s3 = 0.9;
  e01.anchor_count = 4;
  ct::MatchEdge e12 = e01;
  e12.a = 1;
  e12.b = 2;
  edges = {e01, e12};
  const auto result = ct::place_edges(3, edges, {});
  EXPECT_EQ(result.placed_count, 3u);
  ASSERT_TRUE(result.global_pose[2].has_value());
  // Node 2 sits at +10 x relative to node 0 (the gauge).
  EXPECT_NEAR(result.global_pose[2]->position.x -
                  result.global_pose[0]->position.x,
              10.0, 1e-6);
}

TEST(PlaceEdges, InconsistentEdgeRejected) {
  // A triangle where one edge contradicts the other two: after relaxation
  // the bad edge must be discarded, leaving a consistent placement.
  auto edge = [](std::size_t a, std::size_t b, double tx) {
    ct::MatchEdge e;
    e.a = a;
    e.b = b;
    e.b_to_a = {{tx, 0}, 0.0};
    e.s3 = 0.9;
    e.anchor_count = 4;
    return e;
  };
  std::vector<ct::MatchEdge> edges = {edge(0, 1, 5), edge(1, 2, 5),
                                      edge(0, 2, 30)};  // liar
  const auto result = ct::place_edges(3, edges, {});
  EXPECT_EQ(result.placed_count, 3u);
  EXPECT_EQ(result.edges.size(), 2u);  // the liar was pruned
  EXPECT_NEAR(result.global_pose[2]->position.x -
                  result.global_pose[0]->position.x,
              10.0, 1.0);
}
