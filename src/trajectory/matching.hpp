// Pairwise trajectory matching (§III.B.I): hierarchical key-frame comparison
// (cheap S1 gate, then SURF S2), anchor-derived rigid transform candidates,
// and sequence-based verification via the LCSS score S3. Also provides the
// single-image aggregation baseline evaluated in Fig. 7(a).
#pragma once

#include <optional>
#include <vector>

#include "trajectory/lcss.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/similarity.hpp"

namespace crowdmap::trajectory {

/// All thresholds of the matching stack, named after the paper.
struct MatchConfig {
  double h_s = 0.55;    // S1 gate: below it two key-frames are not identical
  double h_d = 0.35;    // SURF descriptor distance threshold (Algorithm 1)
  double nn_ratio = 0.8;  // Lowe ratio gate on top of h_d (1.0 disables)
  double h_f = 0.08;    // S2 gate: minimum good-match ratio
  double h_l = 0.35;    // S3 gate: minimum normalized LCSS for aggregation
  /// Sequence consistency: at least this many anchors must agree with the
  /// winning transform (within `consensus_dist` / `consensus_angle`) before
  /// two trajectories merge — the multi-frame discipline of §III.B.I.
  int min_consistent_anchors = 2;
  double consensus_dist = 2.5;    // meters
  double consensus_angle = 0.35;  // radians
  LcssParams lcss;
  vision::S1Weights s1_weights;
  double resample_spacing = 0.7;  // meters between LCSS samples
  int max_candidates = 5;         // strongest anchors tried as transforms
  /// Cost bounds: S2 (SURF) is evaluated on key-frame pairs in decreasing S1
  /// order, stopping after this many evaluations or this many anchors.
  int max_s2_evaluations = 24;
  int max_anchors = 8;
};

/// A matched key-frame pair across two trajectories.
struct FrameAnchor {
  std::size_t kf_a = 0;
  std::size_t kf_b = 0;
  double s1 = 0.0;
  double s2 = 0.0;
};

/// Result of matching trajectory b against trajectory a.
struct PairMatch {
  Pose2 b_to_a;   // rigid transform mapping b's local frame into a's
  double s3 = 0.0;
  std::vector<FrameAnchor> anchors;
};

/// Finds key-frame anchors between two trajectories (S1 gate then S2 gate).
[[nodiscard]] std::vector<FrameAnchor> find_anchors(const Trajectory& a,
                                                    const Trajectory& b,
                                                    const MatchConfig& config);

/// Rigid transform implied by one anchor: assumes the two cameras observed
/// the same scene from (approximately) the same pose.
[[nodiscard]] Pose2 anchor_transform(const KeyFrame& kf_a, const KeyFrame& kf_b);

/// Sequence-based matching: anchors → transform candidates → LCSS S3
/// verification. Returns the accepted transform or nullopt.
[[nodiscard]] std::optional<PairMatch> match_trajectories(
    const Trajectory& a, const Trajectory& b, const MatchConfig& config);

/// Single-image baseline: accepts the best anchor's transform directly, with
/// no sequence verification (Fig. 7(a)'s "Single Image Aggregation").
[[nodiscard]] std::optional<PairMatch> match_single_image(
    const Trajectory& a, const Trajectory& b, const MatchConfig& config);

}  // namespace crowdmap::trajectory
