#include "room/layout.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "room/corners.hpp"

namespace crowdmap::room {

std::vector<double> detect_floor_boundary(const imaging::Image& panorama,
                                          double horizon_row) {
  const int w = panorama.width();
  const int h = panorama.height();
  std::vector<double> boundary(static_cast<std::size_t>(w),
                               std::numeric_limits<double>::quiet_NaN());
  constexpr double kMinDrop = 0.02;
  // Gradient window scales with panorama height so the boundary edge spans
  // it at any stitching resolution.
  const int span = std::max(2, h / 64);
  const int start_row =
      std::clamp(static_cast<int>(horizon_row < 0 ? h / 2 : horizon_row) + span,
                 span, h - span - 1);
  for (int c = 0; c < w; ++c) {
    double best_drop = kMinDrop;
    int best_row = -1;
    // The wall-floor boundary is below the (pitch-shifted) horizon. The
    // renderer places a dark baseboard at the wall bottom, so the boundary
    // appears as the strongest downward brightness drop below the horizon.
    for (int r = start_row; r < h - span; ++r) {
      const double drop = panorama.at(c, r - span) - panorama.at(c, r + span / 2);
      if (drop > best_drop) {
        best_drop = drop;
        best_row = r;
      }
    }
    if (best_row >= 0) boundary[static_cast<std::size_t>(c)] = best_row;
  }
  // Sliding median (window 5, circular) suppresses single-column outliers
  // from poster/door edges masquerading as the floor line.
  std::vector<double> smoothed = boundary;
  for (int c = 0; c < w; ++c) {
    // Unused slots hold +inf, so a full fixed-size sort leaves the n real
    // samples in the first n slots, in order.
    std::array<double, 5> window;
    window.fill(std::numeric_limits<double>::infinity());
    std::size_t n = 0;
    for (int d = -2; d <= 2; ++d) {
      const double v = boundary[static_cast<std::size_t>(((c + d) % w + w) % w)];
      if (!std::isnan(v)) window[n++] = v;
    }
    if (n >= 3) {
      std::sort(window.begin(), window.end());
      smoothed[static_cast<std::size_t>(c)] = window[n / 2];
    }
  }
  return smoothed;
}

double rect_boundary_distance(const LayoutHypothesis& hyp, double angle) {
  const double local = angle - hyp.orientation;
  const double dx = std::cos(local);
  const double dy = std::sin(local);
  const double cx = hyp.camera_offset.x;
  const double cy = hyp.camera_offset.y;
  const double hw = hyp.width / 2.0;
  const double hd = hyp.depth / 2.0;
  double best = 1e9;
  if (std::abs(dx) > 1e-9) {
    for (const double wall_x : {-hw, hw}) {
      const double t = (wall_x - cx) / dx;
      if (t > 1e-6 && std::abs(cy + t * dy) <= hd + 1e-9) best = std::min(best, t);
    }
  }
  if (std::abs(dy) > 1e-9) {
    for (const double wall_y : {-hd, hd}) {
      const double t = (wall_y - cy) / dy;
      if (t > 1e-6 && std::abs(cx + t * dx) <= hw + 1e-9) best = std::min(best, t);
    }
  }
  return best;
}

double predict_boundary_row(const LayoutHypothesis& hyp, double angle,
                            double horizon_row, double focal_px,
                            double camera_height, double boundary_height) {
  const double dist = rect_boundary_distance(hyp, angle);
  return horizon_row + focal_px * (camera_height - boundary_height) / dist;
}

namespace {

/// Mean absolute boundary error of a hypothesis (pixels, clamped); lower is
/// better. Only columns with an observed boundary are scored.
[[nodiscard]] double hypothesis_error(const LayoutHypothesis& hyp,
                                      const std::vector<double>& observed,
                                      int pano_width, double horizon_row,
                                      double focal_px, double camera_height,
                                      double boundary_height, int stride) {
  // Robust two-term score: a trimmed mean (the worst 10% of columns —
  // occlusions, missed detections — are softened) plus a fraction of the
  // untrimmed mean so a hypothesis cannot win by writing off whole walls.
  std::vector<double> residuals;
  residuals.reserve(static_cast<std::size_t>(pano_width / stride) + 1);
  double full_acc = 0.0;
  for (int c = 0; c < pano_width; c += stride) {
    const double obs = observed[static_cast<std::size_t>(c)];
    if (std::isnan(obs)) continue;
    const double angle = static_cast<double>(c) / pano_width * common::kTwoPi;
    const double pred = predict_boundary_row(hyp, angle, horizon_row, focal_px,
                                             camera_height, boundary_height);
    const double r = std::min(std::abs(pred - obs), 25.0);
    residuals.push_back(r);
    full_acc += r;
  }
  if (residuals.empty()) return 1e9;
  const std::size_t keep =
      std::max<std::size_t>(1, residuals.size() - residuals.size() * 10 / 100);
  std::nth_element(residuals.begin(), residuals.begin() + (keep - 1),
                   residuals.end());
  double acc = 0.0;
  for (std::size_t i = 0; i < keep; ++i) acc += residuals[i];
  return acc / static_cast<double>(keep) +
         0.25 * full_acc / static_cast<double>(residuals.size());
}

/// Data-driven seed hypotheses: per-column boundary rows become a metric
/// point cloud around the camera; for a sweep of orientations, a percentile
/// bounding rectangle of the cloud seeds the sampler. The random 20k-model
/// sweep still runs, but it no longer has to find a 5-parameter needle.
[[nodiscard]] std::vector<LayoutHypothesis> seed_hypotheses(
    const std::vector<double>& observed, int pano_width, double horizon_row,
    double focal_px, double camera_height, double boundary_height,
    double min_side, double max_side) {
  std::vector<geometry::Vec2> cloud;
  for (int c = 0; c < pano_width; ++c) {
    const double obs = observed[static_cast<std::size_t>(c)];
    if (std::isnan(obs) || obs <= horizon_row + 1.0) continue;
    const double dist =
        focal_px * (camera_height - boundary_height) / (obs - horizon_row);
    if (dist <= 0.2 || dist > 30.0) continue;
    const double angle = static_cast<double>(c) / pano_width * common::kTwoPi;
    cloud.push_back(geometry::Vec2::from_angle(angle) * dist);
  }
  std::vector<LayoutHypothesis> seeds;
  if (cloud.size() < 16) return seeds;
  for (int deg = 0; deg < 90; deg += 3) {
    const double theta = common::deg2rad(deg);
    std::vector<double> us;
    std::vector<double> vs;
    us.reserve(cloud.size());
    vs.reserve(cloud.size());
    for (const auto p : cloud) {
      const auto q = p.rotated(-theta);
      us.push_back(q.x);
      vs.push_back(q.y);
    }
    std::sort(us.begin(), us.end());
    std::sort(vs.begin(), vs.end());
    auto pct = [](const std::vector<double>& v, double q) {
      return v[static_cast<std::size_t>(q * (v.size() - 1))];
    };
    LayoutHypothesis hyp;
    const double u_lo = pct(us, 0.04);
    const double u_hi = pct(us, 0.96);
    const double v_lo = pct(vs, 0.04);
    const double v_hi = pct(vs, 0.96);
    hyp.width = std::clamp(u_hi - u_lo, min_side, max_side);
    hyp.depth = std::clamp(v_hi - v_lo, min_side, max_side);
    hyp.orientation = theta;
    // Camera sits at the cloud origin; the room center is the box midpoint.
    hyp.camera_offset = {-(u_lo + u_hi) / 2.0, -(v_lo + v_hi) / 2.0};
    seeds.push_back(hyp);
  }
  return seeds;
}

/// One random layout model drawn from the paper's 5-parameter sampling
/// distribution; pulled out so the serial and sharded sweeps share it.
[[nodiscard]] LayoutHypothesis sample_hypothesis(common::Rng& rng,
                                                 const LayoutConfig& config) {
  LayoutHypothesis hyp;
  hyp.width = rng.uniform(config.min_side, config.max_side);
  hyp.depth = rng.uniform(config.min_side, config.max_side);
  hyp.orientation = rng.uniform(0.0, common::kPi / 2.0);
  hyp.camera_offset = {
      hyp.width * rng.uniform(-config.max_center_offset, config.max_center_offset),
      hyp.depth * rng.uniform(-config.max_center_offset, config.max_center_offset)};
  return hyp;
}

}  // namespace

std::optional<RoomLayout> estimate_layout(const imaging::Image& panorama,
                                          const LayoutConfig& config,
                                          common::ThreadPool* pool) {
  if (panorama.empty()) return std::nullopt;
  const int w = panorama.width();
  const int h = panorama.height();
  const double focal =
      config.focal_px > 0 ? config.focal_px : w / common::kTwoPi;
  const double horizon_row = h / 2.0 - focal * std::tan(config.pitch);
  const auto observed = detect_floor_boundary(panorama, horizon_row);
  const auto valid =
      std::count_if(observed.begin(), observed.end(),
                    [](double v) { return !std::isnan(v); });
  const double coverage = static_cast<double>(valid) / w;
  if (coverage < 0.4) return std::nullopt;

  const int stride = std::max(1, w / 128);  // ~128 scored columns

  // Corner evidence (Fig. 5): vertical wall-joint lines on the panorama.
  const auto corners = config.corner_weight > 0
                           ? detect_corner_columns(panorama)
                           : std::vector<double>{};
  auto scored_error = [&](const LayoutHypothesis& hyp, int score_stride) {
    double err = hypothesis_error(hyp, observed, w, horizon_row, focal,
                                  config.camera_height,
                                  config.boundary_height, score_stride);
    if (config.corner_weight > 0 && !corners.empty()) {
      err += config.corner_weight *
             std::min(corner_cost(corners, predict_corner_columns(hyp, w), w),
                      40.0);
    }
    return err;
  };

  LayoutHypothesis best;
  double best_err = std::numeric_limits<double>::max();
  if (config.use_seed_hypotheses) {
    for (const auto& seed : seed_hypotheses(observed, w, horizon_row, focal,
                                            config.camera_height,
                                            config.boundary_height,
                                            config.min_side, config.max_side)) {
      const double err = scored_error(seed, stride);
      if (err < best_err) {
        best_err = err;
        best = seed;
      }
    }
  }

  // Random sweep over config.hypotheses models (the paper's 20,000). The
  // sampling stream is untouched by parallelism: every model is drawn up
  // front from the single Rng(seed) sequence — sampling is a handful of
  // uniform draws per model, while the per-column scoring dominates — and
  // only the scoring fans out, in scoring_shards contiguous index slices
  // reduced by an (error, global index) argmin. Any shard count on any
  // thread count (including no pool) therefore reproduces the serial
  // pre-parallelism sweep bit for bit.
  common::Rng rng(config.seed);
  std::vector<LayoutHypothesis> models;
  models.reserve(static_cast<std::size_t>(std::max(config.hypotheses, 0)));
  for (int k = 0; k < config.hypotheses; ++k) {
    models.push_back(sample_hypothesis(rng, config));
  }

  struct ShardBest {
    double err = std::numeric_limits<double>::max();
    std::size_t index = std::numeric_limits<std::size_t>::max();
  };
  const std::size_t shards = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::max(config.scoring_shards, 1)), 1,
      std::max<std::size_t>(models.size(), 1));
  std::vector<ShardBest> shard_best(shards);
  common::parallel_for(pool, shards, [&](std::size_t s) {
    const std::size_t begin = models.size() * s / shards;
    const std::size_t end = models.size() * (s + 1) / shards;
    ShardBest local;
    for (std::size_t k = begin; k < end; ++k) {
      const double err = scored_error(models[k], stride);
      if (err < local.err) {
        local.err = err;
        local.index = k;
      }
    }
    shard_best[s] = local;
  });
  for (const ShardBest& sb : shard_best) {
    // Strict less in shard (= global index) order: ties keep the lowest
    // global index, exactly what the serial ascending-k pass picks.
    if (sb.index != std::numeric_limits<std::size_t>::max() &&
        sb.err < best_err) {
      best_err = sb.err;
      best = models[sb.index];
    }
  }
  if (best_err > 1e8) return std::nullopt;

  // Local refinement of the winner: shrinking random perturbations. Serial
  // by design (each round perturbs the current winner); `rng` continues the
  // sweep's sampling sequence, so refinement draws are also unchanged.
  double radius = 0.35;
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < 60; ++k) {
      LayoutHypothesis hyp = best;
      hyp.width = std::clamp(hyp.width * (1.0 + rng.uniform(-radius, radius)),
                             config.min_side, config.max_side);
      hyp.depth = std::clamp(hyp.depth * (1.0 + rng.uniform(-radius, radius)),
                             config.min_side, config.max_side);
      hyp.orientation = common::wrap_angle_2pi(
          hyp.orientation + rng.uniform(-radius, radius) * 0.5);
      if (hyp.orientation >= common::kPi / 2.0) {
        hyp.orientation = std::fmod(hyp.orientation, common::kPi / 2.0);
      }
      hyp.camera_offset.x += hyp.width * rng.uniform(-radius, radius) * 0.3;
      hyp.camera_offset.y += hyp.depth * rng.uniform(-radius, radius) * 0.3;
      const double err = scored_error(hyp, 1);
      if (err < best_err) {
        best_err = err;
        best = hyp;
      }
    }
    radius *= 0.5;
  }

  RoomLayout layout;
  layout.width = best.width;
  layout.depth = best.depth;
  layout.orientation = best.orientation;
  layout.camera_offset = best.camera_offset;
  layout.score = 1.0 / (1.0 + best_err);
  layout.coverage = coverage;
  return layout;
}

}  // namespace crowdmap::room
