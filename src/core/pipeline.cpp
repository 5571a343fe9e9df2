#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/log.hpp"
#include "common/simd.hpp"
#include "core/stage_artifacts.hpp"
#include "mapping/occupancy.hpp"

namespace crowdmap::core {

namespace {

/// Runs one stage body under the fault/exception policy: an injected fault
/// or a thrown exception becomes an Error the caller degrades on, instead of
/// tearing down the whole reconstruction.
template <typename Fn>
auto run_guarded(common::FaultInjector& faults, common::FaultPoint point,
                 std::uint64_t key, const char* stage, Fn&& fn)
    -> common::Expected<std::invoke_result_t<Fn>> {
  if (faults.should_fire(point, key)) {
    return common::make_error(
        "fault.injected", std::string(common::fault_point_name(point)));
  }
  try {
    return fn();
  } catch (const std::exception& e) {
    return common::make_error(std::string(stage) + ".exception", e.what());
  }
}

const char* action_name(DegradationEvent::Action action) {
  switch (action) {
    case DegradationEvent::Action::kSalvaged: return "salvaged";
    case DegradationEvent::Action::kLost: return "lost";
    case DegradationEvent::Action::kSkipped: return "skipped";
  }
  return "?";
}

}  // namespace

std::string CacheReuseStats::to_string() const {
  std::ostringstream out;
  out << "cache: pairs " << pairs_reused << "/" << pairs_total << " rooms "
      << rooms_reused << "/" << rooms_total << " skeleton "
      << (skeleton_reused ? "reused" : "computed") << " arrange "
      << (arrange_reused ? "reused" : "computed") << " hits=" << artifact_hits
      << " misses=" << artifact_misses
      << " invalidations=" << artifact_invalidations;
  return out.str();
}

std::string DegradationReport::to_string() const {
  std::ostringstream out;
  out << "degradation: events=" << events.size()
      << " rooms_lost=" << rooms_lost << " rooms_salvaged=" << rooms_salvaged
      << " uploads_lost_decode=" << uploads_lost_decode
      << " sensor_dropouts=" << sensor_dropouts;
  for (const auto& ev : events) {
    out << "\n  [" << ev.stage << "] " << ev.error.code << " ("
        << ev.error.message << ") " << ev.detail << " -> "
        << action_name(ev.action);
  }
  return out.str();
}

PipelineConfig PipelineConfig::fast_profile() {
  PipelineConfig config;
  // The paper's 20,000-hypothesis sweep stays in config.layout; the test
  // profile declares its 10x fidelity cut through the explicit cap instead of
  // silently overwriting the sampled-model count.
  config.layout_hypothesis_cap = 2000;
  config.stitch.output_width = 512;
  config.stitch.output_height = 128;
  return config;
}

CrowdMapPipeline::CrowdMapPipeline(PipelineConfig config,
                                   std::shared_ptr<obs::MetricsRegistry> registry)
    : config_(std::move(config)),
      registry_(registry ? std::move(registry)
                         : std::make_shared<obs::MetricsRegistry>()),
      trace_(std::make_shared<obs::Trace>("pipeline")) {
  // Process-wide dispatch switches; both are result-invariant (SimdConfig).
  common::simd::set_force_scalar(config_.simd.force_scalar);
  common::simd::set_match_tile(config_.simd.match_tile);
  videos_ingested_ = &registry_->counter(
      "crowdmap_videos_ingested_total", {}, "Uploads presented to the pipeline");
  trajectories_kept_ = &registry_->counter(
      "crowdmap_trajectories_kept_total", {},
      "Trajectories surviving the unqualified-data filter");
  trajectories_dropped_ = &registry_->counter(
      "crowdmap_trajectories_dropped_total", {},
      "Uploads rejected by the unqualified-data filter");
  trajectories_placed_ = &registry_->counter(
      "crowdmap_trajectories_placed_total", {},
      "Trajectories placed in the main aggregated component");
  match_edges_ = &registry_->counter(
      "crowdmap_match_edges_total", {}, "Accepted pairwise match edges");
  panoramas_attempted_ = &registry_->counter(
      "crowdmap_panoramas_attempted_total", {}, "SRS panorama stitch attempts");
  panoramas_stitched_ = &registry_->counter(
      "crowdmap_panoramas_stitched_total", {},
      "Panoramas with sufficient angular coverage");
  rooms_reconstructed_ = &registry_->counter(
      "crowdmap_rooms_reconstructed_total", {},
      "Rooms surviving layout estimation and dedup");
  stages_degraded_ = &registry_->counter(
      "crowdmap_pipeline_degradation_events_total", {},
      "Stage failures the pipeline degraded through instead of aborting");
  // With a shared registry (IncrementalPlanner builds a fresh pipeline per
  // refresh against the service's registry) the ingest counters carry prior
  // pipelines' traffic; diagnostics must report this pipeline's share only.
  ingested_baseline_ = videos_ingested_->value();
  kept_baseline_ = trajectories_kept_->value();
  dropped_baseline_ = trajectories_dropped_->value();
  faults_.arm(config_.faults);
  if (config_.flight.enabled) {
    obs::FlightOptions flight_options;
    flight_options.ring_capacity = config_.flight.ring_capacity;
    flight_options.dump_on_anomaly = config_.flight.dump_on_anomaly;
    owned_flight_ = std::make_unique<obs::FlightRecorder>(flight_options);
    owned_flight_->set_dump_on_anomaly(config_.flight.dump_on_anomaly);
    trace_->set_flight_recorder(owned_flight_.get());
  }
}

void CrowdMapPipeline::set_flight_recorder(obs::FlightRecorder* flight) noexcept {
  external_flight_ = flight;
  trace_->set_flight_recorder(flight_recorder());
}

obs::Counter& CrowdMapPipeline::fault_counter(common::FaultPoint point) {
  return registry_->counter(
      "crowdmap_faults_injected_total",
      {{"point", std::string(common::fault_point_name(point))}},
      "Fault-point fires injected by the chaos plan");
}

common::ThreadPool* CrowdMapPipeline::worker_pool() {
  if (external_pool_ != nullptr) return external_pool_;
  if (owned_pool_) return owned_pool_.get();
  std::size_t threads = config_.parallel.threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  // threads counts the calling thread, so a pool only pays off above 1; the
  // serial path (no pool) is the exact legacy execution order.
  if (threads <= 1) return nullptr;
  owned_pool_ = std::make_unique<common::ThreadPool>(threads - 1);
  return owned_pool_.get();
}

obs::Histogram& CrowdMapPipeline::stage_histogram(const char* stage) {
  return registry_->histogram("crowdmap_stage_seconds", {{"stage", stage}}, {},
                              "Per-stage wall-clock latency");
}

void CrowdMapPipeline::ingest(const sim::SensorRichVideo& video) {
  auto span = trace_->scoped("extract");
  trajectory::Trajectory traj =
      trajectory::extract_trajectory(video, config_.extraction, worker_pool());
  stage_histogram("extract").observe(span.end());
  ingest_trajectory(std::move(traj));
}

bool CrowdMapPipeline::passes_quality_gates(const trajectory::Trajectory& traj,
                                            const PipelineConfig& config) {
  // Unqualified-data gates ("divide and conquer" filtering, §I challenge 1).
  const bool too_few_frames = traj.keyframes.size() < config.min_keyframes;
  const bool no_motion =
      sensors::track_length(traj.points) < config.min_track_length &&
      traj.keyframes.size() < 8;  // SRS-only clips are legitimately stationary
  return !(too_few_frames || no_motion);
}

void CrowdMapPipeline::ingest_trajectory(trajectory::Trajectory traj) {
  ingest_trajectory(std::move(traj), cache::ArtifactKey{});
}

void CrowdMapPipeline::ingest_trajectory(trajectory::Trajectory traj,
                                         const cache::ArtifactKey& content_key) {
  videos_ingested_->increment();
  if (!passes_quality_gates(traj, config_)) {
    trajectories_dropped_->increment();
    CROWDMAP_LOG(kInfo, "pipeline")
        << "dropped unqualified upload video_id=" << traj.video_id
        << " keyframes=" << traj.keyframes.size();
    return;
  }
  trajectories_kept_->increment();
  trajectories_.push_back(std::move(traj));
  content_keys_.push_back(content_key);
}

PipelineResult CrowdMapPipeline::run(const std::optional<WorldFrame>& frame) {
  PipelineResult result;
  // Counters are cumulative over the pipeline's lifetime; remember the
  // starting values so the diagnostics view reports this run's deltas.
  const std::uint64_t placed_before = trajectories_placed_->value();
  const std::uint64_t edges_before = match_edges_->value();
  const std::uint64_t attempted_before = panoramas_attempted_->value();
  const std::uint64_t stitched_before = panoramas_stitched_->value();
  const std::uint64_t rooms_before = rooms_reconstructed_->value();
  const auto& fault_points = common::all_fault_points();
  std::vector<std::uint64_t> fires_before(fault_points.size());
  for (std::size_t i = 0; i < fires_before.size(); ++i) {
    fires_before[i] = faults_.fires(fault_points[i]);
  }

  // Whole-stage fault decisions key on the run ordinal so repeated runs of
  // one pipeline see independent (but reproducible) outcomes.
  const std::uint64_t run_key = run_serial_++;

  // Artifact-cache bookkeeping. Traffic is counted in per-run atomics (the
  // cache object may be shared by other pipelines, so global-counter deltas
  // would misattribute), and invalidations are reported from a start/end
  // snapshot — exact in the planner's one-refresh-at-a-time usage.
  cache::ArtifactCache* artifacts = artifact_cache_;
  std::atomic<std::uint64_t> artifact_hits{0};
  std::atomic<std::uint64_t> artifact_misses{0};
  std::atomic<std::size_t> pairs_reused{0};
  std::atomic<std::size_t> rooms_reused{0};
  bool skeleton_reused = false;
  bool arrange_reused = false;
  std::size_t rooms_total = 0;
  const std::uint64_t invalidations_before =
      artifacts != nullptr ? artifacts->invalidations() : 0;
  if (artifacts != nullptr) {
    // Content keys for trajectories ingested without one (hashing is cheap
    // relative to any cached stage, and each slot is independent).
    common::ThreadPool* pool = worker_pool();
    common::parallel_for(pool, trajectories_.size(), [&](std::size_t i) {
      if (content_keys_[i] == cache::ArtifactKey{}) {
        content_keys_[i] = trajectory_content_key(trajectories_[i]);
      }
    });
  }

  // Flight recording: stage boundaries advance the recorder's logical tick
  // (the deterministic half of every event's dual stamp), and the shared
  // artifact cache mirrors its traffic into this run's recorder. Detached
  // again before returning — the cache may outlive a pipeline-owned recorder.
  obs::FlightRecorder* flight = flight_recorder();
  if (artifacts != nullptr) artifacts->set_flight_recorder(flight);
  if (flight != nullptr) flight->advance_tick();

  // Degradation bookkeeping: every substituted result is itemized so the
  // caller can tell a clean plan from a salvaged one. Only ever called from
  // the orchestrating thread (parallel stages merge their event slots here),
  // so the flight events it records are deterministic.
  const auto push_event = [&](DegradationEvent event) {
    CROWDMAP_LOG(kWarn, "pipeline")
        << "degraded stage " << event.stage << ": " << event.error.code << " ("
        << event.error.message << ") " << event.detail << " -> "
        << action_name(event.action);
    stages_degraded_->increment();
    if (flight != nullptr) {
      flight->record_named(obs::FlightEventKind::kDegradation, 0, event.stage,
                           flight->intern(event.detail));
    }
    result.degradation.events.push_back(std::move(event));
  };
  const auto record = [&](const char* stage, common::Error error,
                          std::string detail, DegradationEvent::Action action) {
    DegradationEvent event;
    event.stage = stage;
    event.error = std::move(error);
    event.detail = std::move(detail);
    event.action = action;
    push_event(std::move(event));
  };

  auto run_span = trace_->scoped("run");

  // ---- Sub-process 1a: key-frame based trajectory aggregation (§III.B.I).
  {
    auto span = trace_->scoped("aggregate");
    auto aggregated = run_guarded(
        faults_, common::faults::kStageAggregateFail, run_key, "aggregate",
        [&] {
          trajectory::AggregationRuntime agg_runtime;
          agg_runtime.pool = worker_pool();
          if (artifacts != nullptr) {
            agg_runtime.pair_lookup =
                [&](std::size_t i,
                    std::size_t j) -> std::optional<trajectory::PairDecision> {
              const cache::ArtifactKey key = pair_decision_key(
                  content_keys_[i], content_keys_[j], config_.aggregation);
              if (auto payload =
                      artifacts->lookup(cache::Family::kPairMatch, key)) {
                if (auto decision = decode_pair_decision(*payload)) {
                  artifact_hits.fetch_add(1, std::memory_order_relaxed);
                  pairs_reused.fetch_add(1, std::memory_order_relaxed);
                  return decision;
                }
              }
              artifact_misses.fetch_add(1, std::memory_order_relaxed);
              return std::nullopt;
            };
            agg_runtime.pair_store = [&](std::size_t i, std::size_t j,
                                         const trajectory::PairDecision& d) {
              artifacts->insert(
                  cache::Family::kPairMatch,
                  pair_decision_key(content_keys_[i], content_keys_[j],
                                    config_.aggregation),
                  encode_pair_decision(d));
            };
          }
          return trajectory::aggregate_trajectories(
              trajectories_, config_.aggregation, agg_runtime);
        });
    if (artifacts != nullptr) {
      const std::size_t n = trajectories_.size();
      trace_->annotate("cache",
                       std::to_string(pairs_reused.load()) + "/" +
                           std::to_string(n > 1 ? n * (n - 1) / 2 : 0));
    }
    if (aggregated.ok()) {
      result.aggregation = std::move(aggregated).take();
    } else {
      // No placements: downstream stages see an all-unplaced run and the
      // result degenerates to an empty (but well-formed) plan.
      result.aggregation.global_pose.assign(trajectories_.size(),
                                            std::nullopt);
      record("aggregate", aggregated.error(), "whole stage",
             DegradationEvent::Action::kLost);
    }
    result.diagnostics.aggregate_seconds = span.end();
    stage_histogram("aggregate").observe(result.diagnostics.aggregate_seconds);
  }
  if (flight != nullptr) flight->advance_tick();
  trajectories_placed_->increment(result.aggregation.placed_count);
  match_edges_->increment(result.aggregation.edges.size());

  // Transform into the output frame (identity unless the caller provided an
  // alignment).
  const geometry::Pose2 to_world =
      frame ? frame->global_to_world : geometry::Pose2{};

  // Collect placed points to size the occupancy grid.
  std::vector<geometry::Vec2> all_points;
  for (std::size_t i = 0; i < trajectories_.size(); ++i) {
    if (!result.aggregation.global_pose[i]) continue;
    for (const auto& p : trajectories_[i].points) {
      all_points.push_back(
          to_world.apply(result.aggregation.global_pose[i]->apply(p.position)));
    }
  }

  geometry::Aabb extent;
  if (frame) {
    extent = frame->extent;
  } else if (!all_points.empty()) {
    extent = {{std::numeric_limits<double>::max(), std::numeric_limits<double>::max()},
              {std::numeric_limits<double>::lowest(), std::numeric_limits<double>::lowest()}};
    for (const auto p : all_points) {
      extent.min.x = std::min(extent.min.x, p.x);
      extent.min.y = std::min(extent.min.y, p.y);
      extent.max.x = std::max(extent.max.x, p.x);
      extent.max.y = std::max(extent.max.y, p.y);
    }
    extent = extent.expanded(3.0);
  } else {
    extent = {{0, 0}, {10, 10}};
  }

  // ---- Sub-process 1b: floor path skeleton reconstruction (§III.B.II).
  {
    auto span = trace_->scoped("skeleton");
    struct SkeletonOut {
      mapping::OccupancyGrid grid;
      mapping::PathSkeleton skeleton;
    };
    auto skeletonized = run_guarded(
        faults_, common::faults::kStageSkeletonFail, run_key, "skeleton", [&] {
          // Rasterization is cheap and always runs; the cache covers the
          // expensive binarize + alpha-shape + repair work behind it, keyed
          // on the grid *content* so any input change that rasterizes
          // identically still reuses the skeleton.
          mapping::OccupancyGrid grid(extent, config_.grid_cell_size);
          for (std::size_t i = 0; i < trajectories_.size(); ++i) {
            if (!result.aggregation.global_pose[i]) continue;
            std::vector<geometry::Vec2> pts;
            pts.reserve(trajectories_[i].points.size());
            for (const auto& p : trajectories_[i].points) {
              pts.push_back(to_world.apply(
                  result.aggregation.global_pose[i]->apply(p.position)));
            }
            grid.add_polyline(pts, config_.trajectory_brush_width);
          }
          std::optional<cache::ArtifactKey> key;
          if (artifacts != nullptr) {
            key = skeleton_key(grid, config_.skeleton);
            if (auto payload = artifacts->lookup(cache::Family::kSkeleton, *key)) {
              if (auto cached = decode_skeleton(*payload)) {
                artifact_hits.fetch_add(1, std::memory_order_relaxed);
                skeleton_reused = true;
                return SkeletonOut{std::move(grid), std::move(*cached)};
              }
            }
            artifact_misses.fetch_add(1, std::memory_order_relaxed);
          }
          auto skeleton = mapping::reconstruct_skeleton(grid, config_.skeleton);
          if (key) {
            artifacts->insert(cache::Family::kSkeleton, *key,
                              encode_skeleton(skeleton));
          }
          return SkeletonOut{std::move(grid), std::move(skeleton)};
        });
    if (artifacts != nullptr) {
      trace_->annotate("cache", skeleton_reused ? "hit" : "miss");
    }
    if (skeletonized.ok()) {
      result.occupancy = std::move(skeletonized.value().grid);
      result.skeleton = std::move(skeletonized.value().skeleton);
    } else {
      // Rooms-only output: an *empty but correctly-sized* grid and skeleton
      // stand in (not the 1x1 placeholders), so downstream raster
      // comparisons stay cell-compatible; room reconstruction proceeds from
      // the aggregation placements.
      result.occupancy = mapping::OccupancyGrid(extent, config_.grid_cell_size);
      result.skeleton.raster =
          geometry::BoolRaster(extent, config_.grid_cell_size);
      result.skeleton.binarized =
          geometry::BoolRaster(extent, config_.grid_cell_size);
      record("skeleton", skeletonized.error(), "whole stage",
             DegradationEvent::Action::kLost);
    }
    result.diagnostics.skeleton_seconds = span.end();
    stage_histogram("skeleton").observe(result.diagnostics.skeleton_seconds);
  }
  if (flight != nullptr) flight->advance_tick();

  // ---- Sub-process 2: room layout modeling (§III.C).
  {
    auto span = trace_->scoped("rooms");
    // Candidate discovery is cheap and order-defining; run it serially, then
    // fan the expensive stitch + layout search out per candidate. Each item
    // writes only its own slot, and slots merge in discovery order, so the
    // room list is identical at any thread count.
    struct RoomItem {
      std::size_t traj_index;
      room::PanoramaCandidate candidate;
    };
    std::vector<RoomItem> items;
    for (std::size_t i = 0; i < trajectories_.size(); ++i) {
      if (!result.aggregation.global_pose[i]) continue;
      for (auto& cand : room::find_panorama_candidates(trajectories_[i],
                                                       config_.panorama_select)) {
        items.push_back({i, std::move(cand)});
      }
    }

    room::LayoutConfig base_layout = config_.layout;
    if (config_.layout_hypothesis_cap > 0) {
      base_layout.hypotheses =
          std::min(base_layout.hypotheses, config_.layout_hypothesis_cap);
    }
    common::ThreadPool* rooms_pool = worker_pool();
    rooms_total = items.size();
    // Cache bypass under per-item chaos: a cached hit would skip this item's
    // fault interrogations and change which items a budgeted plan fires on,
    // so armed panorama/layout faults force the live path for every item.
    const bool room_faults_armed =
        faults_.point_armed(common::faults::kStagePanoramaFail) ||
        faults_.point_armed(common::faults::kStageLayoutFail);

    std::vector<std::optional<ReconstructedRoom>> slots(items.size());
    // Per-item degradation events land in slots too, merged in discovery
    // order below, so the report is identical at any thread count.
    std::vector<std::optional<DegradationEvent>> event_slots(items.size());
    common::parallel_for(rooms_pool, items.size(), [&](std::size_t idx) {
      const auto& [i, cand] = items[idx];
      const auto& traj = trajectories_[i];
      // Stable per-item fault key: (run ordinal, discovery index).
      const std::uint64_t item_key = common::hash_combine(run_key, idx);
      const auto item_detail = [&] {
        return "candidate " + std::to_string(idx) + " of trajectory " +
               std::to_string(i);
      };
      const auto fail_item = [&](common::Error error,
                                 DegradationEvent::Action action) {
        DegradationEvent event;
        event.stage = "panorama";
        event.error = std::move(error);
        event.detail = item_detail();
        event.action = action;
        event_slots[idx] = std::move(event);
      };

      // Effective vertical focal of the panorama (see DESIGN.md).
      const auto focal_for = [&](const room::PanoramaCandidate& c) {
        room::LayoutConfig layout_config = base_layout;
        if (layout_config.focal_px <= 0 && !c.keyframe_indices.empty()) {
          const auto& kf = traj.keyframes[c.keyframe_indices.front()];
          const double frame_focal =
              kf.gray.width() / (2.0 * std::tan(config_.stitch.fov / 2.0));
          layout_config.focal_px =
              frame_focal * static_cast<double>(config_.stitch.output_height) /
              std::max(kf.gray.height(), 1);
        }
        return layout_config;
      };
      const auto place_room = [&](const room::RoomLayout& layout) {
        ReconstructedRoom rec;
        rec.layout = layout;
        rec.trajectory_index = i;
        rec.true_room_id = traj.true_room_id;
        const geometry::Pose2 place =
            to_world.compose(*result.aggregation.global_pose[i]);
        rec.camera_global = place.apply(cand.cell_center);
        // Room center = camera - (camera offset in the room frame rotated
        // into the panorama frame and then into the world frame).
        const geometry::Vec2 offset_pano =
            rec.layout.camera_offset.rotated(rec.layout.orientation);
        rec.center_global =
            rec.camera_global - offset_pano.rotated(place.theta);
        rec.orientation_global = rec.layout.orientation + place.theta;
        slots[idx] = rec;
      };

      try {
        panoramas_attempted_->increment();
        // Content-addressed reuse of this candidate's stitch + layout work.
        // The artifact replays the counter increments and layout outcome the
        // live path would produce; placement below stays live (it depends on
        // the aggregation poses and is cheap).
        std::optional<cache::ArtifactKey> item_cache_key;
        if (artifacts != nullptr && !room_faults_armed) {
          item_cache_key = room_artifact_key(content_keys_[i], cand,
                                             config_.stitch, focal_for(cand));
          if (auto payload =
                  artifacts->lookup(cache::Family::kRoom, *item_cache_key)) {
            if (auto artifact = decode_room_artifact(*payload)) {
              artifact_hits.fetch_add(1, std::memory_order_relaxed);
              rooms_reused.fetch_add(1, std::memory_order_relaxed);
              if (artifact->stitched) panoramas_stitched_->increment();
              if (artifact->has_layout) place_room(artifact->layout);
              return;
            }
          }
          artifact_misses.fetch_add(1, std::memory_order_relaxed);
        }
        if (faults_.should_fire(common::faults::kStagePanoramaFail,
                                item_key)) {
          // The full stitch "failed": salvage what a single key-frame can
          // still say about the room instead of dropping the candidate.
          const common::Error error = common::make_error(
              "fault.injected",
              std::string(common::fault_point_name(
                  common::faults::kStagePanoramaFail)));
          if (cand.keyframe_indices.empty()) {
            fail_item(error, DegradationEvent::Action::kLost);
            return;
          }
          room::PanoramaCandidate fallback = cand;
          fallback.keyframe_indices = {
              cand.keyframe_indices[cand.keyframe_indices.size() / 2]};
          const auto pano =
              room::stitch_candidate(traj, fallback, config_.stitch);
          const auto layout =
              room::estimate_layout(pano.image, focal_for(fallback),
                                    rooms_pool);
          if (!layout) {
            fail_item(error, DegradationEvent::Action::kLost);
            return;
          }
          place_room(*layout);
          fail_item(error, DegradationEvent::Action::kSalvaged);
          return;
        }
        const auto pano = room::stitch_candidate(traj, cand, config_.stitch);
        RoomArtifact artifact;
        if (pano.coverage < 0.95) {
          // Negative results are artifacts too: an uncoverable candidate
          // stays uncoverable, so the next refresh skips the stitch as well.
          if (item_cache_key) {
            artifacts->insert(cache::Family::kRoom, *item_cache_key,
                              encode_room_artifact(artifact));
          }
          return;
        }
        artifact.stitched = true;
        panoramas_stitched_->increment();
        if (faults_.should_fire(common::faults::kStageLayoutFail, item_key)) {
          DegradationEvent event;
          event.stage = "layout";
          event.error = common::make_error(
              "fault.injected", std::string(common::fault_point_name(
                                    common::faults::kStageLayoutFail)));
          event.detail = item_detail();
          event.action = DegradationEvent::Action::kLost;
          event_slots[idx] = std::move(event);
          return;
        }
        const auto layout =
            room::estimate_layout(pano.image, focal_for(cand), rooms_pool);
        if (layout) {
          artifact.has_layout = true;
          artifact.layout = *layout;
        }
        if (item_cache_key) {
          artifacts->insert(cache::Family::kRoom, *item_cache_key,
                            encode_room_artifact(artifact));
        }
        if (!layout) return;
        place_room(*layout);
      } catch (const std::exception& e) {
        slots[idx].reset();
        fail_item(common::make_error("panorama.exception", e.what()),
                  DegradationEvent::Action::kLost);
      }
    });
    for (auto& slot : slots) {
      if (slot) result.rooms.push_back(std::move(*slot));
    }
    for (auto& event : event_slots) {
      if (!event) continue;
      if (event->action == DegradationEvent::Action::kSalvaged) {
        ++result.degradation.rooms_salvaged;
      } else {
        ++result.degradation.rooms_lost;
      }
      push_event(std::move(*event));
    }
    // Room dedup: nearby implied centers are the same room; best score wins.
    std::sort(result.rooms.begin(), result.rooms.end(),
              [](const ReconstructedRoom& a, const ReconstructedRoom& b) {
                return a.layout.score > b.layout.score;
              });
    std::vector<ReconstructedRoom> unique_rooms;
    for (const auto& rec : result.rooms) {
      const bool duplicate = std::any_of(
          unique_rooms.begin(), unique_rooms.end(), [&](const ReconstructedRoom& u) {
            return u.center_global.distance_to(rec.center_global) <
                   config_.room_merge_distance;
          });
      if (!duplicate) unique_rooms.push_back(rec);
    }
    result.rooms = std::move(unique_rooms);
    rooms_reconstructed_->increment(result.rooms.size());
    if (artifacts != nullptr) {
      trace_->annotate("cache", std::to_string(rooms_reused.load()) + "/" +
                                    std::to_string(rooms_total));
    }
    result.diagnostics.rooms_seconds = span.end();
    stage_histogram("rooms").observe(result.diagnostics.rooms_seconds);
  }
  if (flight != nullptr) flight->advance_tick();

  // ---- Sub-process 3: floor plan modeling (§III.D).
  {
    auto span = trace_->scoped("arrange");
    // Anchor placement (pre-arrangement): also the arrange seam's key input.
    const auto build_plan = [&] {
      floorplan::FloorPlan plan;
      plan.hallway = result.skeleton.raster;
      for (const auto& rec : result.rooms) {
        floorplan::PlacedRoom placed;
        placed.center = rec.center_global;
        placed.anchor = rec.center_global;
        placed.width = rec.layout.width;
        placed.depth = rec.layout.depth;
        placed.orientation = rec.orientation_global;
        placed.true_room_id = rec.true_room_id;
        placed.layout_score = rec.layout.score;
        plan.rooms.push_back(placed);
      }
      return plan;
    };
    auto arranged = run_guarded(
        faults_, common::faults::kStageArrangeFail, run_key, "arrange", [&] {
          floorplan::FloorPlan plan = build_plan();
          std::optional<cache::ArtifactKey> key;
          if (artifacts != nullptr) {
            key = arrange_key(plan.rooms, plan.hallway, config_.arrange);
            if (auto payload =
                    artifacts->lookup(cache::Family::kArrange, *key)) {
              if (auto cached = decode_placed_rooms(*payload);
                  cached && cached->size() == plan.rooms.size()) {
                artifact_hits.fetch_add(1, std::memory_order_relaxed);
                arrange_reused = true;
                plan.rooms = std::move(*cached);
                return plan;
              }
            }
            artifact_misses.fetch_add(1, std::memory_order_relaxed);
          }
          floorplan::arrange_rooms(plan.rooms, plan.hallway, config_.arrange);
          if (key) {
            artifacts->insert(cache::Family::kArrange, *key,
                              encode_placed_rooms(plan.rooms));
          }
          return plan;
        });
    if (artifacts != nullptr) {
      trace_->annotate("cache", arrange_reused ? "hit" : "miss");
    }
    if (arranged.ok()) {
      result.plan = std::move(arranged).take();
    } else {
      // Rooms stay at their panorama-implied anchors: overlapping but
      // complete beats arranged but absent.
      result.plan = build_plan();
      record("arrange", arranged.error(), "rooms left at anchor placement",
             DegradationEvent::Action::kSkipped);
    }
    result.diagnostics.arrange_seconds = span.end();
    stage_histogram("arrange").observe(result.diagnostics.arrange_seconds);
  }
  run_span.end();
  if (flight != nullptr) flight->advance_tick();

  // Flush this run's injected-fire deltas into the labelled fault counters
  // (and the flight recorder — common/ cannot depend on obs/, so fires are
  // recorded here at the flush site rather than inside FaultInjector).
  for (std::size_t i = 0; i < fires_before.size(); ++i) {
    const std::uint64_t delta = faults_.fires(fault_points[i]) - fires_before[i];
    if (delta > 0) {
      fault_counter(fault_points[i]).increment(delta);
      if (flight != nullptr) {
        flight->record_named(obs::FlightEventKind::kFaultFired,
                             static_cast<std::uint32_t>(i),
                             common::fault_point_name(fault_points[i]), delta);
      }
    }
  }

  // Diagnostics view: cumulative counters for ingest-side numbers, this
  // run's deltas for run-side numbers, span durations for stage timings.
  result.trace = trace_->snapshot();
  result.diagnostics.videos_ingested =
      videos_ingested_->value() - ingested_baseline_;
  result.diagnostics.trajectories_kept =
      trajectories_kept_->value() - kept_baseline_;
  result.diagnostics.trajectories_dropped =
      trajectories_dropped_->value() - dropped_baseline_;
  result.diagnostics.trajectories_placed = trajectories_placed_->value() - placed_before;
  result.diagnostics.match_edges = match_edges_->value() - edges_before;
  result.diagnostics.panoramas_attempted =
      panoramas_attempted_->value() - attempted_before;
  result.diagnostics.panoramas_stitched =
      panoramas_stitched_->value() - stitched_before;
  result.diagnostics.rooms_reconstructed =
      rooms_reconstructed_->value() - rooms_before;
  result.diagnostics.extract_seconds = result.trace.total_seconds("extract");

  // Artifact-cache reuse view + metric mirrors.
  {
    const std::size_t n = trajectories_.size();
    CacheReuseStats& cs = result.diagnostics.cache;
    cs.pairs_total = n > 1 ? n * (n - 1) / 2 : 0;
    cs.pairs_reused = pairs_reused.load(std::memory_order_relaxed);
    cs.rooms_total = rooms_total;
    cs.rooms_reused = rooms_reused.load(std::memory_order_relaxed);
    cs.skeleton_reused = skeleton_reused;
    cs.arrange_reused = arrange_reused;
    cs.artifact_hits = artifact_hits.load(std::memory_order_relaxed);
    cs.artifact_misses = artifact_misses.load(std::memory_order_relaxed);
    if (artifacts != nullptr) {
      cs.artifact_invalidations = artifacts->invalidations();
      registry_->counter("crowdmap_artifact_cache_hits_total", {},
                         "Artifact cache hits across the stage seams")
          .increment(cs.artifact_hits);
      registry_->counter("crowdmap_artifact_cache_misses_total", {},
                         "Artifact cache misses across the stage seams")
          .increment(cs.artifact_misses);
      registry_->counter("crowdmap_artifact_cache_invalidations_total", {},
                         "Artifact cache entries dropped (FIFO + fault evicts)")
          .increment(cs.artifact_invalidations - invalidations_before);
      const auto reuse_gauge = [&](const char* stage, double value) {
        registry_->gauge("crowdmap_artifact_stage_reuse",
                         {{"stage", stage}},
                         "Fraction of the stage served from the artifact "
                         "cache in the most recent run")
            .set(value);
      };
      reuse_gauge("pair", cs.pairs_total > 0
                              ? static_cast<double>(cs.pairs_reused) /
                                    static_cast<double>(cs.pairs_total)
                              : 0.0);
      reuse_gauge("room", cs.rooms_total > 0
                              ? static_cast<double>(cs.rooms_reused) /
                                    static_cast<double>(cs.rooms_total)
                              : 0.0);
      reuse_gauge("skeleton", cs.skeleton_reused ? 1.0 : 0.0);
      reuse_gauge("arrange", cs.arrange_reused ? 1.0 : 0.0);
    }
  }
  // Detach the recorder from the shared cache: the cache can outlive this
  // pipeline (and with it a pipeline-owned recorder).
  if (artifacts != nullptr) artifacts->set_flight_recorder(nullptr);
  return result;
}

}  // namespace crowdmap::core
