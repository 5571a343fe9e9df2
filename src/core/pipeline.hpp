// CrowdMapPipeline — the public API of the system (paper §II): ingest
// sensor-rich videos, then run the three cloud sub-processes (indoor path
// modeling, room layout modeling, floor plan modeling) and return the
// reconstructed floor plan with diagnostics.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "common/expected.hpp"
#include "common/fault.hpp"
#include "common/thread_pool.hpp"
#include "core/config.hpp"
#include "floorplan/floorplan.hpp"
#include "mapping/occupancy.hpp"
#include "geometry/pose2.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/user_sim.hpp"
#include "trajectory/aggregate.hpp"

namespace crowdmap::core {

/// Optional output frame: the evaluation harness passes the rigid transform
/// aligning the pipeline's arbitrary global frame onto ground truth plus the
/// ground-truth grid, so output rasters are directly comparable (the paper
/// overlays reconstructions on the surveyed plan the same way).
struct WorldFrame {
  geometry::Pose2 global_to_world;
  geometry::Aabb extent;
};

/// Artifact-cache traffic of one run: how much of each stage was served
/// from the content-addressed cache instead of recomputed. All zeros when no
/// cache is attached (cold runs) — reuse never changes the result bytes,
/// only where they came from.
struct CacheReuseStats {
  std::size_t pairs_reused = 0;
  std::size_t pairs_total = 0;
  std::size_t rooms_reused = 0;
  std::size_t rooms_total = 0;
  bool skeleton_reused = false;
  bool arrange_reused = false;
  std::uint64_t artifact_hits = 0;    // this run's lookups that hit
  std::uint64_t artifact_misses = 0;  // this run's lookups that missed
  /// Entries the shared cache dropped (FIFO pressure, fault-forced evicts)
  /// over its lifetime up to the end of this run.
  std::uint64_t artifact_invalidations = 0;

  [[nodiscard]] std::string to_string() const;
};

/// Per-stage wall-clock timings and data-quality counters. Since the
/// observability layer landed this is a *view*: run() computes it from the
/// pipeline's MetricsRegistry counters and the trace span durations rather
/// than from ad-hoc member fields.
struct PipelineDiagnostics {
  std::size_t videos_ingested = 0;
  std::size_t trajectories_kept = 0;
  std::size_t trajectories_dropped = 0;   // unqualified-data filter
  std::size_t trajectories_placed = 0;    // in the main aggregated component
  std::size_t match_edges = 0;
  std::size_t panoramas_attempted = 0;
  std::size_t panoramas_stitched = 0;
  std::size_t rooms_reconstructed = 0;
  double extract_seconds = 0.0;
  double aggregate_seconds = 0.0;
  double skeleton_seconds = 0.0;
  double rooms_seconds = 0.0;
  double arrange_seconds = 0.0;
  /// Always 0 (S2 scores are not memoized); perfbench still reads them.
  std::size_t s2_cache_hits = 0;
  std::size_t s2_cache_misses = 0;
  /// Artifact-cache reuse during this run (all zeros when detached).
  CacheReuseStats cache;
};

/// One reconstructed room before floor-plan merge, with provenance.
struct ReconstructedRoom {
  room::RoomLayout layout;
  geometry::Vec2 camera_global;   // where the panorama was taken
  geometry::Vec2 center_global;   // implied room center
  double orientation_global = 0.0;
  std::size_t trajectory_index = 0;
  int true_room_id = -1;          // evaluation only
};

/// One degradation decision made during a run: a stage (or one work item of
/// a stage) failed and the pipeline substituted a reduced result instead of
/// aborting. Events are merged in stage/item order, so the list is
/// deterministic at any thread count.
struct DegradationEvent {
  std::string stage;   // "aggregate", "skeleton", "panorama", "layout", ...
  common::Error error; // code "fault.injected" or "stage.exception"
  std::string detail;  // item identity ("candidate 3 of trajectory 7")
  /// What the pipeline did about it.
  enum class Action { kSalvaged, kLost, kSkipped } action = Action::kLost;
};

/// Itemized account of what a degraded run salvaged and lost — the paper's
/// crowdsourcing premise means partial results beat no results, but only if
/// the caller can see what is missing.
struct DegradationReport {
  std::vector<DegradationEvent> events;
  std::size_t rooms_lost = 0;       // candidates that produced no room
  std::size_t rooms_salvaged = 0;   // single-keyframe fallback layouts
  std::size_t uploads_lost_decode = 0;  // filled in by CrowdMapService
  std::size_t sensor_dropouts = 0;      // filled in by CrowdMapService

  [[nodiscard]] bool degraded() const noexcept {
    return !events.empty() || uploads_lost_decode > 0 || sensor_dropouts > 0;
  }
  /// Canonical one-line-per-event rendering; byte-stable across runs and
  /// thread counts, so chaos tests compare reports with string equality.
  [[nodiscard]] std::string to_string() const;
};

/// Full pipeline result.
struct PipelineResult {
  floorplan::FloorPlan plan;
  trajectory::AggregationResult aggregation;
  mapping::PathSkeleton skeleton;
  /// The accumulated occupancy evidence (coverage analysis reads it).
  mapping::OccupancyGrid occupancy{geometry::Aabb{{0, 0}, {1, 1}}, 1.0};
  std::vector<ReconstructedRoom> rooms;
  PipelineDiagnostics diagnostics;
  /// What this run salvaged/lost under faults; empty on a clean run.
  DegradationReport degradation;
  /// Span tree of this pipeline's lifetime: per-upload "extract" spans plus
  /// one "run" span with the stage spans beneath it.
  obs::SpanRecord trace;
};

/// The reconstruction engine. INTERNAL-ONLY construction: code outside src/
/// goes through api::Client (src/api/crowdmap.hpp), or through
/// core::IncrementalPlanner for embedded use, rather than building pipelines
/// directly — the facade owns corpus management, artifact caching and
/// degradation reporting, and is the surface the compatibility guarantees
/// cover. Direct construction outside src/ is flagged by the crowdmap_lint
/// `pipeline-construction` rule.
class CrowdMapPipeline {
 public:
  /// `registry` defaults to a fresh per-pipeline registry so counters don't
  /// bleed across runs; pass a shared one to aggregate several pipelines.
  explicit CrowdMapPipeline(PipelineConfig config = {},
                            std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

  /// Ingests one upload: extracts the trajectory (dead reckoning +
  /// key-frames) and discards the raw pixels. Unqualified uploads (too few
  /// key-frames, implausible motion) are filtered here. Extraction fans out
  /// over worker_pool(), so parallel.threads == 1 keeps it serial.
  void ingest(const sim::SensorRichVideo& video);

  /// Ingests a pre-extracted trajectory (e.g. from a stored dataset).
  void ingest_trajectory(trajectory::Trajectory traj);

  /// Ingest with a precomputed content key (IncrementalPlanner hashes each
  /// trajectory once at corpus admission instead of per run).
  void ingest_trajectory(trajectory::Trajectory traj,
                         const cache::ArtifactKey& content_key);

  /// The unqualified-data gates ingest_trajectory applies, as a pure
  /// predicate — CrowdMapService uses the same one so its kept-upload list
  /// matches the pipeline's exactly.
  [[nodiscard]] static bool passes_quality_gates(
      const trajectory::Trajectory& traj, const PipelineConfig& config);

  /// Runs aggregation, skeleton reconstruction, room layout modeling and
  /// force-directed arrangement over everything ingested so far. The
  /// parallel stages are bit-deterministic: the same config produces the
  /// same result at any thread count (see docs/PERFORMANCE.md).
  [[nodiscard]] PipelineResult run(
      const std::optional<WorldFrame>& frame = std::nullopt);

  /// Shares an external worker pool (e.g. CrowdMapService's extraction pool)
  /// instead of the pipeline lazily creating its own from
  /// config.parallel.threads. Not owned; must outlive the pipeline. Pass
  /// nullptr to return to the config-driven pool.
  void set_thread_pool(common::ThreadPool* pool) noexcept {
    external_pool_ = pool;
  }

  /// Attaches a content-addressed artifact cache (docs/INCREMENTAL.md): the
  /// pair, room, skeleton and arrange seams then consult it before
  /// recomputing. Not owned; must outlive the pipeline; nullptr detaches.
  /// Reuse is byte-transparent — results are identical with or without it.
  void set_artifact_cache(cache::ArtifactCache* cache) noexcept {
    artifact_cache_ = cache;
  }

  /// Shares an external flight recorder (IncrementalPlanner keeps one across
  /// the fresh pipelines it builds per refresh) instead of the owned one the
  /// pipeline creates when config.flight.enabled. Not owned; must outlive
  /// the pipeline; nullptr returns to the owned recorder.
  void set_flight_recorder(obs::FlightRecorder* flight) noexcept;

  /// The effective flight recorder: the external one if shared, else the
  /// config-built owned one, else nullptr (flight.enabled = false).
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const noexcept {
    return external_flight_ != nullptr ? external_flight_ : owned_flight_.get();
  }

  /// The pool ingest() and run() fan work out on: the external pool if one
  /// was shared, else a lazily created config-sized pool, else nullptr when
  /// config.parallel.threads == 1 (serial legacy execution).
  [[nodiscard]] common::ThreadPool* worker_pool();

  [[nodiscard]] const std::vector<trajectory::Trajectory>& trajectories()
      const noexcept {
    return trajectories_;
  }
  [[nodiscard]] const PipelineConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t dropped_count() const noexcept {
    return trajectories_dropped_->value() - dropped_baseline_;
  }

  /// The pipeline's metrics registry (counters, stage latency histograms).
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return *registry_;
  }
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>& metrics_registry()
      const noexcept {
    return registry_;
  }
  /// Live trace; PipelineResult::trace is its snapshot at the end of run().
  [[nodiscard]] const obs::Trace& trace() const noexcept { return *trace_; }

  /// The realized fault plan (disarmed unless config.faults has settings).
  [[nodiscard]] const common::FaultInjector& fault_injector() const noexcept {
    return faults_;
  }

 private:
  [[nodiscard]] obs::Histogram& stage_histogram(const char* stage);
  /// Counter of injected fires for one fault point (labelled by point name).
  [[nodiscard]] obs::Counter& fault_counter(common::FaultPoint point);

  PipelineConfig config_;
  std::vector<trajectory::Trajectory> trajectories_;
  /// Content key per kept trajectory ({0,0} = not yet hashed; run() fills
  /// missing keys lazily when an artifact cache is attached).
  std::vector<cache::ArtifactKey> content_keys_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  std::shared_ptr<obs::Trace> trace_;
  common::ThreadPool* external_pool_ = nullptr;
  std::unique_ptr<common::ThreadPool> owned_pool_;
  cache::ArtifactCache* artifact_cache_ = nullptr;
  std::unique_ptr<obs::FlightRecorder> owned_flight_;
  obs::FlightRecorder* external_flight_ = nullptr;
  obs::Counter* videos_ingested_ = nullptr;
  obs::Counter* trajectories_kept_ = nullptr;
  obs::Counter* trajectories_dropped_ = nullptr;
  obs::Counter* trajectories_placed_ = nullptr;
  obs::Counter* match_edges_ = nullptr;
  obs::Counter* panoramas_attempted_ = nullptr;
  obs::Counter* panoramas_stitched_ = nullptr;
  obs::Counter* rooms_reconstructed_ = nullptr;
  obs::Counter* stages_degraded_ = nullptr;
  common::FaultInjector faults_;
  /// Ingest-counter values at construction: a shared registry carries other
  /// pipelines' traffic, and diagnostics report this pipeline's delta only.
  std::uint64_t ingested_baseline_ = 0;
  std::uint64_t kept_baseline_ = 0;
  std::uint64_t dropped_baseline_ = 0;
  /// run() invocations so far; keys whole-stage fault decisions so repeated
  /// runs of one pipeline see independent (but reproducible) outcomes.
  std::uint64_t run_serial_ = 0;
};

}  // namespace crowdmap::core
