// CrowdMapService — the assembled cloud backend (paper §IV.2): chunked
// uploads land in the document store through the ingestion service; a worker
// pool extracts trajectories asynchronously (the Spark-cluster stand-in);
// floor plans are built per (building, floor) by incremental planners that
// reuse content-addressed artifacts across refreshes (docs/INCREMENTAL.md).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/docstore.hpp"
#include "cloud/durable_store.hpp"
#include "cloud/ingest.hpp"
#include "common/annotations.hpp"
#include "common/thread_pool.hpp"
#include "core/incremental.hpp"
#include "core/pipeline.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "storage/env.hpp"

namespace crowdmap::cloud {

/// Decodes an upload payload into a sensor-rich video. The service is
/// format-agnostic: the deployment supplies the codec (the simulation
/// harness passes videos by side table; a production system would decode
/// the zipped recording).
using VideoDecoder =
    std::function<std::optional<sim::SensorRichVideo>(const Document&)>;

/// Snapshot of the service's health counters. A view over the service's
/// MetricsRegistry — stats() reads the same counters the Prometheus export
/// reports, so the two can never disagree.
struct ServiceStats {
  std::size_t uploads_completed = 0;
  std::size_t uploads_rejected = 0;
  std::size_t videos_decoded = 0;
  std::size_t decode_failures = 0;
  std::size_t trajectories_extracted = 0;
  std::size_t trajectories_dropped = 0;
  /// Injected sensor dropouts applied before extraction (chaos runs only).
  std::size_t sensor_dropouts = 0;
  /// The ingest front door's own counters (session lifecycle, chunk-level
  /// rejects/duplicates, quarantine traffic).
  IngestStats ingest;
  /// Artifact-cache totals summed over every floor's planner (zeros when
  /// caching is disabled via config.incremental.artifact_cache_bytes == 0).
  cache::ArtifactCacheStats artifact_cache;
  /// Warm-start snapshots rejected as truncated/corrupt (the service fell
  /// back to a cold build for those floors instead of failing).
  std::size_t cache_warmstart_rejected = 0;
  /// Durable-store facts (enabled == false when config.storage.dir is
  /// empty; all other fields are then zero).
  DurabilityStats durability;
};

/// End-to-end backend: ingestion -> async feature extraction -> per-floor
/// incremental reconstruction. Thread-safe.
class CrowdMapService {
 public:
  /// `registry` defaults to a fresh service-local registry; pass a shared
  /// one to co-locate several services behind one exporter endpoint.
  /// `storage_env` (borrowed, must outlive the service) overrides the
  /// filesystem the durable store writes through — tests pass a FaultEnv;
  /// nullptr uses the real posix env. Ignored when config.storage.dir is
  /// empty (persistence disabled, the historical in-memory behavior).
  CrowdMapService(core::PipelineConfig config, VideoDecoder decoder,
                  std::size_t workers = 2,
                  std::shared_ptr<obs::MetricsRegistry> registry = nullptr,
                  storage::Env* storage_env = nullptr);

  /// Opens an upload session (the Task-1 geo-spatial annotation).
  void open_session(const std::string& upload_id, const std::string& building,
                    int floor);

  /// Delivers one chunk; completed uploads are decoded and feature-extracted
  /// on the worker pool.
  IngestStatus deliver(const Chunk& chunk);

  /// Chunk indices a pending upload still needs (retransmit round); see
  /// IngestService::missing_chunks for the budget semantics.
  [[nodiscard]] std::vector<std::uint32_t> missing_chunks(
      const std::string& upload_id);

  /// Replication/rebalance seam (crowdmap::cluster): admits an already
  /// reassembled upload document as if its final chunk had just cleared
  /// ingestion — store put plus async decode/extraction. Bypasses the
  /// chunked front door: replication is a reliable internal transport, so
  /// ingest chunk faults never re-fire for replicated copies, keeping the
  /// client-facing fault interrogations once-per-upload across the cluster.
  /// Idempotent per document id (the store put replaces, planner admission
  /// dedupes by video id).
  void ingest_document(const Document& doc);

  /// Blocks until every queued extraction (and background refresh) has
  /// finished.
  void drain();

  /// Builds the floor plan for one (building, floor) from every trajectory
  /// extracted so far. Drains first, then refreshes that floor's planner:
  /// artifacts untouched by new uploads replay from the cache, so repeat
  /// builds cost O(delta), not O(corpus), while the returned plan stays
  /// byte-identical to a cold rebuild.
  [[nodiscard]] core::PipelineResult build_floor_plan(
      const std::string& building, int floor,
      const std::optional<core::WorldFrame>& frame = std::nullopt)
      CM_EXCLUDES(mutex_);

  /// The last complete plan for one floor without forcing a rebuild: what a
  /// read-path endpoint serves while ingestion (and, with
  /// config.incremental.background_refresh, the refresh itself) proceeds in
  /// the background. Null before the floor's first refresh.
  [[nodiscard]] std::shared_ptr<const core::PipelineResult> latest_plan(
      const std::string& building, int floor) const CM_EXCLUDES(mutex_);

  /// Admitted trajectories of one floor, sorted by video_id (the canonical
  /// refresh order). Call drain() first if extractions may be in flight.
  [[nodiscard]] std::vector<trajectory::Trajectory> trajectories(
      const std::string& building, int floor) const CM_EXCLUDES(mutex_);

  /// Snapshots one floor's artifact cache into this service's document store
  /// (a reserved system document; invisible to upload queries). Returns
  /// false when that floor has no planner or caching is disabled.
  bool persist_artifact_cache(const std::string& building, int floor)
      CM_EXCLUDES(mutex_);

  /// Warms per-floor artifact caches from snapshots previously written by
  /// persist_artifact_cache() into `store` (typically a restarted service
  /// pointing at its predecessor's store). Malformed snapshots are skipped,
  /// not fatal. Returns the number of artifacts restored.
  std::size_t warm_artifact_cache_from(const DocumentStore& store)
      CM_EXCLUDES(mutex_);

  /// Replays the durable store back into memory (docs/DURABILITY.md): opens
  /// the log, restores snapshot + WAL with damaged tail records quarantined,
  /// warms per-floor artifact caches from recovered snapshots, re-dispatches
  /// extraction for every recovered upload (planner ingest is idempotent by
  /// video_id), and attaches the journal so new mutations persist. Call once
  /// before serving traffic; never throws. Errors ("storage.disabled" when
  /// config.storage.dir is empty, manifest corruption, env failures) come
  /// back through the Expected.
  common::Expected<storage::RecoveryReport> recover_from_storage()
      CM_EXCLUDES(mutex_);

  /// Drains in-flight work, snapshots every floor's artifact cache into the
  /// store, then checkpoints the durable log (snapshot + segment
  /// compaction). The clean-shutdown path; also callable mid-flight.
  storage::Status checkpoint_storage() CM_EXCLUDES(mutex_);

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const DocumentStore& store() const noexcept { return store_; }

  /// Service-level metrics: per-upload ingest/decode/extract counters, the
  /// worker-pool queue-depth gauge, extraction and task latency histograms,
  /// and (shared with the planners) the pipeline's stage/cache metrics.
  [[nodiscard]] obs::MetricsRegistry& metrics() const noexcept {
    return *registry_;
  }
  [[nodiscard]] const std::shared_ptr<obs::MetricsRegistry>& metrics_registry()
      const noexcept {
    return registry_;
  }

  /// The service-wide flight recorder: one set of rings behind ingest, the
  /// worker pool and every floor's refresh pipelines. nullptr when
  /// config.flight.enabled == false.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() noexcept {
    return flight_.get();
  }

 private:
  using FloorKey = std::pair<std::string, int>;

  /// Runs on the ingest thread; hands decode + extraction to the pool. The
  /// extraction task admits the trajectory into the floor's planner.
  void on_upload_complete(const Document& doc) CM_EXCLUDES(mutex_);

  /// The pool half of on_upload_complete, shared with recovery replay
  /// (which re-dispatches stored uploads without re-counting completions).
  void dispatch_extraction(const Document& doc) CM_EXCLUDES(mutex_);

  /// The floor's planner, created on first use (shares the service registry
  /// and borrows the worker pool). The returned reference is stable:
  /// planners are never destroyed while the service lives.
  core::IncrementalPlanner& planner_for(const FloorKey& key)
      CM_EXCLUDES(mutex_);

  /// The pool one upload's extraction and a floor's refresh fan their work
  /// out over: the service pool, or nullptr when the config demands serial
  /// execution (parallel.threads == 1).
  [[nodiscard]] common::ThreadPool* fan_out_pool() noexcept {
    return config_.parallel.threads != 1 && pool_.worker_count() > 0 ? &pool_
                                                                     : nullptr;
  }

  /// Coalesced background refresh: at most one pending refresh task per
  /// floor; admissions while one runs schedule exactly one more.
  void schedule_refresh(const FloorKey& key) CM_EXCLUDES(mutex_);

  core::PipelineConfig config_;
  VideoDecoder decoder_;
  DocumentStore store_;
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* uploads_completed_ = nullptr;
  obs::Counter* uploads_rejected_ = nullptr;
  obs::Counter* videos_decoded_ = nullptr;
  obs::Counter* decode_failures_ = nullptr;
  obs::Counter* trajectories_extracted_ = nullptr;
  obs::Counter* trajectories_dropped_ = nullptr;
  obs::Counter* sensor_dropouts_ = nullptr;
  obs::Counter* cache_warmstart_rejected_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Histogram* extract_seconds_ = nullptr;
  /// Declared before pool_ (and destroyed after it): the pool's queue
  /// observer records into these rings from worker threads until the pool
  /// joins in ~CrowdMapService.
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::SloWatchdog> watchdog_;
  /// Declared after store_/flight_ (borrows both) and before pool_: worker
  /// threads journal through it until the pool joins, and its destructor
  /// detaches from the still-live store.
  std::unique_ptr<DurableDocumentStore> durable_;
  /// Service-side chaos plan (decode.fail, extract.sensor_dropout); armed
  /// from config.faults, disarmed (zero-cost) by default.
  common::FaultInjector faults_;

  mutable common::Mutex mutex_;
  // One incremental planner per (building, floor) — each owns that floor's
  // corpus and artifact cache. The mutex and both maps are declared before
  // pool_ (and so destroyed after it joins): extraction/refresh tasks
  // reach planner_for() until the last worker exits — a service torn down
  // with work still queued (the cluster's node-crash fault) must join first.
  std::map<FloorKey, std::unique_ptr<core::IncrementalPlanner>> planners_
      CM_GUARDED_BY(mutex_);
  std::map<FloorKey, bool> refresh_pending_ CM_GUARDED_BY(mutex_);
  common::ThreadPool pool_;
  std::unique_ptr<IngestService> ingest_;
};

}  // namespace crowdmap::cloud
