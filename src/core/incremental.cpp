#include "core/incremental.hpp"

#include <algorithm>
#include <chrono>

#include "core/stage_artifacts.hpp"

namespace crowdmap::core {

namespace {

constexpr StageInfo kStageDag[] = {
    {"decode", "upload payload", "-"},
    {"extract", "decode", "- (corpus admission; hashed once)"},
    {"aggregate", "extract (all trajectories)", "pair"},
    {"skeleton", "aggregate (placed poses)", "skeleton"},
    {"rooms", "aggregate, extract (key-frames)", "room"},
    {"arrange", "rooms, skeleton", "arrange"},
};

}  // namespace

std::span<const StageInfo> stage_dag() noexcept { return kStageDag; }

IncrementalPlanner::IncrementalPlanner(
    PipelineConfig config, std::shared_ptr<obs::MetricsRegistry> registry)
    : config_(std::move(config)),
      registry_(registry ? std::move(registry)
                         : std::make_shared<obs::MetricsRegistry>()) {
  if (config_.incremental.artifact_cache_bytes > 0) {
    cache_ = std::make_unique<cache::ArtifactCache>(
        config_.incremental.artifact_cache_bytes);
    if (config_.faults.armed()) {
      cache_faults_.arm(config_.faults);
      cache_->set_fault_injector(&cache_faults_);
    }
  }
  if (config_.flight.enabled) {
    // One recorder for the planner's whole life: refresh N's events stay in
    // the rings next to refresh N+1's, which is exactly what a post-mortem
    // of "the plan got worse after that upload" needs.
    obs::FlightOptions opts;
    opts.ring_capacity = config_.flight.ring_capacity;
    opts.dump_on_anomaly = config_.flight.dump_on_anomaly;
    flight_ = std::make_unique<obs::FlightRecorder>(opts);
  }
  refresh_hist_ = &registry_->histogram(
      "crowdmap_plan_refresh_seconds", {},
      obs::Histogram::default_latency_buckets(),
      "Wall-clock latency of one incremental floor-plan refresh");
}

bool IncrementalPlanner::ingest(trajectory::Trajectory traj) {
  if (!CrowdMapPipeline::passes_quality_gates(traj, config_)) return false;
  // Hash before taking the lock: content keying is the per-upload cost that
  // replaces the per-corpus rebuild, and it parallelizes across uploads.
  const cache::ArtifactKey key =
      cache_ ? trajectory_content_key(traj) : cache::ArtifactKey{};
  common::MutexLock lock(mutex_);
  // Idempotent by video_id: re-submitting an upload (retry storms, replays
  // after crash recovery) replaces the earlier extraction instead of
  // duplicating a trajectory — the corpus converges to one entry per video.
  for (auto& [existing, existing_key] : corpus_) {
    if (existing.video_id == traj.video_id) {
      existing = std::move(traj);
      existing_key = key;
      return true;
    }
  }
  corpus_.emplace_back(std::move(traj), key);
  return true;
}

std::shared_ptr<const PipelineResult> IncrementalPlanner::refresh(
    const std::optional<WorldFrame>& frame) {
  common::MutexLock refresh_lock(refresh_mutex_);

  std::vector<std::pair<trajectory::Trajectory, cache::ArtifactKey>> corpus;
  {
    common::MutexLock lock(mutex_);
    corpus = corpus_;
  }
  // Refresh order is video_id order regardless of arrival interleaving —
  // the foundation of the incremental == batch property.
  std::stable_sort(corpus.begin(), corpus.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.video_id < b.first.video_id;
                   });

  // A fresh pipeline per refresh is the config hoist: the *expensive*
  // persistent state (artifact cache, hashed corpus) lives in the planner,
  // while per-run state (trace, fault serial) starts clean so a refresh is
  // indistinguishable from a cold pipeline fed the same corpus.
  CrowdMapPipeline pipeline(config_, registry_);
  pipeline.set_artifact_cache(cache_.get());
  if (pool_ != nullptr) pipeline.set_thread_pool(pool_);
  if (obs::FlightRecorder* flight = flight_recorder(); flight != nullptr) {
    pipeline.set_flight_recorder(flight);
  }
  for (auto& [traj, key] : corpus) {
    pipeline.ingest_trajectory(std::move(traj), key);
  }
  const auto started = std::chrono::steady_clock::now();
  auto result = std::make_shared<PipelineResult>(pipeline.run(frame));
  refresh_hist_->observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count());

  {
    common::MutexLock lock(mutex_);
    latest_ = result;
  }
  return result;
}

std::shared_ptr<const PipelineResult> IncrementalPlanner::latest() const {
  common::MutexLock lock(mutex_);
  return latest_;
}

std::vector<trajectory::Trajectory> IncrementalPlanner::trajectories() const {
  std::vector<trajectory::Trajectory> out;
  {
    common::MutexLock lock(mutex_);
    out.reserve(corpus_.size());
    for (const auto& [traj, key] : corpus_) out.push_back(traj);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const trajectory::Trajectory& a,
                      const trajectory::Trajectory& b) {
                     return a.video_id < b.video_id;
                   });
  return out;
}

std::size_t IncrementalPlanner::corpus_size() const {
  common::MutexLock lock(mutex_);
  return corpus_.size();
}

}  // namespace crowdmap::core
