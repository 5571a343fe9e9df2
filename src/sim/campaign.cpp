#include "sim/campaign.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "common/thread_pool.hpp"

namespace crowdmap::sim {

namespace {

// One planned upload: the choices drawn from the campaign's shared stream.
struct UploadJob {
  const RoomSpec* room = nullptr;  // nullptr = hallway-only walk
  bool junk = false;               // hallway walks only
  Lighting lighting;
};

// Trims IMU samples recorded after `cutoff` (synchronized streams share the
// video clock, so a timestamp comparison is the whole truncation).
void trim_imu_after(SensorRichVideo& video, double cutoff) {
  auto& samples = video.imu.samples;
  while (!samples.empty() && samples.back().t > cutoff) samples.pop_back();
}

// Damages one upload per the adversarial plan. `adv_rng` is a dedicated
// per-video stream: the base campaign never observes these draws.
void apply_adversarial(SensorRichVideo& video, const AdversarialOptions& adv,
                       common::Rng adv_rng) {
  if (adv_rng.chance(adv.truncate_fraction) &&
      video.frames.size() > adv.min_keep_frames) {
    const double frac = adv_rng.uniform(0.4, 0.8);
    const std::size_t keep = std::max(
        adv.min_keep_frames,
        static_cast<std::size_t>(frac *
                                 static_cast<double>(video.frames.size())));
    if (keep < video.frames.size()) {
      video.frames.resize(keep);
      trim_imu_after(video, video.frames.back().t);
    }
  }
  if (adv_rng.chance(adv.dropout_fraction) && !video.frames.empty()) {
    // The camera keeps rolling but the IMU dies partway through.
    const double span = video.frames.back().t - video.frames.front().t;
    const double cutoff =
        video.frames.front().t + adv_rng.uniform(0.5, 0.9) * span;
    trim_imu_after(video, cutoff);
  }
}

}  // namespace

void generate_campaign_streaming(
    const FloorPlanSpec& spec, const CampaignOptions& options, std::uint64_t seed,
    const std::function<void(SensorRichVideo&&)>& sink) {
  const Scene scene = Scene::from_spec(spec, seed);

  common::Rng rng(seed);
  // One persistent simulator per user so per-user sensor biases persist
  // across that user's uploads.
  std::vector<UserSimulator> users;
  users.reserve(static_cast<std::size_t>(std::max(options.users, 1)));
  for (int u = 0; u < std::max(options.users, 1); ++u) {
    SimOptions sim = options.sim;
    // Per-user gait variation.
    common::Rng user_rng = rng.stream(0x5EED0000u + static_cast<std::uint64_t>(u));
    sim.walk_speed *= user_rng.uniform(0.85, 1.15);
    sim.step_frequency *= user_rng.uniform(0.92, 1.08);
    users.emplace_back(scene, spec, sim, user_rng.fork());
  }

  // Phase 1: every draw from the shared stream, in campaign order — room
  // visits, then hallway walks (junk coin before lighting). The job's index
  // is its campaign-wide upload id: each simulator numbers its own videos
  // from 0, which would collide across users, and the cloud side (and the S2
  // memo cache) relies on upload identity being unique.
  auto lighting = [&rng, &options] {
    return rng.chance(options.night_fraction) ? Lighting::night()
                                              : Lighting::day();
  };
  std::vector<UploadJob> jobs;
  for (const auto& room : spec.rooms) {
    for (int k = 0; k < options.room_videos_per_room; ++k) {
      jobs.push_back({&room, false, lighting()});
    }
  }
  for (int k = 0; k < options.hallway_walks; ++k) {
    const bool junk = rng.chance(options.junk_fraction);
    jobs.push_back({nullptr, junk, lighting()});
  }

  // Phase 2: users take uploads round-robin, so round r (ids [r*U, (r+1)*U))
  // holds one upload per user. Each simulator owns its stream and the scene
  // is read-only, so a round's uploads render independently; a user's next
  // upload waits for the round barrier.
  const std::size_t round = users.size();
  std::size_t threads = options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = std::min(threads, round);
  std::unique_ptr<common::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<common::ThreadPool>(threads - 1);

  std::vector<SensorRichVideo> slots(round);
  for (std::size_t first = 0; first < jobs.size(); first += round) {
    const std::size_t count = std::min(round, jobs.size() - first);
    common::parallel_for(pool.get(), count, [&](std::size_t u) {
      const UploadJob& job = jobs[first + u];
      UserSimulator& user = users[u];
      SensorRichVideo video =
          job.room != nullptr
              ? user.room_visit(*job.room, options.hallway_distance,
                                job.lighting)
          : job.junk ? user.junk_video(job.lighting)
                     : user.hallway_walk(job.lighting);
      video.user_id = static_cast<int>(u);
      video.video_id = static_cast<int>(first + u);
      if (options.adversarial.enabled()) {
        apply_adversarial(video, options.adversarial,
                          rng.stream(0xADB10000u + first + u));
      }
      slots[u] = std::move(video);
    });
    // Moved out of its slot first so the round's frames are freed as they
    // are consumed, whatever the sink keeps.
    for (std::size_t u = 0; u < count; ++u) {
      SensorRichVideo video = std::move(slots[u]);
      sink(std::move(video));
    }
  }
}

Campaign generate_campaign(const FloorPlanSpec& spec,
                           const CampaignOptions& options, std::uint64_t seed) {
  Campaign campaign;
  campaign.spec = spec;
  campaign.scene = Scene::from_spec(spec, seed);
  generate_campaign_streaming(spec, options, seed,
                              [&campaign](SensorRichVideo&& video) {
                                campaign.videos.push_back(std::move(video));
                              });
  return campaign;
}

}  // namespace crowdmap::sim
