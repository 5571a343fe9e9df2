// Locks in the invariant the lint rules and thread-safety annotations exist
// to protect: a seeded pipeline is a pure function of (spec, seed, config).
// Two independent in-process runs — fresh pipeline, fresh pool, fresh caches
// — must produce byte-identical serialized FloorPlans, and the thread count
// must not leak into the bytes either.
#include <gtest/gtest.h>

#include <vector>

#include "api/crowdmap.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "floorplan/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"

namespace ap = crowdmap::api;
namespace cc = crowdmap::common;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;

namespace {

/// One complete seeded run: build the campaign, ingest, reconstruct, and
/// return the serialized floor plan. Everything (building layout, user
/// behaviour, sensor noise, hypothesis sampling) derives from `seed`.
crowdmap::io::Bytes serialized_run(std::uint64_t seed, std::size_t threads) {
  cc::Rng rng(seed);
  const auto spec = cs::random_building(3, rng);
  cs::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 6;
  options.junk_fraction = 0.0;
  options.night_fraction = 0.2;
  options.sim.fps = 3.0;

  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = threads;
  // The bare stage executor is the unit under test here.
  // crowdmap-lint: allow(pipeline-construction)
  co::CrowdMapPipeline pipeline(config);
  cs::generate_campaign_streaming(
      spec, options, seed,
      [&pipeline](cs::SensorRichVideo&& video) { pipeline.ingest(video); });
  return crowdmap::floorplan::encode_floorplan(pipeline.run().plan);
}

std::vector<cs::SensorRichVideo> campaign_videos(std::uint64_t seed) {
  cc::Rng rng(seed);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 4;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  std::vector<cs::SensorRichVideo> out;
  cs::generate_campaign_streaming(spec, options, seed,
                                  [&out](cs::SensorRichVideo&& video) {
                                    out.push_back(std::move(video));
                                  });
  return out;
}

ap::Client client_with_threads(std::size_t threads) {
  ap::ClientOptions options;
  options.config = co::PipelineConfig::fast_profile();
  options.config.parallel.threads = threads;
  return ap::Client(std::move(options));
}

/// Cold rebuild: every upload submitted, one build, no cache history.
std::string cold_plan(const std::vector<cs::SensorRichVideo>& videos,
                      std::size_t threads) {
  auto client = client_with_threads(threads);
  for (const auto& video : videos) {
    if (!client.submit_video(video).status.ok()) return {};
  }
  const auto response = client.build_plan(
      {videos.front().building, videos.front().floor, std::nullopt});
  const auto bytes = crowdmap::floorplan::encode_floorplan(response.result.plan);
  return std::string(bytes.begin(), bytes.end());
}

/// Warm refresh: N-1 uploads built first, then the last upload lands and the
/// planner recomputes only invalidated artifacts.
std::string incremental_plan(const std::vector<cs::SensorRichVideo>& videos,
                             std::size_t threads) {
  auto client = client_with_threads(threads);
  for (std::size_t v = 0; v + 1 < videos.size(); ++v) {
    if (!client.submit_video(videos[v]).status.ok()) return {};
  }
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  (void)client.build_plan({building, floor, std::nullopt});
  if (!client.submit_video(videos.back()).status.ok()) return {};
  const auto response = client.build_plan({building, floor, std::nullopt});
  const auto bytes = crowdmap::floorplan::encode_floorplan(response.result.plan);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

TEST(Determinism, RepeatedRunsSerializeIdentically) {
  const auto first = serialized_run(271, 2);
  const auto second = serialized_run(271, 2);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-for-byte, not approximately
}

TEST(Determinism, ThreadCountDoesNotLeakIntoTheBytes) {
  const auto serial = serialized_run(277, 1);
  const auto pooled = serialized_run(277, 3);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled);
}

TEST(Determinism, DifferentSeedsProduceDifferentPlans) {
  // Guards against the degenerate pass where serialization ignores its input.
  EXPECT_NE(serialized_run(271, 2), serialized_run(911, 2));
}

TEST(Determinism, IncrementalRefreshMatchesColdAtAnyThreadCount) {
  // The artifact cache must be invisible in the output: a warm refresh after
  // one more upload returns the same bytes as a cold rebuild of the full
  // corpus, at every thread count, for multiple seeds.
  for (const std::uint64_t seed : {631u, 912u}) {
    const auto videos = campaign_videos(seed);
    ASSERT_GE(videos.size(), 2u) << "seed " << seed;

    const std::string reference = cold_plan(videos, 1);
    ASSERT_FALSE(reference.empty()) << "seed " << seed;
    EXPECT_EQ(cold_plan(videos, 3), reference) << "seed " << seed;
    EXPECT_EQ(incremental_plan(videos, 1), reference) << "seed " << seed;
    EXPECT_EQ(incremental_plan(videos, 3), reference) << "seed " << seed;
  }
}

TEST(Determinism, ResubmittedUploadMatchesColdRebuild) {
  // An upload re-submitted under an existing video_id with different content
  // replaces the earlier one: the warm refresh must hold no trace of the old
  // content and return the bytes of a cold client fed only the final set.
  for (const std::uint64_t seed : {912u, 77u}) {
    const auto videos = campaign_videos(seed);
    const std::size_t n = videos.size();
    ASSERT_GE(n, 4u) << "seed " << seed;
    const std::string building = videos.front().building;
    const int floor = videos.front().floor;
    for (std::size_t victim = 0; victim < n; ++victim) {
      const std::size_t donor = (victim + 3) % n;
      cs::SensorRichVideo replacement = videos[donor];
      replacement.video_id = videos[victim].video_id;

      auto client = client_with_threads(1);
      std::vector<cs::SensorRichVideo> final_set;
      for (std::size_t v = 0; v < n; ++v) {
        if (v == donor) continue;
        ASSERT_TRUE(client.submit_video(videos[v]).status.ok());
        final_set.push_back(v == victim ? replacement : videos[v]);
      }
      (void)client.build_plan({building, floor, std::nullopt});
      ASSERT_TRUE(client.submit_video(replacement).status.ok());
      const auto response = client.build_plan({building, floor, std::nullopt});
      const auto bytes =
          crowdmap::floorplan::encode_floorplan(response.result.plan);

      EXPECT_EQ(std::string(bytes.begin(), bytes.end()), cold_plan(final_set, 1))
          << "seed " << seed << " victim " << victim;
    }
  }
}
