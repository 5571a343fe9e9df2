// Tests for the api::Client facade: incremental recomputation semantics
// (submission-order independence, warm-vs-cold byte identity, cache reuse
// across rebuilds, persistence warm-start, background refresh), the
// structured Status error model, request-scoped deadlines, the cluster
// topology surface, byte identity against a direct core::IncrementalPlanner
// build, and the 4-submitter-thread regression for the submit critical
// section (docs/API.md).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/crowdmap.hpp"
#include "cloud/docstore.hpp"
#include "common/rng.hpp"
#include "core/incremental.hpp"
#include "floorplan/serialize.hpp"
#include "sensors/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"

namespace api = crowdmap::api;
namespace cs = crowdmap::sim;
namespace co = crowdmap::core;
namespace cc = crowdmap::common;
namespace fp = crowdmap::floorplan;

namespace {

std::vector<cs::SensorRichVideo> tiny_campaign(std::uint64_t seed) {
  std::vector<cs::SensorRichVideo> out;
  cc::Rng rng(seed);
  const auto spec = cs::random_building(2, rng);
  cs::CampaignOptions options;
  options.users = 2;
  options.room_videos_per_room = 1;
  options.hallway_walks = 4;
  options.junk_fraction = 0.0;
  options.sim.fps = 3.0;
  cs::generate_campaign_streaming(spec, options, seed,
                                  [&out](cs::SensorRichVideo&& video) {
                                    out.push_back(std::move(video));
                                  });
  return out;
}

api::Client make_client(
    co::PipelineConfig config = co::PipelineConfig::fast_profile()) {
  api::ClientOptions options;
  options.config = std::move(config);
  return api::Client(std::move(options));
}

api::Client make_client_with_nodes(std::size_t nodes) {
  auto config = co::PipelineConfig::fast_profile();
  config.cluster.nodes = nodes;
  return make_client(std::move(config));
}

std::string plan_bytes(const co::PipelineResult& result) {
  const auto bytes = fp::encode_floorplan(result.plan);
  return std::string(bytes.begin(), bytes.end());
}

}  // namespace

// ------------------------------------------------- incremental semantics ---

TEST(Api, SubmissionOrderDoesNotChangeThePlan) {
  const auto videos = tiny_campaign(810);
  ASSERT_GE(videos.size(), 3u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto forward = make_client();
  for (const auto& video : videos) ASSERT_TRUE(forward.submit_video(video).status.ok());
  const auto plan_fwd = forward.build_plan({building, floor, std::nullopt});

  auto reversed = make_client();
  for (auto it = videos.rbegin(); it != videos.rend(); ++it) {
    ASSERT_TRUE(reversed.submit_video(*it).status.ok());
  }
  const auto plan_rev = reversed.build_plan({building, floor, std::nullopt});

  EXPECT_EQ(plan_bytes(plan_fwd.result), plan_bytes(plan_rev.result));
  EXPECT_EQ(plan_fwd.result.degradation.to_string(),
            plan_rev.result.degradation.to_string());
}

TEST(Api, IncrementalRefreshMatchesColdRebuildByteForByte) {
  const auto videos = tiny_campaign(811);
  ASSERT_GE(videos.size(), 2u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  // Warm path: N-1 uploads, build, then the last upload arrives and we
  // rebuild incrementally.
  auto warm = make_client();
  for (std::size_t v = 0; v + 1 < videos.size(); ++v) {
    ASSERT_TRUE(warm.submit_video(videos[v]).status.ok());
  }
  (void)warm.build_plan({building, floor, std::nullopt});
  ASSERT_TRUE(warm.submit_video(videos.back()).status.ok());
  const auto incremental = warm.build_plan({building, floor, std::nullopt});

  // Cold path: all uploads, one build, no cache history.
  auto cold = make_client();
  for (const auto& video : videos) ASSERT_TRUE(cold.submit_video(video).status.ok());
  const auto scratch = cold.build_plan({building, floor, std::nullopt});

  EXPECT_EQ(plan_bytes(incremental.result), plan_bytes(scratch.result));
  EXPECT_EQ(incremental.result.diagnostics.trajectories_kept,
            scratch.result.diagnostics.trajectories_kept);

  // The refresh replayed prior-corpus pair decisions instead of recomputing.
  EXPECT_GT(incremental.cache.pairs_reused, 0u);
  EXPECT_GT(incremental.cache.artifact_hits, 0u);
  EXPECT_EQ(scratch.cache.artifact_hits, 0u);  // first build is all misses
}

TEST(Api, RepeatBuildReusesEverythingAndKeepsConfigHoisted) {
  // Regression for the per-build config/state rebuild: a second build over
  // an unchanged corpus must replay every cached stage (the planner keeps
  // the artifact cache, S2 memo and hashed corpus across refreshes) and
  // still return the same bytes.
  const auto videos = tiny_campaign(812);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto client = make_client();
  for (const auto& video : videos) ASSERT_TRUE(client.submit_video(video).status.ok());
  const auto first = client.build_plan({building, floor, std::nullopt});
  const auto second = client.build_plan({building, floor, std::nullopt});

  EXPECT_EQ(plan_bytes(first.result), plan_bytes(second.result));
  EXPECT_EQ(second.cache.pairs_reused, second.cache.pairs_total);
  EXPECT_GT(second.cache.rooms_total, 0u);
  EXPECT_EQ(second.cache.rooms_reused, second.cache.rooms_total);
  EXPECT_TRUE(second.cache.skeleton_reused);
  EXPECT_TRUE(second.cache.arrange_reused);
  EXPECT_EQ(second.cache.artifact_misses, 0u);
  // The S2 memo also persists across refreshes now that the planner owns it.
  EXPECT_EQ(second.result.diagnostics.s2_cache_misses, 0u);
}

TEST(Api, PersistedCacheWarmsARestartedBackend) {
  const auto videos = tiny_campaign(813);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto original = make_client();
  for (const auto& video : videos) ASSERT_TRUE(original.submit_video(video).status.ok());
  const auto before = original.build_plan({building, floor, std::nullopt});
  ASSERT_TRUE(original.persist_artifact_cache(building, floor));
  // The snapshot is a reserved system document: floor queries still return
  // only the uploads themselves.
  for (const auto& id :
       original.document_store(0).ids_for_floor(building, floor)) {
    EXPECT_EQ(id.rfind("video-", 0), 0u) << "snapshot leaked into " << id;
  }

  auto restarted = make_client();
  EXPECT_GT(restarted.warm_artifact_cache_from(original.document_store(0)), 0u);
  for (const auto& video : videos) ASSERT_TRUE(restarted.submit_video(video).status.ok());
  const auto after = restarted.build_plan({building, floor, std::nullopt});

  EXPECT_EQ(plan_bytes(before.result), plan_bytes(after.result));
  // First build after the restart already replays warmed artifacts.
  EXPECT_GT(after.cache.artifact_hits, 0u);
  EXPECT_EQ(after.cache.pairs_reused, after.cache.pairs_total);
}

TEST(Api, MalformedCacheSnapshotRejectsCleanlyAndFallsBackCold) {
  // Warm-start resilience (docs/DURABILITY.md): truncated or corrupt CMC1
  // snapshot bytes must produce a clean rejection — counted in
  // crowdmap_cache_warmstart_rejected_total — and the restarted backend
  // must fall back to a cold build that still serializes the same plan.
  const auto videos = tiny_campaign(816);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto original = make_client();
  for (const auto& video : videos) ASSERT_TRUE(original.submit_video(video).status.ok());
  const auto before = original.build_plan({building, floor, std::nullopt});
  ASSERT_TRUE(original.persist_artifact_cache(building, floor));

  // A predecessor store whose snapshot bytes were mangled at rest: one
  // truncated mid-entry, one with the CMC1 magic flipped.
  crowdmap::cloud::DocumentStore truncated_store;
  crowdmap::cloud::DocumentStore corrupted_store;
  std::size_t snapshots_seen = 0;
  for (const auto& doc : original.document_store(0).export_documents()) {
    const auto kind = doc.metadata.find("kind");
    if (kind != doc.metadata.end() && kind->second == "artifact-cache") {
      ++snapshots_seen;
      ASSERT_GT(doc.payload.size(), 8u);
      auto truncated = doc;
      truncated.payload.resize(truncated.payload.size() / 2);
      truncated_store.put(std::move(truncated));
      auto corrupted = doc;
      corrupted.payload[0] ^= 0xFF;
      corrupted_store.put(std::move(corrupted));
    } else {
      truncated_store.put(doc);
      corrupted_store.put(doc);
    }
  }
  ASSERT_EQ(snapshots_seen, 1u);

  auto restarted = make_client();
  EXPECT_EQ(restarted.warm_artifact_cache_from(truncated_store), 0u);
  EXPECT_EQ(restarted.stats().cache_warmstart_rejected, 1u);
  EXPECT_EQ(restarted.warm_artifact_cache_from(corrupted_store), 0u);
  EXPECT_EQ(restarted.stats().cache_warmstart_rejected, 2u);

  // Cold fallback: nothing was warmed, the first build is all misses, and
  // the plan bytes still match the original backend's.
  for (const auto& video : videos) ASSERT_TRUE(restarted.submit_video(video).status.ok());
  const auto after = restarted.build_plan({building, floor, std::nullopt});
  EXPECT_EQ(plan_bytes(before.result), plan_bytes(after.result));
  EXPECT_EQ(after.cache.artifact_hits, 0u);
}

TEST(Api, BackgroundRefreshServesLatestPlanWithoutABuildCall) {
  auto config = co::PipelineConfig::fast_profile();
  config.incremental.background_refresh = true;
  auto client = make_client(std::move(config));

  const auto videos = tiny_campaign(814);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  EXPECT_EQ(client.latest_plan(building, floor), nullptr);
  for (const auto& video : videos) ASSERT_TRUE(client.submit_video(video).status.ok());
  client.drain();

  const auto latest = client.latest_plan(building, floor);
  ASSERT_NE(latest, nullptr);
  EXPECT_GT(latest->diagnostics.trajectories_kept, 0u);

  // A foreground build over the same corpus returns the same bytes the
  // background refresh computed.
  const auto built = client.build_plan({building, floor, std::nullopt});
  EXPECT_EQ(plan_bytes(*latest), plan_bytes(built.result));
}

TEST(Api, DisabledCacheStillBuildsIdenticalPlans) {
  auto config = co::PipelineConfig::fast_profile();
  config.incremental.artifact_cache_bytes = 0;  // caching off
  auto uncached = make_client(config);
  auto cached = make_client(co::PipelineConfig::fast_profile());

  const auto videos = tiny_campaign(815);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;
  for (const auto& video : videos) {
    ASSERT_TRUE(uncached.submit_video(video).status.ok());
    ASSERT_TRUE(cached.submit_video(video).status.ok());
  }
  (void)cached.build_plan({building, floor, std::nullopt});
  const auto warm = cached.build_plan({building, floor, std::nullopt});
  const auto plain = uncached.build_plan({building, floor, std::nullopt});
  (void)uncached.build_plan({building, floor, std::nullopt});

  EXPECT_EQ(plan_bytes(warm.result), plan_bytes(plain.result));
  EXPECT_EQ(uncached.stats().artifact_cache.hits, 0u);
  EXPECT_FALSE(uncached.persist_artifact_cache(building, floor));
}

// ----------------------------------------------------------- versioning ---

TEST(ApiV2, InlineNamespaceMakesV2TheDefault) {
  static_assert(std::is_same_v<api::Client, api::v2::Client>);
  static_assert(std::is_same_v<api::ClientOptions, api::v2::ClientOptions>);
  SUCCEED();
}

TEST(ApiV2, StatusModelIsSelfDescribing) {
  EXPECT_TRUE(api::Status::Ok().ok());
  EXPECT_EQ(api::Status::Ok().code, api::StatusCode::kOk);
  const auto status =
      api::Status::Error(api::StatusCode::kShedding, "over queue bound");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(api::to_string(status.code), "shedding");
  EXPECT_EQ(api::to_string(api::StatusCode::kOk), "ok");
  EXPECT_EQ(api::to_string(api::StatusCode::kWrongShard), "wrong_shard");
  EXPECT_EQ(api::to_string(api::StatusCode::kDeadlineExceeded),
            "deadline_exceeded");
}

// ----------------------------------------------- reference conformance ---

TEST(Api, SingleNodeClientMatchesDirectPlannerByteForByte) {
  // The front door adds nothing to the plan: chunked ingest, the shard log
  // and the service's worker pool must leave the bytes and the degradation
  // report of a core::IncrementalPlanner fed the same extractions directly.
  const auto videos = tiny_campaign(820);
  ASSERT_GE(videos.size(), 3u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto client = make_client();
  for (const auto& video : videos) {
    const auto response = client.submit_video(video);
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_GT(response.chunks_sent, 0u);
    EXPECT_GT(response.seqno, 0u);
  }
  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto served = client.build_plan(request);
  ASSERT_TRUE(served.status.ok());

  const auto config = co::PipelineConfig::fast_profile();
  co::IncrementalPlanner planner(config);
  for (const auto& video : videos) {
    (void)planner.ingest(
        crowdmap::trajectory::extract_trajectory(video, config.extraction));
  }
  const auto direct = planner.refresh();
  ASSERT_GT(direct->diagnostics.trajectories_kept, 0u);

  EXPECT_EQ(plan_bytes(*direct), plan_bytes(served.result));
  EXPECT_EQ(direct->degradation.to_string(), served.degradation.to_string());
  EXPECT_EQ(served.degradation.to_string(),
            served.result.degradation.to_string());
}

TEST(ApiV2, MultiNodeClientMatchesSingleNodeByteForByte) {
  const auto videos = tiny_campaign(821);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto single = make_client_with_nodes(1);
  auto sharded = make_client_with_nodes(3);
  EXPECT_EQ(single.nodes(), 1u);
  EXPECT_EQ(sharded.nodes(), 3u);
  for (const auto& video : videos) {
    ASSERT_TRUE(single.submit_video(video).status.ok());
    ASSERT_TRUE(sharded.submit_video(video).status.ok());
  }
  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto lone = single.build_plan(request);
  const auto spread = sharded.build_plan(request);
  EXPECT_EQ(plan_bytes(lone.result), plan_bytes(spread.result));

  // The serving node is the shard's primary, and the merged snapshot keeps
  // router families unlabeled while node families carry {"node", ...}.
  EXPECT_EQ(spread.node, sharded.shard_of(building, floor).primary);
  EXPECT_EQ(spread.metrics.value("crowdmap_cluster_nodes"), 3.0);
  EXPECT_TRUE(spread.metrics.has(
      "crowdmap_worker_queue_depth",
      {{"node", sharded.node_name(spread.node)}}));
}

// ------------------------------------------------------- error surface ---

TEST(ApiV2, StaleRoutingIsRefusedAsWrongShard) {
  const auto videos = tiny_campaign(822);
  const auto& video = videos.front();
  auto client = make_client_with_nodes(3);

  const auto view = client.shard_of(video.building, video.floor);
  std::size_t wrong = 0;
  while (wrong == view.primary) ++wrong;

  api::SubmitUploadRequest request;
  request.upload_id = "video-" + std::to_string(video.video_id);
  request.building = video.building;
  request.floor = video.floor;
  request.payload = crowdmap::sensors::encode_imu(video.imu);

  const auto refused = client.submit_upload_to(wrong, request);
  EXPECT_EQ(refused.status.code, api::StatusCode::kWrongShard);
  EXPECT_FALSE(refused.status.message.empty());
  EXPECT_EQ(refused.node, view.primary) << "response names the real primary";
  EXPECT_EQ(refused.seqno, 0u);

  const auto accepted = client.submit_upload_to(view.primary, request);
  EXPECT_TRUE(accepted.status.ok());
}

TEST(ApiV2, RequestDeadlinesBoundAdmission) {
  const auto videos = tiny_campaign(823);
  const auto& video = videos.front();
  auto client = make_client();
  ASSERT_TRUE(client.submit_video(video).status.ok());
  ASSERT_GE(client.now_tick(), 1u);

  api::RequestOptions expired;
  expired.deadline_tick = 1;
  const auto late = client.submit_video(videos.back(), expired);
  EXPECT_EQ(late.status.code, api::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(late.seqno, 0u);

  api::BuildPlanRequest build;
  build.building = video.building;
  build.floor = video.floor;
  build.options = expired;
  const auto plan = client.build_plan(build);
  EXPECT_EQ(plan.status.code, api::StatusCode::kDeadlineExceeded);

  build.options.deadline_tick = client.now_tick() + 100;
  EXPECT_TRUE(client.build_plan(build).status.ok());
}

// ------------------------------------------- submit critical section ---

TEST(ApiV2, FourConcurrentSubmittersMatchSerialSubmissionByteForByte) {
  // Regression for the submit critical section: chunk delivery runs outside
  // the router lock, so concurrent submitters must neither corrupt routing
  // state nor change the committed upload set. Four threads stripe the
  // campaign; the resulting plan must match a serial submission's bytes.
  const auto videos = tiny_campaign(824);
  ASSERT_GE(videos.size(), 4u);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto serial = make_client();
  for (const auto& video : videos) {
    ASSERT_TRUE(serial.submit_video(video).status.ok());
  }
  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto reference = serial.build_plan(request);

  auto concurrent = make_client();
  constexpr std::size_t kThreads = 4;
  std::vector<std::size_t> accepted(kThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t v = t; v < videos.size(); v += kThreads) {
          if (concurrent.submit_video(videos[v]).status.ok()) ++accepted[t];
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  std::size_t total = 0;
  for (const auto count : accepted) total += count;
  ASSERT_EQ(total, videos.size());

  const auto built = concurrent.build_plan(request);
  EXPECT_EQ(plan_bytes(reference.result), plan_bytes(built.result));
  EXPECT_EQ(reference.result.degradation.to_string(),
            built.result.degradation.to_string());
}

// ------------------------------------------------------ topology surface ---

TEST(ApiV2, TopologyChangesKeepServingIdenticalPlans) {
  const auto videos = tiny_campaign(825);
  const std::string building = videos.front().building;
  const int floor = videos.front().floor;

  auto fixed = make_client();
  auto elastic = make_client();
  const std::size_t half = videos.size() / 2;
  for (std::size_t v = 0; v < videos.size(); ++v) {
    ASSERT_TRUE(fixed.submit_video(videos[v]).status.ok());
    if (v == half) (void)elastic.add_node();
    ASSERT_TRUE(elastic.submit_video(videos[v]).status.ok());
  }
  EXPECT_EQ(elastic.nodes(), 2u);
  EXPECT_EQ(elastic.node_name(0), "node-0");

  api::BuildPlanRequest request;
  request.building = building;
  request.floor = floor;
  const auto before = elastic.build_plan(request);
  ASSERT_TRUE(elastic.remove_node(0));
  const auto after = elastic.build_plan(request);
  const auto baseline = fixed.build_plan(request);
  EXPECT_EQ(plan_bytes(baseline.result), plan_bytes(before.result));
  EXPECT_EQ(plan_bytes(baseline.result), plan_bytes(after.result));
}
