// Tests for the parallel execution layer: parallel_for semantics (coverage,
// nesting, exceptions), the ThreadPool observer reentrancy fix, and the
// headline guarantee — the pipeline produces bit-identical results at any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "room/layout.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "sim/user_sim.hpp"
#include "vision/panorama.hpp"

namespace cc = crowdmap::common;
namespace co = crowdmap::core;
namespace cr = crowdmap::room;
namespace cs = crowdmap::sim;

// ------------------------------------------------------------ parallel_for ---

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  cc::ThreadPool pool(3);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  cc::parallel_for(&pool, n, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, NullPoolRunsSerially) {
  std::size_t sum = 0;
  cc::parallel_for(nullptr, 100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(ParallelFor, GrainCoversTail) {
  cc::ThreadPool pool(2);
  const std::size_t n = 1003;  // not a multiple of the grain
  std::vector<std::atomic<int>> visits(n);
  cc::parallel_for(
      &pool, n,
      [&](std::size_t i) { visits[i].fetch_add(1, std::memory_order_relaxed); },
      64);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  cc::ThreadPool pool(2);
  cc::parallel_for(&pool, 0, [&](std::size_t) { FAIL(); });
}

TEST(ParallelFor, NestingOnASharedPoolCompletes) {
  // Every outer iteration runs its own inner parallel_for on the SAME pool.
  // With future-joining fan-out this deadlocks once all workers block in
  // outer iterations; caller participation guarantees progress.
  cc::ThreadPool pool(3);
  const std::size_t outer = 8;
  const std::size_t inner = 200;
  std::atomic<std::size_t> total{0};
  cc::parallel_for(&pool, outer, [&](std::size_t) {
    cc::parallel_for(&pool, inner, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), outer * inner);
}

TEST(ParallelFor, FirstExceptionPropagates) {
  cc::ThreadPool pool(2);
  EXPECT_THROW(
      cc::parallel_for(&pool, 1000,
                       [&](std::size_t i) {
                         if (i == 137) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool survives and stays usable.
  auto future = pool.submit([] { return 42; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ParallelFor, CompletesInsideAPoolThatIsShuttingDown) {
  // A task still queued when the pool's destructor begins runs while the
  // pool refuses new tasks. Its parallel_for on that pool must cover every
  // index on the caller rather than unwind half-submitted (a helper that did
  // get queued would then run a destroyed fn).
  const std::size_t n = 64;
  std::vector<int> visits(n, 0);
  std::future<void> done;
  {
    auto pool = std::make_unique<cc::ThreadPool>(1);
    cc::ThreadPool* raw = pool.get();
    done = raw->submit([raw, &visits] {
      // Wait until the destructor has begun: submit() starts refusing.
      for (;;) {
        try {
          (void)raw->submit([] {});
        } catch (const std::runtime_error&) {
          break;
        }
        std::this_thread::yield();
      }
      cc::parallel_for(raw, visits.size(), [&visits](std::size_t i) {
        ++visits[i];
      });
    });
    pool.reset();  // joins after draining the queue
  }
  EXPECT_NO_THROW(done.get());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i], 1) << "index " << i;
}

// --------------------------------------------------- ThreadPool observers ---

TEST(ThreadPoolObservers, QueueObserverMayCallBackIntoThePool) {
  // The observer fires outside the pool lock, so calling pending() (which
  // takes that lock) from inside it must not deadlock — this hung before the
  // observers were moved out of the critical section.
  cc::ThreadPool pool(2);
  std::atomic<std::size_t> observed{0};
  pool.set_queue_observer([&pool, &observed](std::size_t) {
    observed.fetch_add(pool.pending() + 1, std::memory_order_relaxed);
  });
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([] {}));
  }
  for (auto& f : futures) f.get();
  pool.wait_idle();
  EXPECT_GE(observed.load(), 64u);
}

TEST(ThreadPoolObservers, TaskObserverSeesEveryTask) {
  cc::ThreadPool pool(2);
  std::atomic<int> tasks_observed{0};
  pool.set_task_observer([&](double seconds) {
    EXPECT_GE(seconds, 0.0);
    tasks_observed.fetch_add(1, std::memory_order_relaxed);
  });
  for (int i = 0; i < 20; ++i) (void)pool.submit([] {});
  pool.wait_idle();
  EXPECT_EQ(tasks_observed.load(), 20);
}

// -------------------------------------------------- layout shard determinism ---

TEST(LayoutSharding, PoolDoesNotChangeTheLayout) {
  // Render a small room panorama and run the sharded sweep serially and on a
  // pool: the winning layout must match bit for bit.
  cs::FloorPlanSpec spec;
  spec.name = "single";
  spec.feature_density = 0.8;
  cs::RoomSpec room;
  room.id = 1;
  room.center = {0, 0};
  room.width = 5.0;
  room.depth = 4.0;
  room.door = {0, -2.0};
  spec.rooms.push_back(room);
  spec.hallways.push_back(cs::corridor({-8, -3.2}, {8, -3.2}, 2.4));
  const auto scene = cs::Scene::from_spec(spec, 617);

  cs::CameraIntrinsics intr;
  cc::Rng rng(617);
  std::vector<crowdmap::vision::PanoFrame> frames;
  for (int i = 0; i < 16; ++i) {
    const double heading = i * cc::kTwoPi / 16;
    crowdmap::vision::PanoFrame frame;
    frame.image =
        scene.render({{0, 0}, heading}, intr, cs::Lighting::day(), rng).to_gray();
    frame.heading = heading;
    frames.push_back(std::move(frame));
  }
  crowdmap::vision::StitchParams sp;
  sp.output_width = 512;
  sp.output_height = 128;
  const auto pano = crowdmap::vision::stitch_panorama(std::move(frames), sp);

  cr::LayoutConfig config;
  config.hypotheses = 3000;
  const double frame_focal = intr.width / (2.0 * std::tan(sp.fov / 2.0));
  config.focal_px = frame_focal * sp.output_height / intr.height;

  const auto serial = cr::estimate_layout(pano.image, config, nullptr);
  cc::ThreadPool pool(3);
  const auto pooled = cr::estimate_layout(pano.image, config, &pool);
  // The shard count only partitions the scoring work; one shard must pick
  // the same winner as the default sixteen.
  cr::LayoutConfig one_shard = config;
  one_shard.scoring_shards = 1;
  const auto unsharded = cr::estimate_layout(pano.image, one_shard, nullptr);
  ASSERT_EQ(serial.has_value(), pooled.has_value());
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(unsharded.has_value());
  for (const auto* other : {&*pooled, &*unsharded}) {
    EXPECT_EQ(serial->width, other->width);
    EXPECT_EQ(serial->depth, other->depth);
    EXPECT_EQ(serial->orientation, other->orientation);
    EXPECT_EQ(serial->camera_offset.x, other->camera_offset.x);
    EXPECT_EQ(serial->camera_offset.y, other->camera_offset.y);
    EXPECT_EQ(serial->score, other->score);
  }
}

// ----------------------------------------------------- pipeline determinism ---

namespace {

co::PipelineResult run_small_campaign(std::size_t threads) {
  cc::Rng rng(223);
  const auto spec = cs::random_building(4, rng);
  cs::CampaignOptions options;
  options.users = 3;
  options.room_videos_per_room = 1;
  options.hallway_walks = 8;
  options.junk_fraction = 0.0;
  options.night_fraction = 0.2;
  options.sim.fps = 3.0;

  co::PipelineConfig config = co::PipelineConfig::fast_profile();
  config.parallel.threads = threads;
  // crowdmap-lint: allow(pipeline-construction)
  co::CrowdMapPipeline pipeline(config);
  cs::generate_campaign_streaming(
      spec, options, 223,
      [&pipeline](cs::SensorRichVideo&& video) { pipeline.ingest(video); });
  return pipeline.run();
}

}  // namespace

TEST(PipelineDeterminism, FourThreadsMatchSerialBitForBit) {
  const auto serial = run_small_campaign(1);
  const auto parallel = run_small_campaign(4);

  // Aggregation: identical placement and identical pose graph.
  ASSERT_EQ(serial.aggregation.global_pose.size(),
            parallel.aggregation.global_pose.size());
  for (std::size_t i = 0; i < serial.aggregation.global_pose.size(); ++i) {
    const auto& a = serial.aggregation.global_pose[i];
    const auto& b = parallel.aggregation.global_pose[i];
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) continue;
    EXPECT_EQ(a->position.x, b->position.x);
    EXPECT_EQ(a->position.y, b->position.y);
    EXPECT_EQ(a->theta, b->theta);
  }
  ASSERT_EQ(serial.aggregation.edges.size(), parallel.aggregation.edges.size());
  for (std::size_t e = 0; e < serial.aggregation.edges.size(); ++e) {
    const auto& a = serial.aggregation.edges[e];
    const auto& b = parallel.aggregation.edges[e];
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.s3, b.s3);
    EXPECT_EQ(a.b_to_a.position.x, b.b_to_a.position.x);
    EXPECT_EQ(a.b_to_a.position.y, b.b_to_a.position.y);
    EXPECT_EQ(a.b_to_a.theta, b.b_to_a.theta);
  }

  // Rooms: same rooms, same layouts, bit for bit.
  ASSERT_EQ(serial.rooms.size(), parallel.rooms.size());
  for (std::size_t r = 0; r < serial.rooms.size(); ++r) {
    const auto& a = serial.rooms[r];
    const auto& b = parallel.rooms[r];
    EXPECT_EQ(a.trajectory_index, b.trajectory_index);
    EXPECT_EQ(a.layout.width, b.layout.width);
    EXPECT_EQ(a.layout.depth, b.layout.depth);
    EXPECT_EQ(a.layout.orientation, b.layout.orientation);
    EXPECT_EQ(a.layout.score, b.layout.score);
    EXPECT_EQ(a.center_global.x, b.center_global.x);
    EXPECT_EQ(a.center_global.y, b.center_global.y);
  }

  // Final plan: identical placement after force-directed arrangement.
  ASSERT_EQ(serial.plan.rooms.size(), parallel.plan.rooms.size());
  for (std::size_t r = 0; r < serial.plan.rooms.size(); ++r) {
    const auto& a = serial.plan.rooms[r];
    const auto& b = parallel.plan.rooms[r];
    EXPECT_EQ(a.center.x, b.center.x);
    EXPECT_EQ(a.center.y, b.center.y);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.depth, b.depth);
    EXPECT_EQ(a.orientation, b.orientation);
  }

  // Occupancy and skeleton rasters derive from the identical poses.
  EXPECT_EQ(serial.skeleton.raster.count_set(),
            parallel.skeleton.raster.count_set());
}
