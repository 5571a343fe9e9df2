// Parallel hot-path speedups: pairwise aggregation fan-out and sharded layout
// scoring at 1 / 2 / 4 threads, plus the simulated campaign render and one
// upload's trajectory extraction at 1 / 4 threads.
//
// Emits BENCH_parallel.json lines: per-stage wall-clock at each thread count,
// the threads=4 vs threads=1 speedup ratios, and the host's core count (a
// speedup can only materialize when the hardware has cores to spend —
// single-core CI runners will report ~1x by construction).
#include <cmath>
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "eval/datasets.hpp"
#include "room/layout.hpp"
#include "sim/campaign.hpp"
#include "trajectory/aggregate.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/panorama.hpp"

namespace {

constexpr const char* kBench = "parallel";
constexpr int kRepeats = 3;
constexpr int kExtractRepeats = 10;  // one upload takes ~0.1 s: sample it more

// threads counts the calling thread; the pool supplies the rest.
crowdmap::common::ThreadPool* pool_for(
    std::size_t threads, std::unique_ptr<crowdmap::common::ThreadPool>& owner) {
  if (threads <= 1) return nullptr;
  owner = std::make_unique<crowdmap::common::ThreadPool>(threads - 1);
  return owner.get();
}

}  // namespace

int main() {
  using namespace crowdmap;

  const std::size_t cores = std::thread::hardware_concurrency();
  bench::emit_bench_scalar(kBench, "hardware_concurrency",
                           static_cast<double>(cores));

  const auto spec = sim::lab1();
  std::cout << "# generating 14 trajectories...\n";
  const auto walk_pool = bench::make_walk_pool(spec, 14, 0.2, 0xA11);

  // ---- Pairwise aggregation fan-out.
  common::Stopwatch timer;
  std::vector<double> agg_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<common::ThreadPool> owner;
    trajectory::AggregationRuntime runtime;
    runtime.pool = pool_for(threads, owner);
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      timer.restart();
      (void)trajectory::aggregate_trajectories(walk_pool, {}, runtime);
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench,
                           "aggregate_threads" + std::to_string(threads),
                           samples);
    agg_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "aggregate_speedup_t4",
                           agg_means.front() / agg_means.back());

  // ---- Sharded hypothesis scoring.
  const auto scene = sim::Scene::from_spec(spec, 0xA12);
  sim::CameraIntrinsics intr;
  common::Rng rng(0xA12);
  std::vector<vision::PanoFrame> frames;
  for (int i = 0; i < 16; ++i) {
    const double heading = i * common::kTwoPi / 16;
    vision::PanoFrame frame;
    frame.image =
        scene.render({spec.rooms[0].center, heading}, intr, sim::Lighting::day(), rng)
            .to_gray();
    frame.heading = heading;
    frames.push_back(std::move(frame));
  }
  vision::StitchParams sp;
  sp.output_width = 512;
  sp.output_height = 128;
  const auto pano = vision::stitch_panorama(std::move(frames), sp);

  room::LayoutConfig layout_config;
  layout_config.hypotheses = 20000;  // the paper's full sweep
  const double frame_focal = intr.width / (2.0 * std::tan(sp.fov / 2.0));
  layout_config.focal_px = frame_focal * sp.output_height / intr.height;

  std::vector<double> layout_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::unique_ptr<common::ThreadPool> owner;
    common::ThreadPool* pool = pool_for(threads, owner);
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      timer.restart();
      (void)room::estimate_layout(pano.image, layout_config, pool);
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench, "layout_threads" + std::to_string(threads),
                           samples);
    layout_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "layout_speedup_t4",
                           layout_means.front() / layout_means.back());

  // ---- Campaign render: rounds of one video per user on the pool (Lab1
  // with a quarter of its hallway walks).
  const auto dataset = eval::lab1_dataset(0.25);
  std::vector<double> render_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    sim::CampaignOptions options = dataset.options;
    options.threads = threads;
    std::vector<double> samples;
    for (int r = 0; r < kRepeats; ++r) {
      timer.restart();
      sim::generate_campaign_streaming(dataset.building, options, dataset.seed,
                                       [](sim::SensorRichVideo&&) {});
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench,
                           "campaign_render_threads" + std::to_string(threads),
                           samples);
    render_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "campaign_render_speedup_t4",
                           render_means.front() / render_means.back());

  // ---- One upload's extraction: per-frame gate + HOG and per-key-frame
  // descriptors on the pool, selection serial (a full-size Gym room visit).
  const auto gym = eval::gym_dataset(1.0);
  const auto gym_scene = sim::Scene::from_spec(gym.building, gym.seed);
  sim::UserSimulator gym_user(gym_scene, gym.building, gym.options.sim,
                              common::Rng(gym.seed));
  const auto upload = gym_user.room_visit(
      gym.building.rooms.front(), gym.options.hallway_distance,
      sim::Lighting::day());
  std::vector<double> extract_means;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::unique_ptr<common::ThreadPool> owner;
    common::ThreadPool* pool = pool_for(threads, owner);
    std::vector<double> samples;
    for (int r = 0; r < kExtractRepeats; ++r) {
      timer.restart();
      (void)trajectory::extract_trajectory(upload, {}, pool);
      samples.push_back(timer.elapsed_seconds());
    }
    bench::emit_bench_json(kBench,
                           "extract_upload_threads" + std::to_string(threads),
                           samples);
    extract_means.push_back(common::summarize(samples).mean);
  }
  bench::emit_bench_scalar(kBench, "extract_upload_speedup_t4",
                           extract_means.front() / extract_means.back());

  return 0;
}
