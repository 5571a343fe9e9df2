// crowdmap_perfbench — measurement harness behind perfbench/run.py.
//
// Runs one named workload through the public api::Client and prints one raw
// JSON record on stdout: every timed sample, per-pass layer counters, the
// span list of a traced run, the output checks and the host shape. run.py
// turns the record into the benchmark's metrics (perfbench/README.md); the
// arithmetic (percentiles, self time, coverage) lives there and is tested in
// perfbench/test_stats.py.
//
// Everything is timed from outside: spans wrap calls into each module's
// public functions, and the build's stage split is read from the
// PipelineDiagnostics that build_plan returns. Nothing inside src/ changes.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/crowdmap.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "eval/datasets.hpp"
#include "floorplan/eval.hpp"
#include "floorplan/serialize.hpp"
#include "mapping/skeleton.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/surf.hpp"

namespace {

using namespace crowdmap;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_start = Clock::now();

/// Seconds since process start (the zero of every span and of setup_s).
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Value of a "Key:   123 kB" line of /proc/self/status, in kB (0 if absent).
double proc_status_kb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ------------------------------------------------------------- JSON out ---

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal streaming JSON object writer; keys are emitted in call order.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) { return raw(key, json_num(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, json_str(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& vs) {
    std::string out = "[";
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) out += ",";
      out += json_num(vs[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + json_str(key) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? "," : "") + items[i];
  }
  return out + "]";
}

// --------------------------------------------------------------- tracing ---

/// In-memory span list. A span names the layer whose public function it
/// wraps; `pass` is the timed pass it belongs to (-1 outside timed passes).
/// The benchmark keeps its own list rather than obs::Trace so that its
/// timings do not depend on the obs layer it measures, and so the build's
/// stage split can be inserted with explicit times.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int pass = -1;
  bool from_diagnostics = false;  // stage split read back from the build
};

class Tracer {
 public:
  /// Spans are recorded only while enabled; a disabled tracer costs one
  /// branch per call site.
  bool enabled = false;

  int open(const std::string& name, int pass) {
    if (!enabled) return -1;
    spans_.push_back({name, now_s(), 0.0, current_, pass, false});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end = now_s();
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }
  /// Lays the build's stage timings back to back under the build span; the
  /// remainder of the span is the build's own (unaccounted) time.
  void add_stages(int build_span, const core::PipelineDiagnostics& d) {
    if (build_span < 0) return;
    const Span build = spans_[static_cast<std::size_t>(build_span)];
    double t = build.start;
    const std::pair<const char*, double> stages[] = {
        {"trajectory.aggregate", d.aggregate_seconds},
        {"mapping.skeleton", d.skeleton_seconds},
        {"room.rooms", d.rooms_seconds},
        {"floorplan.arrange", d.arrange_seconds},
    };
    for (const auto& [name, seconds] : stages) {
      const double end = std::min(t + seconds, build.end);
      spans_.push_back({name, t, end, build_span, build.pass, true});
      t = end;
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

class Scoped {
 public:
  Scoped(Tracer& tracer, const std::string& name, int pass)
      : tracer_(tracer), index_(tracer.open(name, pass)) {}
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  void close() {
    if (index_ < 0) return;
    tracer_.close(index_);
    closed_ = index_;
    index_ = -1;
  }
  /// Index of the span (valid after close() too; -1 when tracing is off).
  [[nodiscard]] int index() const { return index_ >= 0 ? index_ : closed_; }

 private:
  Tracer& tracer_;
  int index_;
  int closed_ = -1;
};

// ------------------------------------------------------------- workloads ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::optional<std::uint64_t> dataset_seed;
  std::string work_dir;
};

/// Per-pass counters, summed over the pass's submits and builds.
struct PassRecord {
  int pass = 0;
  int order = 0;  // which upload permutation the pass replays
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> plan_ms;    // plan latency samples of this pass
  std::vector<double> submit_ms;  // one per submit_video
  double chunks_sent = 0.0;
  double chunks_rejected = 0.0;
  double aggregate_s = 0.0, skeleton_s = 0.0, rooms_s = 0.0, arrange_s = 0.0;
  double s2_hits = 0.0, s2_misses = 0.0;
  double panoramas_attempted = 0.0, panoramas_stitched = 0.0;
  double artifact_hits = 0.0, artifact_misses = 0.0;
  double pairs_reused = 0.0, pairs_total = 0.0;
  double rooms_reused = 0.0, rooms_total = 0.0;
  // Of the pass's last build: the plan the pass ends up serving.
  double match_edges = 0.0, trajectories_kept = 0.0, trajectories_placed = 0.0;
  double rooms_reconstructed = 0.0;
  double cache_bytes = 0.0;
  double records_replayed = 0.0;

  [[nodiscard]] std::string json() const {
    return JsonObject()
        .num("pass", pass)
        .num("order", order)
        .boolean("traced", traced)
        .num("wall_s", wall_s)
        .num("cpu_s", cpu_s)
        .nums("plan_ms", plan_ms)
        .nums("submit_ms", submit_ms)
        .num("chunks_sent", chunks_sent)
        .num("chunks_rejected", chunks_rejected)
        .num("aggregate_s", aggregate_s)
        .num("skeleton_s", skeleton_s)
        .num("rooms_s", rooms_s)
        .num("arrange_s", arrange_s)
        .num("s2_hits", s2_hits)
        .num("s2_misses", s2_misses)
        .num("panoramas_attempted", panoramas_attempted)
        .num("panoramas_stitched", panoramas_stitched)
        .num("artifact_hits", artifact_hits)
        .num("artifact_misses", artifact_misses)
        .num("pairs_reused", pairs_reused)
        .num("pairs_total", pairs_total)
        .num("rooms_reused", rooms_reused)
        .num("rooms_total", rooms_total)
        .num("match_edges", match_edges)
        .num("trajectories_kept", trajectories_kept)
        .num("trajectories_placed", trajectories_placed)
        .num("rooms_reconstructed", rooms_reconstructed)
        .num("cache_bytes", cache_bytes)
        .num("records_replayed", records_replayed)
        .done();
  }
};

struct Check {
  std::string name;
  bool ok = false;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  int run();

 private:
  // Thread counts are pinned, independent of hardware_concurrency: three
  // extraction/refresh workers per node plus the one submitting (or
  // building) caller keep the runnable threads at four.
  static constexpr std::size_t kWorkers = 3;
  static constexpr std::size_t kThreads = 4;

  api::ClientOptions client_options(bool durable) const {
    api::ClientOptions options;
    options.config.parallel.threads = kThreads;
    options.workers_per_node = kWorkers;
    if (durable) {
      options.config.storage.dir = store_dir_;
      options.config.storage.fsync = true;
      // A restarted client has no submit_video side table; recovered
      // uploads decode through this stand-in for a deployment's codec,
      // which hands back the rendered video by upload id.
      options.decoder = [this](const cloud::Document& doc)
          -> std::optional<sim::SensorRichVideo> {
        const auto it = upload_index_.find(doc.id);
        if (it == upload_index_.end()) return std::nullopt;
        return videos_[it->second];
      };
    }
    return options;
  }

  /// Seeded permutation of the uploads for one pass. The final plan does
  /// not depend on upload order, so every pass serves the same bytes while
  /// each replays a different arrival sequence.
  std::vector<std::size_t> upload_order(std::uint64_t pass) const {
    std::vector<std::size_t> order(videos_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    common::Rng rng = common::Rng(args_.seed).stream(pass);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<int>(i) - 1))]);
    }
    return order;
  }

  void count(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void check(const std::string& name, bool ok) {
    checks_.push_back({name, ok});
    count(ok);
    if (!ok) std::cerr << "perfbench: check failed: " << name << "\n";
  }

  void submit(api::Client& client, std::size_t index, int pass, PassRecord* rec) {
    Scoped span(tracer_, "api.submit", pass);
    const double t0 = now_s();
    const auto response = client.submit_video(videos_[index]);
    const double t1 = now_s();
    span.close();
    count(response.status.ok());
    if (rec != nullptr) {
      rec->submit_ms.push_back((t1 - t0) * 1e3);
      rec->chunks_sent += static_cast<double>(response.chunks_sent);
      rec->chunks_rejected += static_cast<double>(response.chunks_rejected);
    }
  }

  void drain(api::Client& client, int pass) {
    Scoped span(tracer_, "cloud.drain", pass);
    client.drain();
  }

  /// build_plan in the backend's own frame; returns the encoded plan.
  io::Bytes build(api::Client& client, int pass, PassRecord* rec) {
    Scoped span(tracer_, "core.build", pass);
    auto response = client.build_plan({building_, floor_, std::nullopt, {}});
    span.close();
    tracer_.add_stages(span.index(), response.result.diagnostics);
    count(response.status.ok());
    if (!response.status.ok()) {
      std::cerr << "perfbench: build_plan failed: " << response.status.message << "\n";
      return {};
    }
    if (rec != nullptr) {
      const auto& d = response.result.diagnostics;
      rec->aggregate_s += d.aggregate_seconds;
      rec->skeleton_s += d.skeleton_seconds;
      rec->rooms_s += d.rooms_seconds;
      rec->arrange_s += d.arrange_seconds;
      rec->s2_hits += static_cast<double>(d.s2_cache_hits);
      rec->s2_misses += static_cast<double>(d.s2_cache_misses);
      rec->panoramas_attempted += static_cast<double>(d.panoramas_attempted);
      rec->panoramas_stitched += static_cast<double>(d.panoramas_stitched);
      rec->artifact_hits += static_cast<double>(response.cache.artifact_hits);
      rec->artifact_misses += static_cast<double>(response.cache.artifact_misses);
      rec->pairs_reused += static_cast<double>(response.cache.pairs_reused);
      rec->pairs_total += static_cast<double>(response.cache.pairs_total);
      rec->rooms_reused += static_cast<double>(response.cache.rooms_reused);
      rec->rooms_total += static_cast<double>(response.cache.rooms_total);
      rec->match_edges = static_cast<double>(d.match_edges);
      rec->trajectories_kept = static_cast<double>(d.trajectories_kept);
      rec->trajectories_placed = static_cast<double>(d.trajectories_placed);
      rec->rooms_reconstructed = static_cast<double>(d.rooms_reconstructed);
    }
    return floorplan::encode_floorplan(response.result.plan);
  }

  /// One pass of the workload. Pass 0 is the untimed warm-up; the returned
  /// client is kept for the accuracy check after the last pass.
  std::unique_ptr<api::Client> run_pass(int pass, bool timed, PassRecord& rec);

  void render();
  void prepare_store();
  void check_accuracy(api::Client& client);
  void rerun_extraction();
  std::string host_json() const;

  Args args_;
  eval::DatasetSpec dataset_;
  std::vector<sim::SensorRichVideo> videos_;
  std::map<std::string, std::size_t> upload_index_;  // "video-<id>" -> index
  std::string building_;
  int floor_ = 1;
  std::string store_dir_;
  Tracer tracer_;
  io::Bytes reference_plan_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Check> checks_;
  double render_s_ = 0.0;
  double frames_ = 0.0;
  JsonObject accuracy_;
  JsonObject storage_;
  JsonObject extraction_;
};

void Bench::render() {
  const int span = tracer_.open("sim.render", -1);
  const double t0 = now_s();
  sim::generate_campaign_streaming(
      dataset_.building, dataset_.options, *args_.dataset_seed,
      [this](sim::SensorRichVideo&& video) { videos_.push_back(std::move(video)); });
  render_s_ = now_s() - t0;
  tracer_.close(span);
  for (std::size_t i = 0; i < videos_.size(); ++i) {
    frames_ += static_cast<double>(videos_[i].frames.size());
    upload_index_["video-" + std::to_string(videos_[i].video_id)] = i;
  }
  if (videos_.empty()) throw std::runtime_error("campaign rendered no videos");
  building_ = videos_.front().building;
  floor_ = videos_.front().floor;
}

/// restart_lab1 set-up: journal the whole campaign into a fresh durable
/// store, build, and checkpoint. Journaling engages only once the client has
/// run recover_storage() (as eval::run_experiment does).
void Bench::prepare_store() {
  std::filesystem::remove_all(store_dir_);
  api::Client client(client_options(true));
  count(client.recover_storage().ok());
  for (const std::size_t i : upload_order(0)) submit(client, i, -1, nullptr);
  drain(client, -1);
  reference_plan_ = build(client, -1, nullptr);
  const auto journaled = client.durability_stats();
  const int span = tracer_.open("storage.checkpoint", -1);
  const double t0 = now_s();
  const auto status = client.checkpoint_storage();
  const double checkpoint_s = now_s() - t0;
  tracer_.close(span);
  count(status.ok());
  check("wal_appends_equal_uploads", journaled.wal_appends == videos_.size());
  storage_.num("checkpoint_s", checkpoint_s)
      .num("wal_appends", static_cast<double>(journaled.wal_appends))
      .num("wal_bytes", static_cast<double>(journaled.wal_bytes));
}

std::unique_ptr<api::Client> Bench::run_pass(int pass, bool timed, PassRecord& rec) {
  const int span_pass = timed ? pass : -1;
  const auto order = upload_order(static_cast<std::uint64_t>(rec.order));
  std::unique_ptr<api::Client> client;
  io::Bytes plan;
  PassRecord* r = timed ? &rec : nullptr;
  double wall0 = 0.0, cpu0 = 0.0;
  int root = -1;
  auto start = [&] {
    root = tracer_.open("pass", span_pass);
    wall0 = now_s();
    cpu0 = cpu_s();
  };
  auto stop = [&] {
    rec.wall_s = now_s() - wall0;
    rec.cpu_s = cpu_s() - cpu0;
    tracer_.close(root);
  };

  if (args_.workload == "backlog_lab2") {
    client = std::make_unique<api::Client>(client_options(false));
    start();
    for (const std::size_t i : order) submit(*client, i, span_pass, r);
    drain(*client, span_pass);
    plan = build(*client, span_pass, r);
    stop();
    rec.plan_ms.push_back(rec.wall_s * 1e3);
  } else if (args_.workload == "refresh_gym") {
    // The campaign's first half (in generation order) is cold-built, its
    // second half trickles in; the seed orders the uploads within each
    // half. Drawing the halves at random instead doubled the run-to-run
    // spread of the refresh median, since the refresh cost depends on which
    // uploads trickle.
    client = std::make_unique<api::Client>(client_options(false));
    const std::size_t half = order.size() / 2;
    std::vector<std::size_t> trickle;
    for (const std::size_t i : order) {
      if (i < half) {
        submit(*client, i, -1, nullptr);
      } else {
        trickle.push_back(i);
      }
    }
    drain(*client, -1);
    (void)build(*client, -1, nullptr);
    start();
    for (const std::size_t i : trickle) {
      const double t0 = now_s();
      submit(*client, i, span_pass, r);
      drain(*client, span_pass);
      plan = build(*client, span_pass, r);
      rec.plan_ms.push_back((now_s() - t0) * 1e3);
    }
    stop();
  } else {  // restart_lab1
    start();
    {
      Scoped span(tracer_, "api.client", span_pass);
      client = std::make_unique<api::Client>(client_options(true));
    }
    std::optional<storage::RecoveryReport> report;
    {
      Scoped span(tracer_, "storage.recover", span_pass);
      auto recovered = client->recover_storage();
      if (recovered.ok()) report = recovered.value();
    }
    count(report.has_value());
    drain(*client, span_pass);
    plan = build(*client, span_pass, r);
    stop();
    rec.plan_ms.push_back(rec.wall_s * 1e3);
    if (report) rec.records_replayed = static_cast<double>(report->records_replayed);
    check("recovered_plan_matches_pre_restart_plan", plan == reference_plan_);
  }
  rec.cache_bytes = static_cast<double>(client->stats().artifact_cache.bytes);

  if (reference_plan_.empty()) reference_plan_ = plan;
  if (args_.workload != "restart_lab1") {
    check("plan_bytes_identical_across_passes", !plan.empty() && plan == reference_plan_);
  }
  return client;
}

/// Accuracy through the same public functions eval::run_experiment uses:
/// align onto ground truth, rebuild in the truth frame, then Table I
/// (hallway shape) and Fig. 8 (room errors) metrics.
void Bench::check_accuracy(api::Client& client) {
  const auto plan0 = client.build_plan({building_, floor_, std::nullopt, {}});
  count(plan0.status.ok());
  const auto trajectories = client.trajectories(building_, floor_);
  const auto alignment =
      floorplan::align_to_truth(trajectories, plan0.result.aggregation);
  core::WorldFrame frame;
  frame.global_to_world = alignment.value_or(geometry::Pose2{});
  frame.extent = dataset_.building.extent();
  const auto final_build = client.build_plan({building_, floor_, frame, {}});
  count(final_build.status.ok());

  std::vector<geometry::Polygon> room_polys;
  for (const auto& room : dataset_.building.rooms) room_polys.push_back(room.footprint());
  const core::PipelineConfig config = client_options(false).config;
  const auto truth = dataset_.building.hallway_raster(config.grid_cell_size);
  const auto hallway =
      mapping::hallway_shape_metrics(final_build.result.skeleton, truth, room_polys);
  const auto rooms = floorplan::evaluate_rooms(final_build.result.plan,
                                               dataset_.building, geometry::Pose2{});
  double area = 0.0, aspect = 0.0, location = 0.0;
  for (const auto& e : rooms) {
    area += e.area_error;
    aspect += e.aspect_error;
    location += e.location_error_m;
  }
  const double n = static_cast<double>(rooms.size());
  const bool ok = alignment.has_value() && !rooms.empty() &&
                  std::isfinite(hallway.f_measure) && final_build.status.ok();
  check("accuracy_computed", ok);
  accuracy_.num("hallway_precision", hallway.precision)
      .num("hallway_recall", hallway.recall)
      .num("hallway_f1", hallway.f_measure)
      .num("room_area_err", n > 0 ? area / n : 0.0)
      .num("room_aspect_err", n > 0 ? aspect / n : 0.0)
      .num("room_location_err_m", n > 0 ? location / n : 0.0)
      .num("rooms_placed", n)
      .num("rooms_total", static_cast<double>(dataset_.building.rooms.size()));
}

/// Extraction runs on the service's pool threads, where an outside timer
/// sees only the wait in drain(); the traced run re-runs it here, serially,
/// through the same public functions with the backend's configuration.
void Bench::rerun_extraction() {
  const core::PipelineConfig config = client_options(false).config;
  std::vector<double> extract_ms;
  double keyframes = 0.0, surf_s = 0.0, features = 0.0;
  for (const auto& video : videos_) {
    const int span = tracer_.open("trajectory.extract", -1);
    const double t0 = now_s();
    const auto trajectory = trajectory::extract_trajectory(video, config.extraction);
    extract_ms.push_back((now_s() - t0) * 1e3);
    tracer_.close(span);
    for (const auto& kf : trajectory.keyframes) {
      const int surf_span = tracer_.open("vision.surf", -1);
      const double s0 = now_s();
      const auto detected = vision::detect_and_describe(kf.gray, config.extraction.surf);
      surf_s += now_s() - s0;
      tracer_.close(surf_span);
      features += static_cast<double>(detected.size());
      keyframes += 1.0;
    }
  }
  extraction_.nums("extract_ms", extract_ms)
      .num("keyframes", keyframes)
      .num("surf_s", surf_s)
      .num("surf_features", features);
}

std::string Bench::host_json() const {
  return JsonObject()
      .num("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .str("cpu_model", cpu_model())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("simd", common::simd::capability_report())
      .num("workers_per_node", static_cast<double>(kWorkers))
      .num("parallel_threads", static_cast<double>(kThreads))
      .done();
}

int Bench::run() {
  if (args_.workload == "backlog_lab2") {
    dataset_ = eval::lab2_dataset();
  } else if (args_.workload == "refresh_gym") {
    dataset_ = eval::gym_dataset();
  } else if (args_.workload == "restart_lab1") {
    dataset_ = eval::lab1_dataset();
  } else {
    std::cerr << "perfbench: unknown workload '" << args_.workload << "'\n";
    return 2;
  }
  if (!args_.dataset_seed) args_.dataset_seed = dataset_.seed;
  store_dir_ = (std::filesystem::path(args_.work_dir) / "store").string();
  tracer_.enabled = args_.trace;

  render();
  if (args_.workload == "restart_lab1") prepare_store();
  {
    PassRecord warmup;
    (void)run_pass(0, false, warmup);
  }
  const double setup_s = now_s();

  // Closed loop: one client, one submitting thread, each request waits for
  // its reply. Passes repeat until the run has lasted --seconds and holds
  // enough samples; a traced run alternates traced and untraced passes so
  // the tracing overhead is measured in the same process.
  const std::size_t min_samples = args_.workload == "refresh_gym" ? 40 : 0;
  const int min_passes = args_.trace ? 4 : 3;
  std::vector<PassRecord> passes;
  std::unique_ptr<api::Client> last;
  std::size_t samples = 0;
  const double loop0 = now_s();
  for (int pass = 1;; ++pass) {
    const bool enough = static_cast<int>(passes.size()) >= min_passes &&
                        (!args_.trace || passes.size() % 2 == 0) &&
                        samples >= min_samples && now_s() - loop0 >= args_.seconds;
    if (enough) break;
    PassRecord rec;
    rec.pass = pass;
    // A traced run replays each permutation twice, traced then untraced, so
    // the overhead ratio compares identical work.
    rec.order = args_.trace ? (pass + 1) / 2 : pass;
    rec.traced = args_.trace && pass % 2 == 1;
    tracer_.enabled = rec.traced;
    last.reset();
    last = run_pass(pass, true, rec);
    samples += rec.plan_ms.size();
    passes.push_back(std::move(rec));
  }
  tracer_.enabled = args_.trace;
  const double measured_s = now_s() - loop0;

  check_accuracy(*last);
  last.reset();
  if (args_.trace) rerun_extraction();
  const double peak_rss_mb = proc_status_kb("VmHWM") / 1024.0;

  std::vector<std::string> pass_json, span_json, check_json;
  for (const auto& p : passes) pass_json.push_back(p.json());
  for (const auto& s : tracer_.spans()) {
    span_json.push_back(JsonObject()
                            .str("name", s.name)
                            .num("start", s.start)
                            .num("end", s.end)
                            .num("parent", s.parent)
                            .num("pass", s.pass)
                            .boolean("from_diagnostics", s.from_diagnostics)
                            .done());
  }
  for (const auto& c : checks_) {
    check_json.push_back(JsonObject().str("name", c.name).boolean("ok", c.ok).done());
  }
  std::cout << JsonObject()
                   .str("workload", args_.workload)
                   .num("seed", static_cast<double>(args_.seed))
                   .num("dataset_seed", static_cast<double>(*args_.dataset_seed))
                   .str("dataset", dataset_.name)
                   .boolean("trace", args_.trace)
                   .raw("host", host_json())
                   .num("setup_s", setup_s)
                   .num("measured_s", measured_s)
                   .num("render_s", render_s_)
                   .num("frames", frames_)
                   .num("videos", static_cast<double>(videos_.size()))
                   .num("peak_rss_mb", peak_rss_mb)
                   .num("attempted", static_cast<double>(attempted_))
                   .num("failed", static_cast<double>(failed_))
                   .raw("checks", json_array(check_json))
                   .raw("accuracy", accuracy_.done())
                   .raw("storage", storage_.done())
                   .raw("extraction", extraction_.done())
                   .raw("passes", json_array(pass_json))
                   .raw("spans", json_array(span_json))
                   .done()
            << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: crowdmap_perfbench --workload backlog_lab2|refresh_gym|"
               "restart_lab1 --work-dir DIR [--seed N] [--seconds S] "
               "[--trace 0|1] [--dataset-seed N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value, nullptr, 0);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value != "0";
      } else if (flag == "--dataset-seed") {
        args.dataset_seed = std::stoull(value, nullptr, 0);
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty()) return usage();
  try {
    return Bench(std::move(args)).run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
