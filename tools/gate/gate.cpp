#include "gate/gate.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

namespace crowdmap::gate {

namespace {

constexpr std::string_view kPrefix = "BENCH_";
constexpr std::string_view kSuffix = ".json ";

/// Splits `text` into lines without copying (keeps no terminator).
std::vector<std::string_view> split_lines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string location(std::string_view origin, std::size_t line_no) {
  std::ostringstream out;
  out << origin << ":" << line_no;
  return out.str();
}

/// Pulls one `"key":<number>` field out of the JSON payload. The emitter
/// (bench/bench_util.hpp) writes a fixed flat object, so a targeted scan is
/// exact here — no general JSON parser needed.
bool extract_number(std::string_view json, std::string_view key, double* out) {
  std::string needle(1, '"');
  needle.append(key).append("\":");
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return false;
  const std::string rest(json.substr(at + needle.size()));
  char* end = nullptr;
  const double value = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return false;
  *out = value;
  return true;
}

bool extract_string(std::string_view json, std::string_view key,
                    std::string* out) {
  std::string needle(1, '"');
  needle.append(key).append("\":\"");
  const std::size_t at = json.find(needle);
  if (at == std::string_view::npos) return false;
  std::string value;
  for (std::size_t i = at + needle.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '\\' && i + 1 < json.size()) {
      const char esc = json[++i];
      value += esc == 'n' ? '\n' : esc;
      continue;
    }
    if (c == '"') {
      *out = std::move(value);
      return true;
    }
    value += c;
  }
  return false;
}

std::string bound_name(Bound bound) {
  return bound == Bound::kMin ? "min" : "max";
}

bool violates(const Tolerance& tol, double mean) {
  return tol.bound == Bound::kMin ? mean < tol.value : mean > tol.value;
}

std::string series_id(std::string_view bench, std::string_view name) {
  return std::string(bench) + ":" + std::string(name);
}

}  // namespace

std::vector<BenchSeries> parse_bench_lines(std::string_view origin,
                                           std::string_view text,
                                           GateReport& report) {
  std::vector<BenchSeries> out;
  std::size_t line_no = 0;
  for (const std::string_view line : split_lines(text)) {
    ++line_no;
    const std::size_t at = line.find(kPrefix);
    if (at == std::string_view::npos) continue;
    const std::string_view tail = line.substr(at + kPrefix.size());
    const std::size_t json_at = tail.find(kSuffix);
    if (json_at == std::string_view::npos) {
      report.errors.push_back(location(origin, line_no) +
                              ": BENCH line without '.json ' delimiter");
      continue;
    }
    BenchSeries series;
    series.bench = std::string(tail.substr(0, json_at));
    const std::string_view json = tail.substr(json_at + kSuffix.size());
    double samples = 0.0;
    if (!extract_string(json, "name", &series.name) ||
        !extract_number(json, "samples", &samples) ||
        !extract_number(json, "mean", &series.mean) ||
        !extract_number(json, "stddev", &series.stddev) ||
        !extract_number(json, "min", &series.min) ||
        !extract_number(json, "max", &series.max) ||
        !extract_number(json, "median", &series.median) ||
        !extract_number(json, "p90", &series.p90) ||
        !extract_number(json, "p99", &series.p99)) {
      report.errors.push_back(location(origin, line_no) +
                              ": BENCH line missing a required field");
      continue;
    }
    series.samples = static_cast<std::uint64_t>(samples);
    out.push_back(std::move(series));
  }
  return out;
}

std::vector<Tolerance> parse_tolerances(std::string_view origin,
                                        std::string_view text,
                                        GateReport& report) {
  std::vector<Tolerance> out;
  std::size_t line_no = 0;
  for (const std::string_view raw : split_lines(text)) {
    ++line_no;
    std::istringstream in{std::string(raw)};
    std::string target;
    std::string bound;
    std::string value;
    if (!(in >> target) || target[0] == '#') continue;
    if (!(in >> bound >> value)) {
      report.errors.push_back(location(origin, line_no) +
                              ": expected '<bench>:<series> min|max <value>'");
      continue;
    }
    Tolerance tol;
    const std::size_t colon = target.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == target.size()) {
      report.errors.push_back(location(origin, line_no) +
                              ": target must be <bench>:<series>");
      continue;
    }
    tol.bench = target.substr(0, colon);
    tol.series = target.substr(colon + 1);
    if (bound == "min") {
      tol.bound = Bound::kMin;
    } else if (bound == "max") {
      tol.bound = Bound::kMax;
    } else {
      report.errors.push_back(location(origin, line_no) +
                              ": bound must be min or max, got '" + bound +
                              "'");
      continue;
    }
    char* end = nullptr;
    tol.value = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      report.errors.push_back(location(origin, line_no) +
                              ": not a number: '" + value + "'");
      continue;
    }
    out.push_back(std::move(tol));
  }
  return out;
}

void check_baselines(const std::vector<BenchSeries>& baselines,
                     const std::vector<Tolerance>& tolerances,
                     GateReport& report) {
  std::map<std::string, const BenchSeries*> by_id;
  for (const BenchSeries& series : baselines) {
    by_id[series_id(series.bench, series.name)] = &series;
  }
  for (const Tolerance& tol : tolerances) {
    const std::string id = series_id(tol.bench, tol.series);
    const auto it = by_id.find(id);
    if (it == by_id.end()) {
      report.failures.push_back("tolerance " + id +
                                " has no committed baseline series");
      continue;
    }
    if (violates(tol, it->second->mean)) {
      std::ostringstream msg;
      msg << "baseline " << id << " mean " << it->second->mean << " violates "
          << bound_name(tol.bound) << " " << tol.value;
      report.failures.push_back(msg.str());
    } else {
      std::ostringstream msg;
      msg << id << " mean " << it->second->mean << " within "
          << bound_name(tol.bound) << " " << tol.value;
      report.notes.push_back(msg.str());
    }
  }
}

void gate_run(const std::vector<BenchSeries>& baselines,
              const std::vector<BenchSeries>& current,
              const std::vector<Tolerance>& tolerances, GateReport& report) {
  std::map<std::string, const BenchSeries*> current_by_id;
  std::vector<std::string> current_benches;
  for (const BenchSeries& series : current) {
    current_by_id[series_id(series.bench, series.name)] = &series;
    current_benches.push_back(series.bench);
  }
  std::sort(current_benches.begin(), current_benches.end());
  current_benches.erase(
      std::unique(current_benches.begin(), current_benches.end()),
      current_benches.end());
  const auto covered = [&](const std::string& bench) {
    return std::binary_search(current_benches.begin(), current_benches.end(),
                              bench);
  };

  // Bounded series: re-check the bound on the fresh mean. Absolute series
  // are deliberately not diffed mean-vs-mean — wall-clock numbers shift
  // with the host, so only declared (host-independent) bounds gate.
  for (const Tolerance& tol : tolerances) {
    if (!covered(tol.bench)) continue;  // this run didn't exercise the bench
    const std::string id = series_id(tol.bench, tol.series);
    const auto it = current_by_id.find(id);
    if (it == current_by_id.end()) {
      report.failures.push_back("bounded series " + id +
                                " missing from this run");
      continue;
    }
    if (violates(tol, it->second->mean)) {
      std::ostringstream msg;
      msg << "REGRESSION " << id << " mean " << it->second->mean
          << " violates " << bound_name(tol.bound) << " " << tol.value;
      report.failures.push_back(msg.str());
    } else {
      std::ostringstream msg;
      msg << id << " mean " << it->second->mean << " within "
          << bound_name(tol.bound) << " " << tol.value;
      report.notes.push_back(msg.str());
    }
  }

  // Presence: a series the baseline records must still be emitted by any
  // fresh run covering its bench (silently dropping a measurement is how
  // perf coverage rots).
  std::map<std::string, bool> seen_baseline;
  for (const BenchSeries& series : baselines) {
    const std::string id = series_id(series.bench, series.name);
    seen_baseline[id] = true;
    if (!covered(series.bench)) continue;
    if (current_by_id.find(id) == current_by_id.end()) {
      report.failures.push_back("series " + id +
                                " present in baselines but not in this run");
    }
  }
  for (const BenchSeries& series : current) {
    const std::string id = series_id(series.bench, series.name);
    if (seen_baseline.find(id) == seen_baseline.end()) {
      report.notes.push_back("new series " + id +
                             " (no baseline row yet — commit one)");
    }
  }
}

}  // namespace crowdmap::gate
