// Entry point and shared harness of the repository benchmark.
//
//   perfbench --workload scale|serve|suites --seed N --seconds S
//             --trace 0|1 --out-dir DIR
//
// Prints a human-readable table (every metric with unit and sample
// count), a run-metadata line, and as the last line the result object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when any
// correctness gate fails, 2 on a usage error.
#include "bench.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "moldsched/obs/process_stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---------------------------------------------------------------------------
// Spans.

std::size_t Lane::begin(const char* name, std::string session) {
  Span s;
  s.id = tracer_.next_id();
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.name = name;
  s.session = std::move(session);
  s.start_ns = tracer_.now_ns();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Lane::end(std::size_t slot) {
  spans_[slot].end_ns = tracer_.now_ns();
  open_.pop_back();
}

void Lane::tag_open_spans(const std::string& session) {
  for (const std::size_t i : open_) spans_[i].session = session;
}

Lane& Tracer::open_lane() {
  const std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(
      std::make_unique<Lane>(*this, static_cast<int>(lanes_.size())));
  return *lanes_.back();
}

std::vector<const Lane*> Tracer::lanes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<const Lane*> out;
  for (const auto& l : lanes_) out.push_back(l.get());
  return out;
}

std::map<std::string, SpanTotals> span_totals(const Tracer& tracer) {
  std::map<std::string, SpanTotals> out;
  for (const Lane* lane : tracer.lanes()) {
    // Children of one span are sequential on its lane and nested inside
    // it, so the part of a span they cover is the sum of their lengths.
    std::map<std::uint64_t, std::int64_t> child_ns;
    for (const Span& s : lane->spans())
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    for (const Span& s : lane->spans()) {
      const std::int64_t total = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
      SpanTotals& t = out[s.name];
      t.self_s += static_cast<double>(total - covered) * 1e-9;
      ++t.count;
    }
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quoted(const std::string& s) { return '"' + json_escape(s) + '"'; }

/// Every digit of a double (17 significant), as JSON; non-finite -> null.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (const Lane* lane : tracer.lanes()) {
    for (const Span& s : lane->spans()) {
      out << (first ? "" : ",\n") << "{\"id\":" << s.id
          << ",\"parent\":" << s.parent << ",\"lane\":" << lane->index()
          << ",\"name\":" << quoted(s.name)
          << ",\"session\":" << quoted(s.session)
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << '}';
      first = false;
    }
  }
  out << "\n]\n";
}

void add_span_extras(Report& report, const Tracer& tracer) {
  for (const auto& [name, t] : span_totals(tracer)) {
    report.add_extra("self_s." + name, t.self_s, "s", t.count,
                     "span total minus child spans");
  }
}

// ---------------------------------------------------------------------------
// Statistics.

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {
volatile long g_sink = 0;  // keeps timed allocate() results observable
}  // namespace

double ns_per_allocation(const moldsched::core::Allocator& alloc,
                         const std::vector<moldsched::model::ModelPtr>& models,
                         int P) {
  long sink = 0;
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& m : models) sink += alloc.allocate(*m, P);
    calls += models.size();
  } while (seconds_between(t0, Clock::now()) < 0.05);
  g_sink = sink;
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(calls);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

void Report::count(const std::string& name, double value) {
  const auto [it, inserted] = exact_counts.emplace(name, value);
  if (!inserted && it->second != value)
    fail("exact count " + name + " changed between rounds: " +
         number(it->second) + " then " + number(value));
}

void Report::rounds(const std::vector<double>& wall_s) {
  std::string list = "[";
  for (std::size_t i = 0; i < wall_s.size(); ++i)
    list += (i ? ", " : "") + number(wall_s[i]);
  meta["rounds"] = std::to_string(wall_s.size());
  meta["round_wall_s"] = list + "]";
}

double peak_rss_mb() {
  return moldsched::obs::read_peak_rss_bytes() / (1024.0 * 1024.0);
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  return 0;
}

namespace {

// ---------------------------------------------------------------------------
// Exact counts across runs: each run of one seed leaves its counts in
// the output directory; the next run of the same seed by the same
// binary must reproduce every count both recorded.

std::string binary_stamp() {
  std::error_code ec;
  const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return "unknown";
  const auto size = std::filesystem::file_size(exe, ec);
  const auto mtime = std::filesystem::last_write_time(exe, ec);
  return std::to_string(size) + ":" +
         std::to_string(mtime.time_since_epoch().count());
}

void check_counts_across_runs(const Options& options, Report& report) {
  const std::string path = options.out_dir + "/counts-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".txt";
  const std::string stamp = binary_stamp();
  std::map<std::string, double> previous;
  bool same_binary = false;
  {
    std::ifstream in(path);
    std::string key;
    std::string value;
    if (in >> key >> value && key == "binary" && value == stamp) {
      same_binary = true;
      while (in >> key >> value) previous[key] = std::strtod(value.c_str(), nullptr);
    }
  }
  std::uint64_t compared = 0;
  if (same_binary) {
    for (const auto& [name, value] : report.exact_counts) {
      const auto it = previous.find(name);
      if (it == previous.end()) continue;
      ++compared;
      if (it->second != value)
        report.fail("exact count " + name + " differs from an earlier run "
                    "of this seed: " + number(it->second) + " then " +
                    number(value));
    }
  }
  report.meta["exact_counts_compared_with_earlier_run"] =
      std::to_string(compared);
  for (const auto& [name, value] : report.exact_counts) previous[name] = value;
  std::ofstream out(path);
  out << "binary " << stamp << '\n';
  for (const auto& [name, value] : previous)
    out << name << ' ' << number(value) << '\n';
}

/// Steal and total jiffies of all CPUs (/proc/stat). Steal is time the
/// host ran something else while this machine had work to do.
std::pair<double, double> cpu_steal_and_total() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Restricts the process, and every thread it starts later, to the last
/// CPU it may run on, and returns that CPU (-1 if it could not). On a
/// virtual machine sharing its host, each hand-off between threads on
/// different vCPUs waits for the host to run the woken vCPU, and that
/// wait grows with the host's load: on a 4-vCPU VM, serve's median round
/// varied 2.3x between runs minutes apart unpinned and 1.4x pinned. The
/// thread counts of the workloads are unchanged; they share the CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

long long llc_bytes() {
  long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v <= 0) v = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return v;
}

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string metric_line(const Metric& m) {
  std::ostringstream os;
  os << "  " << m.name << " = " << number(m.value) << ' ' << m.unit
     << "  (n=" << m.samples << ")";
  if (!m.note.empty()) os << "  [" << m.note << ']';
  return os.str();
}

std::string metric_json(const Metric& m) {
  return quoted(m.name) + ": {\"value\": " + number(m.value) +
         ", \"unit\": " + quoted(m.unit) +
         ", \"samples\": " + std::to_string(m.samples) +
         (m.note.empty() ? "" : ", \"note\": " + quoted(m.note)) + "}";
}

int usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload scale|serve|suites --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--out-dir") options.out_dir = value;
      else return usage("unknown flag " + flag);
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload != "scale" && options.workload != "serve" &&
      options.workload != "suites")
    return usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  options.nproc = online > 0 ? static_cast<unsigned>(online) : 1U;
  std::filesystem::create_directories(options.out_dir);

  if (!kOptimized)
    std::cerr << "perfbench: WARNING: built without optimisation; these "
                 "numbers measure a different program\n";

  const int cpu = pin_to_one_cpu();
  const auto steal0 = cpu_steal_and_total();
  Report report;
  try {
    if (options.workload == "scale") run_scale(options, report);
    else if (options.workload == "serve") run_serve(options, report);
    else run_suites(options, report);
  } catch (const std::exception& e) {
    report.fail(std::string("workload aborted: ") + e.what());
  }
  const auto steal1 = cpu_steal_and_total();
  const double jiffies = steal1.second - steal0.second;
  report.meta["host_steal_share"] =
      number(jiffies > 0 ? (steal1.first - steal0.first) / jiffies : 0.0);
  check_counts_across_runs(options, report);
  if (report.attempted == 0) report.fail("no operation was attempted");

  const double error_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  report.add_extra("error_rate", error_rate, "ratio", report.attempted,
                   "failed / attempted");
  for (const auto& m : report.metrics)
    if (!std::isfinite(m.value)) report.fail("metric " + m.name + " is not finite");
  const bool correct = report.failures.empty();

  std::ostringstream meta;
  meta << "{\"workload\": " << quoted(options.workload)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << number(options.seconds)
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"nproc\": " << options.nproc
       << ", \"compiler\": " << quoted(__VERSION__)
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"optimized\": " << (kOptimized ? "true" : "false")
       << ", \"llc_bytes\": " << llc_bytes()
       << ", \"pinned_cpu\": " << cpu;
  for (const auto& [key, value] : report.meta)
    meta << ", " << quoted(key) << ": " << value;
  meta << '}';

  std::cout << "perfbench " << options.workload << " seed=" << options.seed
            << (options.trace ? " traced" : " untraced") << '\n';
  for (const auto& m : report.metrics) std::cout << metric_line(m) << '\n';
  for (const auto& m : report.extra) std::cout << metric_line(m) << '\n';
  for (const auto& [name, value] : report.exact_counts)
    std::cout << "  exact " << name << " = " << number(value) << '\n';
  for (const auto& f : report.failures) std::cout << "  GATE FAILED: " << f << '\n';
  std::cout << "meta " << meta.str() << '\n';

  std::ostringstream record;
  record << "{\n\"meta\": " << meta.str() << ",\n\"correct\": "
         << (correct ? "true" : "false") << ",\n\"attempted\": "
         << report.attempted << ",\n\"failed\": " << report.failed
         << ",\n\"failures\": [";
  for (std::size_t i = 0; i < report.failures.size(); ++i)
    record << (i ? ", " : "") << quoted(report.failures[i]);
  record << "],\n\"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i)
    record << (i ? ",\n  " : "\n  ") << metric_json(report.metrics[i]);
  record << "},\n\"extra\": {";
  for (std::size_t i = 0; i < report.extra.size(); ++i)
    record << (i ? ",\n  " : "\n  ") << metric_json(report.extra[i]);
  record << "},\n\"exact_counts\": {";
  bool first = true;
  for (const auto& [name, value] : report.exact_counts) {
    record << (first ? "" : ", ") << quoted(name) << ": " << number(value);
    first = false;
  }
  record << "}\n}\n";
  std::ofstream(options.out_dir + "/" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" +
                (options.trace ? "1" : "0") + ".json")
      << record.str();

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::cout << (i ? ", " : "") << quoted(m.name)
              << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << quoted(m.unit) << '}';
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
