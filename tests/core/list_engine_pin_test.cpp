// Output pins for every scheduler that runs on core::ListEngine. Each
// row is the FNV-1a of one scheduler's outputs under one queue policy,
// over a sample of the check:: corpus and two deep-queue instances:
//   * the canonical schedule (check::canonical_schedule: makespan,
//     events, allocations and every trace record as hexfloats), and
//   * the scheduler's extra outputs: online's ready times and observer
//     callbacks (with their queue_size arguments), release wait times,
//     level finishes, contiguous first processors and fragmentation
//     wait, and resilient attempts.
// The constants were captured from the flat waiting queue that was
// scanned linearly at every event. Any change to a start sequence, to
// the queue sizes the hooks see, or to an extra output shows up as a
// hash diff, under every queue order and not only FIFO.
//
// Regenerate (only when a schedule is meant to change) with:
//   MOLDSCHED_PRINT_GOLDENS=1 ./moldsched_core_tests
//     --gtest_filter='ListEnginePinTest.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "moldsched/check/corpus.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/core/allocator.hpp"
#include "moldsched/core/online_scheduler.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/model/general_model.hpp"
#include "moldsched/obs/observer.hpp"
#include "moldsched/resilience/failure_model.hpp"
#include "moldsched/resilience/resilient_scheduler.hpp"
#include "moldsched/sched/backfill_scheduler.hpp"
#include "moldsched/sched/contiguous_scheduler.hpp"
#include "moldsched/sched/level_scheduler.hpp"
#include "moldsched/sched/offline.hpp"
#include "moldsched/sched/release_scheduler.hpp"
#include "moldsched/util/rng.hpp"

namespace moldsched::core {
namespace {

constexpr std::uint64_t kSeed = 2718;
constexpr int kCorpusSample = 12;
constexpr int kDeepP = 256;

constexpr QueuePolicy kPolicies[] = {
    QueuePolicy::kFifo, QueuePolicy::kLifo, QueuePolicy::kLargestWorkFirst,
    QueuePolicy::kLongestMinTimeFirst, QueuePolicy::kSmallestAllocFirst};

/// FNV-1a over a stream of values; doubles go in by their bits.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  template <class T>
    requires std::is_arithmetic_v<T>
  void add(T v) {
    bytes(&v, sizeof v);
  }
  void add(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
  template <class T>
  void add(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Allocations spread over all of [1, P], read off the model so that
/// every scheduler taking an Allocator sees the same spread.
class SpanAllocator : public Allocator {
 public:
  int allocate(const model::SpeedupModel& m, int P) const override {
    return 1 + static_cast<int>(static_cast<long long>(m.time(1) * 1e3) % P);
  }
  std::string name() const override { return "span"; }
};

struct Instance {
  std::string name;
  graph::TaskGraph graph;
  int P = 1;
  std::shared_ptr<const Allocator> alloc;
  /// list_schedule_with_allocations' input: the allocator's decisions,
  /// or a fixed vector spanning [1, P] for the span instance.
  std::vector<int> allocations;
};

/// A scale-like layered DAG: 10 layers of 2000 tasks, out-degree 2,
/// models cycled from a pool of 64 Eq. (1) models. At P = 256 the
/// waiting queue runs hundreds of entries deep.
graph::TaskGraph deep_graph(std::uint64_t seed) {
  util::Rng rng(util::derive_seed(kSeed, seed));
  std::vector<model::ModelPtr> pool;
  for (int i = 0; i < 64; ++i) {
    model::GeneralParams params;
    params.w = rng.log_uniform(1.0, 100.0);
    params.d = rng.log_uniform(0.01, 1.0);
    params.c = rng.log_uniform(1e-4, 1e-2);
    params.pbar = static_cast<int>(rng.uniform_int(4, 256));
    pool.push_back(std::make_shared<model::GeneralModel>(params));
  }
  std::size_t next = 0;
  return graph::layered_uniform(10, 2000, 2, util::derive_seed(seed, 1),
                                [&] { return pool[next++ % pool.size()]; });
}

const std::vector<Instance>& instances() {
  static const std::vector<Instance> all = [] {
    std::vector<Instance> out;
    util::Rng rng(kSeed);
    for (int i = 0; i < kCorpusSample; ++i) {
      check::CorpusInstance c = check::corpus_instance(rng);
      out.push_back({"corpus" + std::to_string(i), std::move(c.graph), c.P,
                     std::make_shared<LpaAllocator>(c.mu), {}});
    }
    out.push_back({"deep", deep_graph(1), kDeepP,
                   std::make_shared<LpaAllocator>(0.25), {}});
    out.push_back({"span", deep_graph(2), kDeepP,
                   std::make_shared<SpanAllocator>(), {}});
    for (Instance& inst : out) {
      const int n = inst.graph.num_tasks();
      for (graph::TaskId v = 0; v < n; ++v)
        inst.allocations.push_back(
            inst.name == "span"
                ? 1 + static_cast<int>((static_cast<long long>(v) * 97) %
                                       inst.P)
                : inst.alloc->allocate(inst.graph.model_of(v), inst.P));
    }
    return out;
  }();
  return all;
}

void add_schedule(Fnv& fnv, const ScheduleResult& r) {
  fnv.add(check::canonical_schedule(r));
}

void add_schedule(Fnv& fnv, const sim::Trace& trace, double makespan,
                  const std::vector<int>& allocation) {
  ScheduleResult r;
  r.trace = trace;
  r.makespan = makespan;
  r.allocation = allocation;
  add_schedule(fnv, r);
}

/// Records every simulated-scheduler callback with its arguments.
class RecordingObserver : public obs::Observer {
 public:
  explicit RecordingObserver(Fnv& fnv) : fnv_(fnv) {}
  void on_task_ready(int task, const std::string&, double time, int alloc,
                     int alloc_cap, std::size_t queue_depth) override {
    fnv_.add('r');
    fnv_.add(task);
    fnv_.add(time);
    fnv_.add(alloc);
    fnv_.add(alloc_cap);
    fnv_.add(queue_depth);
  }
  void on_task_start(int task, const std::string&, const std::string&,
                     double time, int procs, double waited, int layer,
                     std::size_t queue_depth, int procs_in_use) override {
    fnv_.add('s');
    fnv_.add(task);
    fnv_.add(time);
    fnv_.add(procs);
    fnv_.add(waited);
    fnv_.add(layer);
    fnv_.add(queue_depth);
    fnv_.add(procs_in_use);
  }
  void on_task_end(int task, double time, int procs, double exec_time,
                   std::size_t queue_depth, int procs_in_use) override {
    fnv_.add('e');
    fnv_.add(task);
    fnv_.add(time);
    fnv_.add(procs);
    fnv_.add(exec_time);
    fnv_.add(queue_depth);
    fnv_.add(procs_in_use);
  }
  void on_sim_done(double makespan, double waiting_area,
                   double executing_area, std::uint64_t num_events) override {
    fnv_.add('d');
    fnv_.add(makespan);
    fnv_.add(waiting_area);
    fnv_.add(executing_area);
    fnv_.add(num_events);
  }

 private:
  Fnv& fnv_;
};

std::vector<sched::ReleasedTask> released_tasks(const Instance& inst) {
  // Arrivals spread over the serial work divided by P: the allocations'
  // extra area keeps the queue deep.
  const graph::TaskGraph& g = inst.graph;
  double work = 0.0;
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v)
    work += g.model_of(v).time(1);
  util::Rng rng(util::derive_seed(kSeed, 3));
  std::vector<sched::ReleasedTask> tasks;
  for (graph::TaskId v = 0; v < g.num_tasks(); ++v)
    tasks.push_back({g.model_ptr(v),
                     rng.uniform(0.0, work / inst.P), ""});
  return tasks;
}

// {scheduler/policy, FNV-1a over all instances}.
struct PinRow {
  const char* name;
  std::uint64_t hash;
};

constexpr PinRow kPins[] = {
    // clang-format off
    {"backfill/fifo", 0xa273b7520f7e8babULL},
    {"contiguous/fifo", 0xe33a623217bf4191ULL},
    {"contiguous/largest-work", 0x87e2d3bf3ad3f660ULL},
    {"contiguous/lifo", 0xe00c9d7539e79550ULL},
    {"contiguous/longest-min-time", 0x1c4d8ec80903a8eeULL},
    {"contiguous/smallest-alloc", 0x19474b7793347653ULL},
    {"level/fifo", 0xf14c93f298774ba0ULL},
    {"observed/fifo", 0xe4b22455264b275fULL},
    {"observed/largest-work", 0xda16f4290805b2d4ULL},
    {"observed/lifo", 0x1aeea8fa905ef7b3ULL},
    {"observed/longest-min-time", 0xe139cdae360be42eULL},
    {"observed/smallest-alloc", 0x46e1878adf49d522ULL},
    {"offline/fixed-allocations", 0x41b8f2707932abe5ULL},
    {"offline/sweep", 0x5b3110a9ce6042e4ULL},
    {"online/fifo", 0x261e05d7f793fccfULL},
    {"online/largest-work", 0x1d2ea0fd0e23b0cbULL},
    {"online/lifo", 0xef84013ef833f9c4ULL},
    {"online/longest-min-time", 0xcbedafdc029eff08ULL},
    {"online/smallest-alloc", 0xfebd761762c3b320ULL},
    {"release/fifo", 0x8d82a9a91cb32388ULL},
    {"release/largest-work", 0x61e368e8f6ddf172ULL},
    {"release/lifo", 0xd9d940e029650b89ULL},
    {"release/longest-min-time", 0x28ae9f1714da9d51ULL},
    {"release/smallest-alloc", 0xcb7f2aa97b7945c2ULL},
    {"resilient/fifo", 0x070fe93989e1ca9cULL},
    {"resilient/largest-work", 0x8b48cd1d38dcbe02ULL},
    {"resilient/lifo", 0x37f6b6ac4e89a03aULL},
    {"resilient/longest-min-time", 0x98effee27bd42d8dULL},
    {"resilient/smallest-alloc", 0x31a8cefdffd2022eULL},
    // clang-format on
};

/// Compares the computed rows of one scheduler with kPins; in print
/// mode prints them instead.
void expect_pins(const std::string& scheduler,
                 const std::map<std::string, std::uint64_t>& got) {
  if (std::getenv("MOLDSCHED_PRINT_GOLDENS") != nullptr) {
    for (const auto& [name, hash] : got) {
      char buf[19];
      std::snprintf(buf, sizeof buf, "0x%016llx",
                    static_cast<unsigned long long>(hash));
      std::cout << "    {\"" << name << "\", " << buf << "ULL},\n";
    }
    GTEST_SKIP() << "golden print mode";
  }
  std::size_t pinned = 0;
  for (const PinRow& row : kPins) {
    const std::string name = row.name;
    if (name.rfind(scheduler + "/", 0) != 0) continue;
    ++pinned;
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << "pinned row not computed: " << name;
    EXPECT_EQ(it->second, row.hash) << name;
  }
  EXPECT_EQ(pinned, got.size()) << scheduler << ": rows without a pin";
}

std::string row(const std::string& scheduler, QueuePolicy policy) {
  return scheduler + "/" + to_string(policy);
}

TEST(ListEnginePinTest, Online) {
  std::map<std::string, std::uint64_t> got;
  for (const QueuePolicy policy : kPolicies) {
    Fnv fnv;
    for (const Instance& inst : instances()) {
      const auto r = schedule_online(inst.graph, inst.P, *inst.alloc, policy);
      add_schedule(fnv, r);
      fnv.add(r.ready_time);
    }
    got[row("online", policy)] = fnv.value();
  }
  expect_pins("online", got);
}

TEST(ListEnginePinTest, OnlineObserved) {
  std::map<std::string, std::uint64_t> got;
  for (const QueuePolicy policy : kPolicies) {
    Fnv fnv;
    for (const Instance& inst : instances()) {
      RecordingObserver observer(fnv);
      const auto r = schedule_online(inst.graph, inst.P, *inst.alloc, policy,
                                     &observer);
      add_schedule(fnv, r);
      fnv.add(r.ready_time);
    }
    got[row("observed", policy)] = fnv.value();
  }
  expect_pins("observed", got);
}

TEST(ListEnginePinTest, Release) {
  std::map<std::string, std::uint64_t> got;
  for (const QueuePolicy policy : kPolicies) {
    Fnv fnv;
    for (const Instance& inst : instances()) {
      const auto r = sched::OnlineReleaseScheduler(released_tasks(inst),
                                                   inst.P, *inst.alloc, policy)
                         .run();
      add_schedule(fnv, r.trace, r.makespan, r.allocation);
      fnv.add(r.wait_time);
    }
    got[row("release", policy)] = fnv.value();
  }
  expect_pins("release", got);
}

TEST(ListEnginePinTest, Level) {
  Fnv fnv;
  for (const Instance& inst : instances()) {
    const auto r = sched::schedule_level_by_level(inst.graph, inst.P,
                                                  *inst.alloc);
    add_schedule(fnv, r.trace, r.makespan, r.allocation);
    fnv.add(r.level_finish);
  }
  expect_pins("level", {{row("level", QueuePolicy::kFifo), fnv.value()}});
}

TEST(ListEnginePinTest, Offline) {
  Fnv offline;
  Fnv fixed;
  for (const Instance& inst : instances()) {
    const auto r = sched::OfflineTradeoffScheduler(inst.graph, inst.P, 4).run();
    add_schedule(offline, r.trace, r.makespan, r.allocation);
    offline.add(r.winning_target);

    // Static priorities over fixed allocations: the wl-* columns' path.
    std::vector<double> times;
    for (graph::TaskId v = 0; v < inst.graph.num_tasks(); ++v)
      times.push_back(inst.graph.model_of(v).time(
          inst.allocations[static_cast<std::size_t>(v)]));
    const auto trace = sched::list_schedule_with_allocations(
        inst.graph, inst.P, inst.allocations,
        graph::bottom_levels(inst.graph, times));
    add_schedule(fixed, trace, trace.makespan(), inst.allocations);
  }
  expect_pins("offline",
              {{"offline/sweep", offline.value()},
               {"offline/fixed-allocations", fixed.value()}});
}

TEST(ListEnginePinTest, Backfill) {
  Fnv fnv;
  for (const Instance& inst : instances())
    add_schedule(fnv, sched::schedule_online_backfill(inst.graph, inst.P,
                                                      *inst.alloc));
  expect_pins("backfill",
              {{row("backfill", QueuePolicy::kFifo), fnv.value()}});
}

TEST(ListEnginePinTest, Contiguous) {
  std::map<std::string, std::uint64_t> got;
  for (const QueuePolicy policy : kPolicies) {
    Fnv fnv;
    for (const Instance& inst : instances()) {
      const auto r = sched::schedule_online_contiguous(inst.graph, inst.P,
                                                       *inst.alloc, policy);
      add_schedule(fnv, r.base);
      fnv.add(r.first_processor);
      fnv.add(r.fragmentation_wait);
    }
    got[row("contiguous", policy)] = fnv.value();
  }
  expect_pins("contiguous", got);
}

TEST(ListEnginePinTest, Resilient) {
  std::map<std::string, std::uint64_t> got;
  const auto failures = std::make_shared<resilience::BernoulliFailures>(0.2);
  for (const QueuePolicy policy : kPolicies) {
    Fnv fnv;
    for (const Instance& inst : instances()) {
      const auto r = resilience::ResilientOnlineScheduler(
                         inst.graph, inst.P, *inst.alloc, failures, kSeed,
                         policy)
                         .run();
      fnv.add(r.makespan);
      fnv.add(r.allocation);
      fnv.add(r.attempts_per_task);
      fnv.add(r.total_area);
      fnv.add(r.wasted_area);
      for (const resilience::Attempt& a : r.attempts) {
        fnv.add(a.task);
        fnv.add(a.attempt);
        fnv.add(a.start);
        fnv.add(a.end);
        fnv.add(a.procs);
        fnv.add(a.failed);
      }
    }
    got[row("resilient", policy)] = fnv.value();
  }
  expect_pins("resilient", got);
}

}  // namespace
}  // namespace moldsched::core
