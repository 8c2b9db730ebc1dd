// Output pins for streamed sessions. Each row is the FNV-1a of every
// reply one scheduler configuration gives over a set of streams:
//   * every task.release reply: task, allocation, and the hexfloats of
//     ready, start, end and projected_makespan, and
//   * the session.close reply: its canonical schedule
//     (check::canonical_schedule), num_events and stats.reschedules.
// Rows cover every standard_suite(0.25) spec under all five queue
// policies (the session's policy override) and the level and contiguous
// engine variants. The streams are a check:: corpus sample, one
// 50-wide layered 1000-task session at P = 48 shaped like perfbench
// serve's, and three hand-built cases that stress where a release's task
// becomes available: a source released after 200 other tasks, a task
// whose only predecessor is task 0, and tasks whose reveal ties in time
// with lower ids.
//
// The constants were captured from sessions that re-ran the whole prefix
// on every release. Any change to a reply, to the close schedule or to
// the simulation count shows up as a hash diff.
//
// SessionPrefixDifferential checks the same streams release by release:
// every reply must equal an in-process SchedulerSpec::run on that
// prefix. That costs a full run per release, so it lives here and not
// in check::wire_roundtrip_check, which selfcheck runs on every
// instance.
//
// Regenerate (only when a reply is meant to change) with:
//   MOLDSCHED_PRINT_GOLDENS=1 ./moldsched_svc_tests
//     --gtest_filter='SessionReleasePinTest.*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "moldsched/check/corpus.hpp"
#include "moldsched/check/differential.hpp"
#include "moldsched/check/wire_check.hpp"
#include "moldsched/graph/generators.hpp"
#include "moldsched/model/sampler.hpp"
#include "moldsched/model/special_models.hpp"
#include "moldsched/sched/registry.hpp"
#include "moldsched/svc/session.hpp"
#include "moldsched/util/rng.hpp"

namespace moldsched::svc {
namespace {

constexpr std::uint64_t kSeed = 3141;
constexpr int kCorpusSample = 12;
constexpr double kMu = 0.25;
constexpr int kLayeredP = 48;

constexpr core::QueuePolicy kPolicies[] = {
    core::QueuePolicy::kFifo, core::QueuePolicy::kLifo,
    core::QueuePolicy::kLargestWorkFirst,
    core::QueuePolicy::kLongestMinTimeFirst,
    core::QueuePolicy::kSmallestAllocFirst};

struct Stream {
  std::string name;
  graph::TaskGraph graph;  ///< id order is topological: streams as is
  int P = 1;
};

/// Models drawn once from a fixed pool, so a generator's provider can
/// hand them out in turn.
graph::ModelProvider pool_provider(model::ModelKind kind, int P,
                                   std::uint64_t seed) {
  auto pool = std::make_shared<std::vector<model::ModelPtr>>();
  util::Rng rng(util::derive_seed(kSeed, seed));
  const model::ModelSampler sampler(kind);
  for (int i = 0; i < 64; ++i) pool->push_back(sampler.sample(rng, P));
  auto next = std::make_shared<std::size_t>(0);
  return [pool, next] { return (*pool)[(*next)++ % pool->size()]; };
}

graph::TaskGraph layered(int layers, int width, int P, std::uint64_t seed) {
  return check::relabel_topological(graph::layered_uniform(
      layers, width, 2, util::derive_seed(kSeed, seed),
      pool_provider(model::ModelKind::kGeneral, P, seed)));
}

/// Two identical sources that end together, their children, unrelated
/// work, and late tasks whose last predecessor is one of the two
/// sources: their reveal ties in time with lower ids revealed earlier.
graph::TaskGraph tie_graph() {
  graph::TaskGraph g;
  const auto twin = std::make_shared<model::RooflineModel>(4.0, 4);
  g.add_task(twin);                                           // 0
  g.add_task(twin);                                           // 1
  g.add_edge(0, g.add_task(std::make_shared<model::AmdahlModel>(3.0, 0.5)));
  g.add_edge(1, g.add_task(std::make_shared<model::AmdahlModel>(2.0, 0.25)));
  for (int i = 0; i < 16; ++i) {
    const graph::TaskId t = g.add_task(
        std::make_shared<model::AmdahlModel>(1.0 + 0.5 * i, 0.125));
    if (i % 3 != 0) g.add_edge(t - 1, t);
  }
  const graph::TaskId late =
      g.add_task(std::make_shared<model::RooflineModel>(2.0, 2));
  g.add_edge(1, late);
  const graph::TaskId both =
      g.add_task(std::make_shared<model::CommunicationModel>(6.0, 0.5));
  g.add_edge(0, both);
  g.add_edge(1, both);
  g.add_edge(late, g.add_task(std::make_shared<model::AmdahlModel>(1.5, 0.5)));
  return g;
}

const std::vector<Stream>& streams() {
  static const std::vector<Stream> all = [] {
    std::vector<Stream> out;
    util::Rng rng(kSeed);
    for (int i = 0; i < kCorpusSample; ++i) {
      check::CorpusInstance c = check::corpus_instance(rng);
      out.push_back({"corpus" + std::to_string(i),
                     check::relabel_topological(c.graph), c.P});
    }
    out.push_back({"layered", layered(20, 50, kLayeredP, 1), kLayeredP});

    // A source released after 200 tasks, then a task joining it with
    // the middle of the graph.
    graph::TaskGraph late = layered(4, 50, 16, 2);
    const graph::TaskId source = late.add_task(
        std::make_shared<model::AmdahlModel>(5.0, 0.25), "late-source");
    const graph::TaskId join =
        late.add_task(std::make_shared<model::RooflineModel>(3.0, 8));
    late.add_edge(source, join);
    late.add_edge(150, join);
    out.push_back({"late-source", std::move(late), 16});

    // A task whose only predecessor is task 0, then one on it and 0.
    graph::TaskGraph early = layered(3, 40, 12, 3);
    const graph::TaskId child =
        early.add_task(std::make_shared<model::AmdahlModel>(4.0, 0.5));
    early.add_edge(0, child);
    const graph::TaskId grandchild =
        early.add_task(std::make_shared<model::RooflineModel>(2.0, 4));
    early.add_edge(0, grandchild);
    early.add_edge(child, grandchild);
    out.push_back({"child-of-0", std::move(early), 12});

    out.push_back({"tie", tie_graph(), 8});
    return out;
  }();
  return all;
}

/// FNV-1a over everything appended.
class Fnv {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

ReleaseParams release_of(const graph::TaskGraph& g, graph::TaskId v) {
  ReleaseParams params;
  params.name = g.name(v);
  params.model = g.model_ptr(v);
  for (const graph::TaskId u : g.predecessors(v)) params.preds.push_back(u);
  params.expected_task = v;
  return params;
}

/// Streams every stream through one session each and hashes the replies.
std::uint64_t stream_hash(const std::string& scheduler,
                          core::QueuePolicy policy) {
  Fnv fnv;
  for (const Stream& s : streams()) {
    OpenParams open;
    open.scheduler = scheduler;
    open.P = s.P;
    open.mu = kMu;
    open.policy = policy;
    Session session(s.name, open);
    fnv.add(s.name + '\n');
    for (graph::TaskId v = 0; v < s.graph.num_tasks(); ++v) {
      const ReleaseReply r = session.release(release_of(s.graph, v));
      fnv.add(std::to_string(r.task) + ' ' + std::to_string(r.alloc) + ' ' +
              hex(r.ready) + ' ' + hex(r.start) + ' ' + hex(r.end) + ' ' +
              hex(r.projected_makespan) + '\n');
    }
    const CloseReply closed = session.close();
    fnv.add(check::canonical_schedule(check::result_from_close(closed)));
    fnv.add("events=" + std::to_string(closed.num_events) +
            " reschedules=" + std::to_string(closed.stats.reschedules) + '\n');
  }
  return fnv.value();
}

// {scheduler/policy, FNV-1a over all streams}.
struct PinRow {
  const char* name;
  std::uint64_t hash;
};

constexpr PinRow kPins[] = {
    // clang-format off
    {"capped-min-time/fifo", 0x84b9e811f8554816ULL},
    {"capped-min-time/largest-work", 0x47f48f9f0e577c97ULL},
    {"capped-min-time/lifo", 0x22e80166644b27bcULL},
    {"capped-min-time/longest-min-time", 0x9ebcee4909069c22ULL},
    {"capped-min-time/smallest-alloc", 0x411ce70b13fd19e8ULL},
    {"contiguous-lpa", 0x5cabf84f69b09f1bULL},
    {"fraction-1/4/fifo", 0x5a6d20ab7cbf1efcULL},
    {"fraction-1/4/largest-work", 0x83ce08089b39ca5cULL},
    {"fraction-1/4/lifo", 0xb636762500c39b38ULL},
    {"fraction-1/4/longest-min-time", 0xefdc132213c1a572ULL},
    {"fraction-1/4/smallest-alloc", 0xfde60cb4f7aeff13ULL},
    {"improved-lpa/fifo", 0xe943369a63e50c36ULL},
    {"improved-lpa/largest-work", 0x29b5c259f40f527bULL},
    {"improved-lpa/lifo", 0x8f64d3f0a0c4b04bULL},
    {"improved-lpa/longest-min-time", 0xac8f1ea3c3e63098ULL},
    {"improved-lpa/smallest-alloc", 0xeb3701097c30d951ULL},
    {"level-lpa", 0xcb1df2d987ae74b7ULL},
    {"lpa/fifo", 0xa7297983f7bf702fULL},
    {"lpa/largest-work", 0x164dbc53db784676ULL},
    {"lpa/lifo", 0x3d2fa810782dcceaULL},
    {"lpa/longest-min-time", 0x3bd475921c242db5ULL},
    {"lpa/smallest-alloc", 0x6e2677d1fb5c027eULL},
    {"min-time/fifo", 0xbcbdae107b6a17d4ULL},
    {"min-time/largest-work", 0x9b92f6aaf37110d4ULL},
    {"min-time/lifo", 0xe77115aa21b76e1bULL},
    {"min-time/longest-min-time", 0x98c224270abe85b1ULL},
    {"min-time/smallest-alloc", 0x8dd1ad36f0bb7599ULL},
    {"sequential/fifo", 0x6f2dfae3c586f74eULL},
    {"sequential/largest-work", 0x645d5dc055024c72ULL},
    {"sequential/lifo", 0x60c4fc7f89c0ddbeULL},
    {"sequential/longest-min-time", 0xc6b83522f16a377bULL},
    {"sequential/smallest-alloc", 0x6f2dfae3c586f74eULL},
    {"sqrt-p/fifo", 0x1a76444089d16291ULL},
    {"sqrt-p/largest-work", 0x54950262f9102622ULL},
    {"sqrt-p/lifo", 0x9fa9548ba7054cdbULL},
    {"sqrt-p/longest-min-time", 0x4105ff37d4e56e55ULL},
    {"sqrt-p/smallest-alloc", 0x62bd7eed62b44f42ULL},
    {"uncapped-lpa/fifo", 0xe29c8a9514a3c98fULL},
    {"uncapped-lpa/largest-work", 0x0739dcb00d4273b9ULL},
    {"uncapped-lpa/lifo", 0xa8190d24ade28d15ULL},
    {"uncapped-lpa/longest-min-time", 0xd88c55fe345dd946ULL},
    {"uncapped-lpa/smallest-alloc", 0x69e18801245cbc66ULL},
    // clang-format on
};

void expect_pins(const std::map<std::string, std::uint64_t>& got) {
  if (std::getenv("MOLDSCHED_PRINT_GOLDENS") != nullptr) {
    for (const auto& [name, hash] : got) {
      char buf[19];
      std::snprintf(buf, sizeof buf, "0x%016llx",
                    static_cast<unsigned long long>(hash));
      std::cout << "    {\"" << name << "\", " << buf << "ULL},\n";
    }
    GTEST_SKIP() << "golden print mode";
  }
  for (const auto& [name, hash] : got) {
    bool pinned = false;
    for (const PinRow& row : kPins) {
      if (name != row.name) continue;
      pinned = true;
      EXPECT_EQ(hash, row.hash) << name;
    }
    EXPECT_TRUE(pinned) << "row without a pin: " << name;
  }
}

/// Every queue policy for a standard_suite spec.
void expect_policy_pins(const std::string& scheduler) {
  std::map<std::string, std::uint64_t> got;
  for (const core::QueuePolicy policy : kPolicies)
    got[scheduler + "/" + core::to_string(policy)] =
        stream_hash(scheduler, policy);
  expect_pins(got);
}

TEST(SessionReleasePinTest, Lpa) { expect_policy_pins("lpa"); }
TEST(SessionReleasePinTest, ImprovedLpa) {
  expect_policy_pins("improved-lpa");
}
TEST(SessionReleasePinTest, MinTime) { expect_policy_pins("min-time"); }
TEST(SessionReleasePinTest, Sequential) { expect_policy_pins("sequential"); }
TEST(SessionReleasePinTest, CappedMinTime) {
  expect_policy_pins("capped-min-time");
}
TEST(SessionReleasePinTest, UncappedLpa) {
  expect_policy_pins("uncapped-lpa");
}
TEST(SessionReleasePinTest, SqrtP) { expect_policy_pins("sqrt-p"); }
TEST(SessionReleasePinTest, Fraction) { expect_policy_pins("fraction-1/4"); }

TEST(SessionReleasePinTest, EveryStandardSpecIsPinned) {
  std::size_t pinned = 0;
  for (const auto& spec : sched::standard_suite(kMu))
    for (const PinRow& row : kPins)
      if (std::string(row.name).rfind(spec.name + "/", 0) == 0) ++pinned;
  EXPECT_EQ(pinned, sched::standard_suite(kMu).size() * std::size(kPolicies));
}

/// The engine variants run the full prefix through their runner; the
/// session's policy does not reach them.
TEST(SessionReleasePinTest, EngineVariants) {
  expect_pins({{"level-lpa", stream_hash("level-lpa", core::QueuePolicy::kFifo)},
               {"contiguous-lpa",
                stream_hash("contiguous-lpa", core::QueuePolicy::kFifo)}});
}

/// Streams every stream and checks each release reply, and the close
/// reply, against an in-process run of the spec on the same prefix.
void expect_prefix_runs(const std::string& scheduler,
                        core::QueuePolicy policy) {
  sched::SchedulerSpec spec = sched::spec_by_name(scheduler, kMu);
  spec.policy = policy;
  const std::string config = scheduler + "/" + core::to_string(policy);
  for (const Stream& s : streams()) {
    OpenParams open;
    open.scheduler = scheduler;
    open.P = s.P;
    open.mu = kMu;
    open.policy = policy;
    Session session(s.name, open);
    graph::TaskGraph prefix;
    core::ScheduleResult ref;
    for (graph::TaskId v = 0; v < s.graph.num_tasks(); ++v) {
      const ReleaseReply r = session.release(release_of(s.graph, v));
      prefix.add_task(s.graph.model_ptr(v), s.graph.name(v));
      for (const graph::TaskId u : s.graph.predecessors(v))
        prefix.add_edge(u, v);
      ref = spec.run(prefix, s.P);
      const auto t = static_cast<std::size_t>(v);
      const sim::TaskRecord* rec = ref.trace.find(v);
      ASSERT_NE(rec, nullptr);
      if (r.task != v || r.alloc != ref.allocation[t] ||
          r.ready != ref.ready_time[t] || r.start != rec->start ||
          r.end != rec->end || r.projected_makespan != ref.makespan) {
        ADD_FAILURE() << config << " " << s.name << ": release " << v
                      << " replied alloc " << r.alloc << " ready "
                      << hex(r.ready) << " start " << hex(r.start) << " end "
                      << hex(r.end) << " makespan "
                      << hex(r.projected_makespan) << "; the prefix run has "
                      << ref.allocation[t] << " " << hex(ref.ready_time[t])
                      << " " << hex(rec->start) << " " << hex(rec->end) << " "
                      << hex(ref.makespan);
        return;
      }
    }
    const CloseReply closed = session.close();
    EXPECT_EQ(check::canonical_schedule(check::result_from_close(closed)),
              check::canonical_schedule(ref))
        << config << " " << s.name;
  }
}

void expect_prefix_runs(const std::string& scheduler) {
  for (const core::QueuePolicy policy : kPolicies)
    expect_prefix_runs(scheduler, policy);
}

TEST(SessionPrefixDifferential, Lpa) { expect_prefix_runs("lpa"); }
TEST(SessionPrefixDifferential, ImprovedLpa) {
  expect_prefix_runs("improved-lpa");
}
TEST(SessionPrefixDifferential, MinTime) { expect_prefix_runs("min-time"); }
TEST(SessionPrefixDifferential, Sequential) {
  expect_prefix_runs("sequential");
}
TEST(SessionPrefixDifferential, CappedMinTime) {
  expect_prefix_runs("capped-min-time");
}
TEST(SessionPrefixDifferential, UncappedLpa) {
  expect_prefix_runs("uncapped-lpa");
}
TEST(SessionPrefixDifferential, SqrtP) { expect_prefix_runs("sqrt-p"); }
TEST(SessionPrefixDifferential, Fraction) {
  expect_prefix_runs("fraction-1/4");
}

}  // namespace
}  // namespace moldsched::svc
