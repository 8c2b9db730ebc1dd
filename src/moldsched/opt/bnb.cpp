#include "moldsched/opt/bnb.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "moldsched/analysis/bounds.hpp"
#include "moldsched/graph/algorithms.hpp"
#include "moldsched/opt/wu_loiseau.hpp"
#include "moldsched/sched/offline.hpp"

namespace moldsched::opt {

std::string to_string(BnbStatus status) {
  switch (status) {
    case BnbStatus::kExact:
      return "exact";
    case BnbStatus::kBounded:
      return "bounded";
    case BnbStatus::kTimedOut:
      return "timed-out";
  }
  return "unknown";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bound pruning keeps subtrees whose lower bound is within this relative
// slack of the incumbent: the slack absorbs ulp-level rounding in the
// bound arithmetic, so a subtree containing the optimum is never cut —
// the precondition for bit-exact agreement with the unpruned enumeration.
constexpr double kBoundSlack = 1.0 + 1e-12;

// Dominance cuts on a *strictly earlier* revisit keep this relative
// safety margin: "shift the later visit's completions back by the time
// difference" is a real-arithmetic argument, and the margin keeps it
// valid under double rounding. Equal-time revisits are exact
// transpositions (identical absolute arithmetic) and are always cut.
constexpr double kMemoMargin = 1e-9;

// n is bounded by the started-set bitmask in the memo key.
constexpr int kHardTaskCap = 63;

std::uint64_t double_bits(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// One branching decision: start `task` with `procs`, or advance to the
/// next completion when task == -1.
struct Decision {
  graph::TaskId task = -1;
  int procs = 0;
};

struct Running {
  graph::TaskId task;
  double finish;
  int procs;
};

using MemoKey = std::vector<std::uint64_t>;

struct MemoKeyHash {
  std::size_t operator()(const MemoKey& key) const noexcept {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over 64-bit words
    for (const std::uint64_t w : key) {
      h ^= w;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// State shared between concurrent value-phase subsearches (and reused,
/// fresh, by the serial certificate pass).
struct Shared {
  std::atomic<double> best{kInf};  ///< value incumbent (atomic min)
  std::atomic<long> nodes{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> budget_hit{false};
  std::atomic<bool> timed_out{false};
  std::atomic<bool> found{false};  ///< certificate: optimal leaf reached
  long node_budget = 0;
  engine::CancelToken token;

  std::mutex mu;  // guards everything below
  std::vector<int> best_alloc;
  std::vector<double> best_start;
  bool improved = false;
  double abort_lb = kInf;  ///< min lower bound over abandoned subtrees
  long memo_hits = 0;
  std::size_t memo_entries = 0;
};

class Search {
 public:
  enum class Mode { kValue, kCertificate };

  Search(const graph::TaskGraph& g, int P, Shared* shared, Mode mode,
         bool use_bound, bool use_memo, std::size_t memo_limit)
      : g_(g),
        P_(P),
        shared_(shared),
        mode_(mode),
        use_bound_(use_bound),
        use_memo_(use_memo),
        memo_limit_(memo_limit),
        free_(P) {
    const int n = g.num_tasks();
    pending_.resize(static_cast<std::size_t>(n));
    started_.assign(static_cast<std::size_t>(n), false);
    start_time_.assign(static_cast<std::size_t>(n), 0.0);
    alloc_.assign(static_cast<std::size_t>(n), 0);
    for (graph::TaskId v = 0; v < n; ++v)
      pending_[static_cast<std::size_t>(v)] = g.in_degree(v);

    // Useful allocations per task: p qualifies iff it is strictly faster
    // than every smaller allocation (anything else is dominated).
    candidates_.resize(static_cast<std::size_t>(n));
    min_area_.assign(static_cast<std::size_t>(n), 0.0);
    for (graph::TaskId v = 0; v < n; ++v) {
      const auto& m = g.model_of(v);
      double best = kInf;
      for (int p = 1; p <= P; ++p) {
        const double t = m.time(p);
        if (t < best) {
          best = t;
          candidates_[static_cast<std::size_t>(v)].push_back(p);
        }
      }
      min_area_[static_cast<std::size_t>(v)] = m.min_area(P);
    }
    tail_min_ = graph::bottom_levels(g, analysis::min_times(g, P));
  }

  /// Replays `path` from the root and explores the subtree below it.
  void run(const std::vector<Decision>& path) {
    double now = 0.0;
    int min_task_id = 0;
    double max_finish = 0.0;
    for (const auto& d : path) apply(d, now, min_task_id, max_finish);
    explore(now, min_task_id, max_finish);
    flush_nodes();
    const std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->memo_hits += memo_hits_;
    shared_->memo_entries += memo_.size();
    shared_->abort_lb = std::min(shared_->abort_lb, abort_lb_);
  }

  /// Immediate decisions available after replaying `path`, in canonical
  /// order; empty for a complete schedule. Used by the frontier splitter.
  [[nodiscard]] std::vector<Decision> children(
      const std::vector<Decision>& path) {
    double now = 0.0;
    int min_task_id = 0;
    double max_finish = 0.0;
    for (const auto& d : path) apply(d, now, min_task_id, max_finish);
    std::vector<Decision> out;
    for (graph::TaskId v = min_task_id; v < g_.num_tasks(); ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (started_[idx] || pending_[idx] != 0) continue;
      for (const int p : candidates_[idx]) {
        if (p > free_) break;  // candidates are increasing in p
        out.push_back({v, p});
      }
    }
    if (!running_.empty()) out.push_back({-1, 0});
    return out;
  }

 private:
  void apply(const Decision& d, double& now, int& min_task_id,
             double& max_finish) {
    if (d.task >= 0) {
      const auto idx = static_cast<std::size_t>(d.task);
      started_[idx] = true;
      start_time_[idx] = now;
      alloc_[idx] = d.procs;
      free_ -= d.procs;
      const double finish = now + g_.model_of(d.task).time(d.procs);
      running_.push_back({d.task, finish, d.procs});
      min_task_id = d.task;
      max_finish = std::max(max_finish, finish);
    } else {
      double next = kInf;
      for (const auto& r : running_) next = std::min(next, r.finish);
      for (std::size_t i = 0; i < running_.size();) {
        if (running_[i].finish <= next) {
          free_ += running_[i].procs;
          for (const graph::TaskId s : g_.successors(running_[i].task))
            --pending_[static_cast<std::size_t>(s)];
          running_[i] = running_.back();
          running_.pop_back();
        } else {
          ++i;
        }
      }
      now = next;
      min_task_id = 0;
    }
  }

  [[nodiscard]] bool stopped() const {
    return shared_->stop.load(std::memory_order_relaxed);
  }

  void flush_nodes() {
    if (nodes_since_flush_ == 0) return;
    const long total =
        shared_->nodes.fetch_add(nodes_since_flush_,
                                 std::memory_order_relaxed) +
        nodes_since_flush_;
    nodes_since_flush_ = 0;
    if (shared_->node_budget > 0 && total >= shared_->node_budget) {
      shared_->budget_hit.store(true, std::memory_order_relaxed);
      shared_->stop.store(true, std::memory_order_relaxed);
    }
    if (shared_->token.cancelled()) {
      shared_->timed_out.store(true, std::memory_order_relaxed);
      shared_->stop.store(true, std::memory_order_relaxed);
    }
  }

  void bump_node() {
    if (++nodes_since_flush_ >= 16) flush_nodes();
  }

  [[nodiscard]] double lower_bound(double now, double max_finish) const {
    double bound = max_finish;
    double remaining_area = 0.0;
    for (graph::TaskId v = 0; v < g_.num_tasks(); ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (!started_[idx]) {
        // Unstarted: cannot complete before now + its minimal tail.
        bound = std::max(bound, now + tail_min_[idx]);
        remaining_area += min_area_[idx];
      }
    }
    for (const auto& r : running_) {
      remaining_area +=
          static_cast<double>(r.procs) * std::max(0.0, r.finish - now);
      // Running: its successors' tails start at its finish.
      for (const graph::TaskId s : g_.successors(r.task)) {
        const auto sidx = static_cast<std::size_t>(s);
        if (!started_[sidx])
          bound = std::max(bound, r.finish + tail_min_[sidx]);
      }
    }
    bound = std::max(bound, now + remaining_area / static_cast<double>(P_));
    return bound;
  }

  [[nodiscard]] bool memo_prune(double now) {
    if (!use_memo_) return false;
    MemoKey key;
    key.reserve(1 + 2 * running_.size());
    std::uint64_t mask = 0;
    for (graph::TaskId v = 0; v < g_.num_tasks(); ++v)
      if (started_[static_cast<std::size_t>(v)])
        mask |= std::uint64_t{1} << static_cast<unsigned>(v);
    key.push_back(mask);
    scratch_running_ = running_;
    std::sort(scratch_running_.begin(), scratch_running_.end(),
              [](const Running& a, const Running& b) { return a.task < b.task; });
    for (const auto& r : scratch_running_) {
      key.push_back((static_cast<std::uint64_t>(r.task) << 32) |
                    static_cast<std::uint64_t>(r.procs));
      key.push_back(double_bits(r.finish - now));
    }
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
      const double stored = it->second;
      if (stored == now || stored <= now - kMemoMargin * (1.0 + now)) {
        ++memo_hits_;
        return true;
      }
      if (now < stored) it->second = now;
      return false;
    }
    if (memo_.size() < memo_limit_) memo_.emplace(std::move(key), now);
    return false;
  }

  void note_abort(double lb) { abort_lb_ = std::min(abort_lb_, lb); }

  void record_leaf(double makespan) {
    if (makespan >= shared_->best.load(std::memory_order_relaxed)) return;
    const std::lock_guard<std::mutex> lock(shared_->mu);
    if (makespan >= shared_->best.load(std::memory_order_relaxed)) return;
    atomic_min(shared_->best, makespan);
    shared_->best_alloc = alloc_;
    shared_->best_start = start_time_;
    shared_->improved = true;
    if (mode_ == Mode::kCertificate) {
      shared_->found.store(true, std::memory_order_relaxed);
      shared_->stop.store(true, std::memory_order_relaxed);
    }
  }

  void explore(double now, int min_task_id, double max_finish) {
    bump_node();
    const double lb = lower_bound(now, max_finish);
    if (!stopped()) {
      const double best = shared_->best.load(std::memory_order_relaxed);
      const bool cut = (use_bound_ && lb > best * kBoundSlack) ||
                       memo_prune(now);
      if (!cut) branch(now, min_task_id, max_finish);
    }
    // Whatever remains unexplored below this node (because the stop flag
    // fired at entry or between children) is covered by this node's lb.
    if (stopped()) note_abort(lb);
  }

  void branch(double now, int min_task_id, double max_finish) {
    // Option A: start a ready task (id >= min_task_id — canonical order
    // within one time point) with each useful allocation that fits.
    for (graph::TaskId v = min_task_id; v < g_.num_tasks(); ++v) {
      const auto idx = static_cast<std::size_t>(v);
      if (started_[idx] || pending_[idx] != 0) continue;
      for (const int p : candidates_[idx]) {
        if (p > free_) break;  // candidates are increasing in p
        if (stopped()) return;
        started_[idx] = true;
        start_time_[idx] = now;
        alloc_[idx] = p;
        free_ -= p;
        const double finish = now + g_.model_of(v).time(p);
        running_.push_back({v, finish, p});
        explore(now, v, std::max(max_finish, finish));
        // Undo by identity, not position: the recursion's Option B
        // restores running_ as a multiset and may permute it.
        for (std::size_t i = 0; i < running_.size(); ++i) {
          if (running_[i].task == v) {
            running_[i] = running_.back();
            running_.pop_back();
            break;
          }
        }
        free_ += p;
        started_[idx] = false;
      }
    }

    if (running_.empty()) {
      // Nothing running: either done, or Option A above covered every
      // continuation (a ready task always fits on an empty machine).
      bool all_done = true;
      for (graph::TaskId v = 0; v < g_.num_tasks(); ++v)
        if (!started_[static_cast<std::size_t>(v)]) all_done = false;
      if (all_done) record_leaf(max_finish);
      return;
    }
    if (stopped()) return;

    // Option B: deliberately wait for the next completion.
    double next = kInf;
    for (const auto& r : running_) next = std::min(next, r.finish);
    std::vector<Running> finished;
    for (std::size_t i = 0; i < running_.size();) {
      if (running_[i].finish <= next) {
        finished.push_back(running_[i]);
        running_[i] = running_.back();
        running_.pop_back();
      } else {
        ++i;
      }
    }
    for (const auto& r : finished) {
      free_ += r.procs;
      for (const graph::TaskId s : g_.successors(r.task))
        --pending_[static_cast<std::size_t>(s)];
    }

    explore(next, 0, max_finish);

    for (const auto& r : finished) {
      free_ -= r.procs;
      for (const graph::TaskId s : g_.successors(r.task))
        ++pending_[static_cast<std::size_t>(s)];
      running_.push_back(r);
    }
  }

  const graph::TaskGraph& g_;
  int P_;
  Shared* shared_;
  Mode mode_;
  bool use_bound_;
  bool use_memo_;
  std::size_t memo_limit_;
  int free_;

  std::vector<int> pending_;
  std::vector<bool> started_;
  std::vector<double> start_time_;
  std::vector<int> alloc_;
  std::vector<std::vector<int>> candidates_;
  std::vector<double> min_area_;
  std::vector<double> tail_min_;
  std::vector<Running> running_;
  std::vector<Running> scratch_running_;

  std::unordered_map<MemoKey, double, MemoKeyHash> memo_;
  long memo_hits_ = 0;
  long nodes_since_flush_ = 0;
  double abort_lb_ = kInf;
};

/// Splits the root into >= target independent subproblems (decision
/// paths) by breadth-first expansion; terminal paths (complete
/// schedules) are kept as trivial subproblems.
std::vector<std::vector<Decision>> expand_frontier(const graph::TaskGraph& g,
                                                   int P, std::size_t target) {
  std::deque<std::vector<Decision>> open;
  std::vector<std::vector<Decision>> closed;
  open.emplace_back();
  while (!open.empty() && open.size() + closed.size() < target) {
    auto path = std::move(open.front());
    open.pop_front();
    Search scratch(g, P, nullptr, Search::Mode::kValue, false, false, 0);
    auto kids = scratch.children(path);
    if (kids.empty()) {
      closed.push_back(std::move(path));
      continue;
    }
    for (const auto& d : kids) {
      auto next = path;
      next.push_back(d);
      open.push_back(std::move(next));
    }
  }
  for (auto& p : open) closed.push_back(std::move(p));
  return closed;
}

void check_instance(const graph::TaskGraph& g, int P, int max_tasks,
                    int max_procs, const char* who) {
  g.validate();
  if (P < 1)
    throw std::invalid_argument(std::string(who) + ": P must be >= 1");
  const int cap = std::min(max_tasks, kHardTaskCap);
  if (g.num_tasks() > cap)
    throw std::invalid_argument(std::string(who) + ": instance has " +
                                std::to_string(g.num_tasks()) +
                                " tasks, above the cap of " +
                                std::to_string(cap));
  if (P > max_procs)
    throw std::invalid_argument(std::string(who) + ": P = " +
                                std::to_string(P) + " above the cap of " +
                                std::to_string(max_procs));
}

}  // namespace

// Not a core::ListEngine client: a search over decision sequences that
// replays its own partial schedules, not a list scheduler.
BnbResult branch_and_bound_topt(const graph::TaskGraph& g, int P,
                                const BnbOptions& options) {
  check_instance(g, P, options.max_tasks, options.max_procs,
                 "branch_and_bound_topt");
  const engine::CancelToken token =
      options.time_budget_s > 0.0
          ? engine::CancelToken::deadline_in(options.time_budget_s,
                                             options.token)
          : options.token;

  // Warm incumbent from the offline heuristics. The value is inflated by
  // 1e-9 before use: the branch tree recomputes the same schedules with
  // its own rounding, and the margin guarantees the true optimum still
  // registers as a strict improvement (so warm starting never changes
  // the reported value, only the node count).
  double warm_makespan = kInf;
  std::vector<int> warm_alloc;
  std::vector<double> warm_starts;
  if (options.warm_start) {
    const auto consider = [&](double makespan, const std::vector<int>& alloc,
                              const sim::Trace& trace) {
      if (makespan >= warm_makespan) return;
      warm_makespan = makespan;
      warm_alloc = alloc;
      warm_starts.assign(static_cast<std::size_t>(g.num_tasks()), 0.0);
      for (const auto& r : trace.records())
        warm_starts[static_cast<std::size_t>(r.task)] = r.start;
    };
    const auto off = sched::OfflineTradeoffScheduler(g, P).run();
    consider(off.makespan, off.allocation, off.trace);
    const auto canon = wl_canonical_schedule(g, P);
    consider(canon.makespan, canon.allocation, canon.trace);
    const auto comp = wl_compress_schedule(g, P);
    consider(comp.makespan, comp.allocation, comp.trace);
  }

  Shared value;
  value.node_budget = options.node_budget;
  value.token = token;
  if (warm_makespan < kInf)
    value.best.store(warm_makespan * (1.0 + 1e-9));

  unsigned threads_used = 1;
  if (options.threads > 1) {
    const auto frontier = expand_frontier(
        g, P, static_cast<std::size_t>(options.threads) * 3);
    if (frontier.size() > 1) {
      threads_used = options.threads;
      engine::Executor::global().parallel_for(
          frontier.size(),
          [&](std::size_t i) {
            Search s(g, P, &value, Search::Mode::kValue, true,
                     options.use_memo, options.memo_limit);
            s.run(frontier[i]);
          },
          options.threads, 1);
    }
  }
  if (threads_used == 1) {
    Search s(g, P, &value, Search::Mode::kValue, true, options.use_memo,
             options.memo_limit);
    s.run({});
  }

  BnbResult out;
  out.threads_used = threads_used;
  out.nodes = value.nodes.load();
  out.memo_hits = value.memo_hits;
  out.memo_entries = value.memo_entries;

  const bool value_aborted =
      value.budget_hit.load() || value.timed_out.load();
  if (!value_aborted) {
    // The search ran to completion, so the incumbent is exactly T_opt
    // (the optimal leaf always registers: it is strictly below the
    // inflated warm value). Re-derive the canonical optimal schedule
    // with a serial pass so allocation/start_time are identical for
    // every thread count: the pass prunes against nextafter(T_opt) and
    // stops at the first optimal leaf in canonical DFS order.
    const double t_opt = value.best.load();
    Shared cert;
    cert.node_budget = options.node_budget;
    cert.nodes.store(out.nodes);  // continue the same budget
    cert.token = token;
    cert.best.store(std::nextafter(t_opt, kInf));
    Search s(g, P, &cert, Search::Mode::kCertificate, true, options.use_memo,
             options.memo_limit);
    s.run({});
    out.nodes = cert.nodes.load();
    out.memo_hits += cert.memo_hits;
    out.memo_entries += cert.memo_entries;
    out.makespan = t_opt;
    out.lower_bound = t_opt;  // proven by the completed value phase
    if (cert.found.load()) {
      out.status = BnbStatus::kExact;
      out.allocation = cert.best_alloc;
      out.start_time = cert.best_start;
    } else {
      // Certificate pass truncated: the value is still proven optimal,
      // but the returned schedule is only the best one seen.
      out.status = cert.timed_out.load() ? BnbStatus::kTimedOut
                                         : BnbStatus::kBounded;
      out.allocation = value.improved ? value.best_alloc : warm_alloc;
      out.start_time = value.improved ? value.best_start : warm_starts;
      if (!value.improved && warm_makespan == kInf) out.makespan = kInf;
    }
    return out;
  }

  // Value phase aborted: report the best schedule seen and the proven
  // bracket around T_opt.
  out.status =
      value.timed_out.load() ? BnbStatus::kTimedOut : BnbStatus::kBounded;
  const double upper = value.improved ? value.best.load() : warm_makespan;
  out.makespan = upper;
  out.allocation = value.improved ? value.best_alloc : warm_alloc;
  out.start_time = value.improved ? value.best_start : warm_starts;
  const double lemma2 = analysis::optimal_makespan_lower_bound(g, P);
  out.lower_bound = std::max(lemma2, std::min(value.abort_lb, upper));
  return out;
}

BnbResult brute_force_topt(const graph::TaskGraph& g, int P, int max_tasks,
                           long node_budget) {
  check_instance(g, P, max_tasks, std::numeric_limits<int>::max(),
                 "brute_force_topt");
  Shared shared;
  shared.node_budget = node_budget;
  Search s(g, P, &shared, Search::Mode::kValue, false, false, 0);
  s.run({});
  BnbResult out;
  out.makespan = shared.best.load();
  out.allocation = shared.best_alloc;
  out.start_time = shared.best_start;
  out.nodes = shared.nodes.load();
  out.threads_used = 1;
  if (shared.budget_hit.load()) {
    out.status = BnbStatus::kBounded;
    out.lower_bound =
        std::max(analysis::optimal_makespan_lower_bound(g, P),
                 std::min(shared.abort_lb, out.makespan));
  } else {
    out.status = BnbStatus::kExact;
    out.lower_bound = out.makespan;
  }
  return out;
}

}  // namespace moldsched::opt
