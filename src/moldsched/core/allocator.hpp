// Processor allocation strategies, chiefly Algorithm 2 of the paper: the
// two-step Local Processor Allocation (LPA) with the mu-cap, plus the
// memoizing CachingAllocator decorator that lets experiment grids reuse
// identical decisions instead of re-running the Step 1 search.
#pragma once

// Schedules and golden pins are bit-exact; -ffast-math reassociates and
// contracts floating-point arithmetic and would silently move them.
#ifdef __FAST_MATH__
#error "moldsched must not be built with -ffast-math: its results are bit-exact"
#endif

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "moldsched/model/speedup_model.hpp"

namespace moldsched::core {

/// Strategy interface: pick the (final) processor allocation for a task,
/// given its speedup model and the platform size. Implementations must
/// return a value in [1, P] and must be deterministic.
class Allocator {
 public:
  virtual ~Allocator() = default;

  [[nodiscard]] virtual int allocate(const model::SpeedupModel& m,
                                     int P) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Full breakdown of one Algorithm 2 decision, for tests and diagnostics.
struct LpaDecision {
  int p_max = 0;          ///< Eq. (5)
  double t_min = 0.0;     ///< t(p_max)
  double a_min = 0.0;     ///< minimum area
  int initial = 0;        ///< Step 1 result (min alpha s.t. beta <= delta)
  int final_alloc = 0;    ///< Step 2 result (capped at ceil(mu P))
  double alpha = 0.0;     ///< a(initial) / a_min
  double beta = 0.0;      ///< t(initial) / t_min
};

/// Algorithm 2. Step 1 finds the allocation minimizing the area ratio
/// alpha_p = a(p)/a_min subject to the time-ratio constraint
/// beta_p = t(p)/t_min <= delta(mu) = (1-2mu)/(mu(1-mu)). Step 2 caps the
/// result at ceil(mu P).
///
/// For the monotonic Eq. (1) family, alpha_p is non-decreasing and beta_p
/// non-increasing on [1, p_max] (Lemma 1), so Step 1 reduces to the
/// smallest feasible p, found by binary search in O(log P). For arbitrary
/// models a linear scan solves the same program exactly.
class LpaAllocator : public Allocator {
 public:
  /// Throws std::invalid_argument unless 0 < mu <= (3 - sqrt(5))/2 (the
  /// feasibility condition delta(mu) >= 1 of Section 4.2).
  explicit LpaAllocator(double mu);

  [[nodiscard]] int allocate(const model::SpeedupModel& m,
                             int P) const override;
  [[nodiscard]] std::string name() const override;

  /// Runs both steps and reports every intermediate quantity.
  [[nodiscard]] LpaDecision decide(const model::SpeedupModel& m, int P) const;

  [[nodiscard]] double mu() const noexcept { return mu_; }
  /// delta(mu) = (1-2mu)/(mu(1-mu)), the beta constraint bound.
  [[nodiscard]] double delta() const noexcept { return delta_; }
  /// ceil(mu P): the Step 2 allocation cap.
  [[nodiscard]] int cap(int P) const;

 private:
  double mu_;
  double delta_;
};

/// Thread-safe bounded store of memoized allocation decisions, shared
/// between CachingAllocator instances. Entries are keyed by the model's
/// exact fingerprint, the platform size, and a tag identifying the
/// wrapped allocator (so one store can serve many (allocator, mu) pairs
/// without cross-talk). Eviction is FIFO at capacity, which keeps
/// lookups deterministic for any fixed query sequence.
///
/// Internally two-level: the authoritative FIFO map sits behind a mutex,
/// fronted by a direct-mapped, lock-free L1 of seqlock-published slots —
/// steady-state hits cost a handful of relaxed atomic loads, no lock.
/// An L1 slot conflict only costs the mutex probe, never correctness.
///
/// Hit/miss/eviction totals are mirrored into obs::default_registry()
/// under "core.alloc_cache.*" so --metrics runs expose cache
/// effectiveness alongside the engine counters.
class DecisionCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  /// Throws std::invalid_argument on capacity == 0.
  explicit DecisionCache(std::size_t capacity = kDefaultCapacity);

  struct Key {
    std::uint64_t allocator_tag = 0;  ///< hash of the inner allocator's name()
    std::array<std::uint64_t, 4> words{};  ///< ModelFingerprint payload
    std::uint32_t kind = 0;                ///< model::ModelKind
    std::int32_t P = 0;

    [[nodiscard]] bool operator==(const Key&) const = default;
  };

  /// Returns the cached allocation, or -1 on a miss.
  [[nodiscard]] int lookup(const Key& key) const;

  /// Inserts (idempotently); evicts the oldest entry when full.
  void insert(const Key& key, int alloc);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

  void clear();

  /// Process-wide store used by the experiment suites, so repeated LPA
  /// decisions across a whole job grid collapse into one search each.
  [[nodiscard]] static const std::shared_ptr<DecisionCache>& process_wide();

 private:
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const noexcept;
  };

  /// One direct-mapped L1 slot. The six key words (tag, fingerprint[4],
  /// kind<<32|P) plus the allocation are published under a seqlock:
  /// writers (serialized by mutex_) bump seq odd, store, bump even;
  /// readers snapshot the words between two matching even seq loads.
  /// Every word is an atomic with relaxed ordering inside the protocol,
  /// so the race is defined behavior; a torn or stale snapshot fails the
  /// seq or key comparison and falls back to the mutexed map.
  struct L1Slot {
    std::atomic<std::uint64_t> seq{0};  // odd while a write is in flight
    std::array<std::atomic<std::uint64_t>, 6> words{};
    std::atomic<int> alloc{-1};
  };
  static constexpr std::size_t kL1Slots = 1 << 12;  // direct-mapped

  static std::array<std::uint64_t, 6> key_words(const Key& key) noexcept;
  [[nodiscard]] int l1_lookup(const Key& key, std::size_t hash) const noexcept;
  // The two writers require mutex_ held (single-writer seqlock); const
  // because the hit-promoting path runs under the const lookup().
  void l1_store(const Key& key, std::size_t hash, int alloc) const noexcept;
  void l1_erase(const Key& key) const noexcept;

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<Key, int, KeyHash> map_;
  std::vector<Key> fifo_;      // insertion ring; fifo_[evict_next_] dies next
  std::size_t evict_next_ = 0;
  std::unique_ptr<L1Slot[]> l1_{new L1Slot[kL1Slots]};
  // Statistics live outside the mutex (relaxed atomics): the lookup hit
  // path is the whole point of the cache, so its critical section holds
  // only the map probe.
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  // Registry instruments resolved once at construction: the name lookup
  // takes the registry mutex, far too slow for the per-decision path.
  struct RegistryCounters;
  const RegistryCounters& registry_;
};

/// Memoizing decorator: forwards to `inner` on the first sighting of a
/// (model fingerprint, P) pair and serves every repeat from the cache.
/// Models without a cacheable fingerprint always pass through, so the
/// decorated allocator is decision-for-decision identical to the inner
/// one — the property check::differential_check asserts byte-for-byte.
/// The inner allocator must outlive this object and be deterministic.
class CachingAllocator : public Allocator {
 public:
  /// Wraps `inner`, memoizing into `cache` (a fresh private store when
  /// null). Pass DecisionCache::process_wide() to share decisions across
  /// allocator instances, e.g. between the jobs of a suite.
  explicit CachingAllocator(const Allocator& inner,
                            std::shared_ptr<DecisionCache> cache = nullptr);

  /// Owning variant for registry use: keeps `inner` alive for the
  /// decorator's lifetime. Throws std::invalid_argument on null.
  explicit CachingAllocator(std::shared_ptr<const Allocator> inner,
                            std::shared_ptr<DecisionCache> cache = nullptr);

  [[nodiscard]] int allocate(const model::SpeedupModel& m,
                             int P) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const DecisionCache& cache() const noexcept { return *cache_; }
  [[nodiscard]] const Allocator& inner() const noexcept { return inner_; }

 private:
  std::shared_ptr<const Allocator> owned_;  // may be null (reference ctor)
  const Allocator& inner_;                  // bound after owned_
  std::shared_ptr<DecisionCache> cache_;
  std::uint64_t allocator_tag_;
};

}  // namespace moldsched::core
