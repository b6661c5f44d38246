#pragma once

// Compiled-plan cache: compile once, sample many.
//
// A sampling job needs three compiled artifacts before its first GD round:
// the CNF -> circuit transformation (Algorithm 1), the optimized
// probabilistic tape + execution plan (prob::CompiledCircuit), and the
// word-parallel validation plan (circuit::EvalPlan).  All three are pure
// functions of (formula, compile options) and immutable afterwards, so the
// dominant production pattern — many requests against the same formula with
// different seeds/deadlines — should pay compilation exactly once.
//
// The cache keys on a structural fingerprint of the formula (variable
// count, clause count, and a position-sensitive hash over every literal)
// mixed with the tape's compile options (prob::CompiledCircuit::Options,
// the only compile-relevant part of a job's config; the transformation
// always runs at its defaults).  Since the transformation and tape
// optimizer are deterministic, equal fingerprints yield equal compiled
// circuits.  Entries are shared_ptr-held: eviction (LRU, bounded entry
// count) drops the cache's reference while running jobs keep theirs.
// Concurrent misses on one key are collapsed — the first requester
// compiles under the entry's build mutex, the rest block on it and then
// share the plan (counted as hits: they did not compile).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "circuit/eval_plan.hpp"
#include "cnf/formula.hpp"
#include "prob/compiled.hpp"
#include "transform/transform.hpp"
#include "util/fault_injector.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace hts::service {

struct PlanKey {
  std::uint64_t hash = 0;
  // Cheap structural salts kept alongside the hash so a 64-bit collision
  // would additionally need matching shape to alias.
  std::uint64_t n_vars = 0;
  std::uint64_t n_clauses = 0;
  std::uint64_t n_literals = 0;

  [[nodiscard]] bool operator==(const PlanKey& other) const = default;
};

/// Structural fingerprint of (formula, options); position-sensitive over
/// clauses and literals, so permuted formulas are distinct keys (they would
/// compile to different tapes anyway — the transformation is order-aware).
[[nodiscard]] PlanKey plan_fingerprint(
    const cnf::Formula& formula, const prob::CompiledCircuit::Options& options);

/// Everything a job needs to start sampling a formula, compiled once and
/// shared read-only between every job holding the pointer.  When the
/// transformation proves the formula UNSAT the tape/eval plan are absent —
/// there is nothing to sample.
struct CompiledPlan {
  CompiledPlan(const cnf::Formula& formula,
               const prob::CompiledCircuit::Options& options);

  transform::Result transformed;
  std::optional<prob::CompiledCircuit> compiled;
  std::optional<circuit::EvalPlan> eval_plan;
  /// Wall-clock cost of building this plan (transform + tape + eval plan);
  /// what a cache hit saves.
  double compile_ms = 0.0;
};

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    /// Hits that blocked on another requester's in-flight compile (a subset
    /// of `hits`): the dedup machinery actually collapsing concurrent misses.
    std::uint64_t inflight_waits = 0;
  };

  /// capacity: maximum resident entries (LRU beyond it); at least 1.
  explicit PlanCache(std::size_t capacity = 32);

  /// Returns the plan for (formula, options), compiling it on first sight.
  /// Safe from any number of threads; concurrent requests for one key
  /// compile once.  `cache_hit`, when given, reports whether *this* call
  /// avoided compiling.  `injector`, when given and armed, is evaluated at
  /// the "compile" seam just before a real compile runs.
  ///
  /// Failure containment: a throwing compile (injected or real) propagates
  /// to the caller but leaves the cache coherent — the entry stays resident
  /// and unbuilt, so the next requester for the key simply compiles again
  /// (counted as a miss) and publishes on success.  Waiters blocked on the
  /// in-flight compile observe the null plan and retry the same way; nobody
  /// is handed a half-built artifact.  (Unbuilt entries are exempt from LRU
  /// eviction, so a formula whose compile fails forever pins one capacity
  /// slot; acceptable until proven otherwise.)
  [[nodiscard]] std::shared_ptr<const CompiledPlan> get_or_compile(
      const cnf::Formula& formula,
      const prob::CompiledCircuit::Options& options, bool* cache_hit = nullptr,
      util::FaultInjector* injector = nullptr) HTS_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const HTS_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t size() const HTS_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear() HTS_EXCLUDES(mutex_);

 private:
  struct Entry {
    /// Serializes the one-time compile; get_or_compile holds it only while
    /// plan is still null (first requester) or to read it (waiters).
    /// Lock order: build_mutex -> PlanCache::mutex_ (the stats update after
    /// a compile); never the reverse — eviction under the cache mutex reads
    /// the atomic `built` flag instead of taking build_mutex.
    util::Mutex build_mutex;
    std::shared_ptr<const CompiledPlan> plan HTS_GUARDED_BY(build_mutex);
    /// Published after the compile lands; lets evict_locked (which holds
    /// only the cache mutex) see build completion without touching
    /// build_mutex — taking it there would block eviction behind compiles.
    std::atomic<bool> built{false};
    /// Guarded by the *cache* mutex (PlanCache::mutex_), not build_mutex —
    /// a cross-object guard the analysis cannot express on a nested struct.
    std::uint64_t last_use = 0;
  };

  struct KeyHash {
    std::size_t operator()(const PlanKey& key) const noexcept {
      return static_cast<std::size_t>(key.hash);
    }
  };

  void evict_locked() HTS_REQUIRES(mutex_);

  const std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::unordered_map<PlanKey, std::shared_ptr<Entry>, KeyHash> entries_
      HTS_GUARDED_BY(mutex_);
  std::uint64_t use_seq_ HTS_GUARDED_BY(mutex_) = 0;
  Stats stats_ HTS_GUARDED_BY(mutex_);
};

}  // namespace hts::service
