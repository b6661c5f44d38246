#include "service/plan_cache.hpp"

#include <utility>

#include "service/request.hpp"
#include "util/timer.hpp"

namespace hts::service {

namespace {

/// SplitMix64-style mixing: every absorbed word avalanches through the
/// whole state, so structurally close formulas (one flipped literal) land
/// far apart.
[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t value) {
  h += 0x9e3779b97f4a7c15ULL + value;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

PlanKey plan_fingerprint(const cnf::Formula& formula,
                         const prob::CompiledCircuit::Options& options) {
  PlanKey key;
  key.n_vars = formula.n_vars();
  key.n_clauses = formula.n_clauses();

  std::uint64_t h = 0x90d4f8bace5a1fb3ULL;
  h = mix(h, key.n_vars);
  for (const cnf::Clause& clause : formula.clauses()) {
    // A per-clause length word keeps clause boundaries unambiguous (the
    // flattened literal streams of {a,b},{c} and {a},{b,c} must differ).
    h = mix(h, clause.size());
    for (const cnf::Lit lit : clause) {
      h = mix(h, lit.code());
      ++key.n_literals;
    }
  }
  h = mix(h, (options.cone_only ? 1ULL : 0ULL) |
                 (options.optimize ? 2ULL : 0ULL));
  key.hash = h;
  return key;
}

CompiledPlan::CompiledPlan(const cnf::Formula& formula,
                           const prob::CompiledCircuit::Options& options) {
  const util::Timer timer;
  transformed = transform::transform_cnf(formula);
  if (!transformed.proven_unsat) {
    compiled.emplace(transformed.circuit, options);
    eval_plan.emplace(transformed.circuit);
  }
  compile_ms = timer.milliseconds();
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<const CompiledPlan> PlanCache::get_or_compile(
    const cnf::Formula& formula, const prob::CompiledCircuit::Options& options,
    bool* cache_hit, util::FaultInjector* injector) {
  const PlanKey key = plan_fingerprint(formula, options);

  std::shared_ptr<Entry> entry;
  {
    util::LockGuard lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = std::make_shared<Entry>();
      entry->last_use = ++use_seq_;
      entries_.emplace(key, entry);
      evict_locked();
    } else {
      entry = it->second;
      entry->last_use = ++use_seq_;
    }
  }

  // The first requester compiles while holding the entry's build mutex;
  // concurrent requesters for the same key block here instead of compiling
  // redundantly, then share the plan.  The cache-wide mutex is never held
  // across a compile, so other keys stay fully concurrent.
  // A throwing compile (the seam below, or a real failure inside
  // CompiledPlan) unwinds from here with the entry still resident and
  // `plan` still null — the next requester retries the compile, and
  // neither hit nor miss is counted for the aborted attempt.
  // Sampled before blocking on build_mutex: a hit whose entry was not yet
  // built at this point waited on another request's in-flight compile.
  const bool was_built = entry->built.load(std::memory_order_acquire);
  util::LockGuard build_lock(entry->build_mutex);
  const bool hit = entry->plan != nullptr;
  if (!hit) {
    if (injector != nullptr) injector->maybe_fault(fault_sites::kCompile);
    entry->plan = std::make_shared<const CompiledPlan>(formula, options);
    entry->built.store(true, std::memory_order_release);
  }
  {
    util::LockGuard lock(mutex_);
    if (hit) {
      ++stats_.hits;
      if (!was_built) ++stats_.inflight_waits;
    } else {
      ++stats_.misses;
    }
  }
  if (cache_hit != nullptr) *cache_hit = hit;
  return entry->plan;
}

void PlanCache::evict_locked() {
  while (entries_.size() > capacity_) {
    // Least recently used among *built* entries only: evicting one whose
    // first requester is still compiling would let the next request for
    // that key start a duplicate compile of the identical plan.  When every
    // entry is mid-compile the cache runs over capacity until one lands.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second->built.load(std::memory_order_acquire)) continue;
      if (victim == entries_.end() ||
          it->second->last_use < victim->second->last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;
    // Dropping the map's reference is all eviction means: jobs holding the
    // plan keep it alive.
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

PlanCache::Stats PlanCache::stats() const {
  util::LockGuard lock(mutex_);
  return stats_;
}

std::size_t PlanCache::size() const {
  util::LockGuard lock(mutex_);
  return entries_.size();
}

void PlanCache::clear() {
  util::LockGuard lock(mutex_);
  entries_.clear();
}

}  // namespace hts::service
