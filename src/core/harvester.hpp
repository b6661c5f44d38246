#pragma once

// Harvests valid, new solutions out of a hardened batch.
//
// Extracted from the GD loop so the serial path (one Harvester over a plain
// UniqueBank) and the round-parallel path (one Harvester per worker, all
// merging into a shared ShardedUniqueBank) run the identical
// unpack -> evaluate -> mask -> project pipeline.  `Bank` only needs
// insert(key), contains(key), size() and n_words(), where a key is a
// `const std::uint64_t*` to n_words() packed words (unique_bank.hpp);
// uniqueness is decided wherever the bank lives, so a worker's duplicate of
// another worker's solution is rejected at the merge point, not after.
//
// When a sampling set is active and HarvestMode::projected is set, the bank
// key is the row's projection onto the set (bit k = set variable k) rather
// than the full input assignment: two solutions identical over the set
// count as one unique, and the first full witness per projection is what
// gets stored.  Amplifier bases stay full input keys either way.
//
// Validation runs on the circuit's compiled word-parallel plan
// (circuit::EvalPlan): blocks of EvalPlan::kBlockWords words (4 x 64 = 256
// rows) are evaluated through opcode-batched u64x4 kernels, and large
// batches split their blocks across the global ThreadPool.  collect() is
// two-phase — a (possibly parallel) evaluation phase writes only
// per-word solved masks and projection words, then a serial accept phase
// walks words in order — so counts, bank insertion order, and stored
// solutions are bit-identical to the historical scalar eval64 walk under
// every thread count (tests/harvest_diff_test.cpp pins this down).  Accept
// builds the keys of a word's 64 rows at once, with one 64 x 64 bit
// transpose per key word (detail::transpose_row_keys): 64 loads per 64 key
// bits, where gathering each row's key costs a strided load per bit per row.
//
// All scratch (evaluation slots, solved masks, projection words, the key
// buffers) is per-instance and reused: after the first collect() of a given
// batch shape, repeated harvests perform no heap allocation beyond what the
// bank needs for genuinely new solutions.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/eval_plan.hpp"
#include "core/gd_loop.hpp"
#include "core/unique_bank.hpp"
#include "telemetry/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace hts::sampler {

namespace detail {

/// Transposes a 64 x 64 bit matrix in place by recursive block swaps
/// (Hacker's Delight, 2nd ed., section 7-3): afterwards bit c of m[r] is
/// what bit r of m[c] was.
inline void transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000ffffffffULL;
  for (std::size_t j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
}

/// Keys of the 64 rows of one packed word: bit r of column(b) is bit b of
/// row r's key, for every b < n_bits.  Row r's key, (n_bits + 63) / 64
/// words, is written at keys + r * that width, by one transpose per key
/// word.
template <typename Column>
void transpose_row_keys(std::size_t n_bits, Column&& column,
                        std::uint64_t* keys) {
  const std::size_t n_key_words = (n_bits + 63) / 64;
  std::uint64_t block[64];
  for (std::size_t kw = 0; kw < n_key_words; ++kw) {
    const std::size_t base = kw * 64;
    const std::size_t n = std::min<std::size_t>(64, n_bits - base);
    for (std::size_t b = 0; b < n; ++b) block[b] = column(base + b);
    std::fill(block + n, block + 64, 0);
    transpose64(block);
    for (std::size_t r = 0; r < 64; ++r) keys[r * n_key_words + kw] = block[r];
  }
}

}  // namespace detail

/// Caller-owned scratch for Harvester::collect_candidates.  The amplifier
/// keeps one per instance so repeated amplified collects perform no heap
/// allocation once the buffers are warm — the same bar collect() meets with
/// its member scratch.
struct CollectScratch {
  std::vector<std::uint64_t> solved_mask;
  std::vector<std::uint64_t> proj;
  std::vector<std::uint64_t> slots;
};

/// How the accept phase keys the bank and what phase 1 must stash for it.
/// Derive from the loop config with harvest_mode_for() so every bank
/// construction site (sized by bank_key_bits) agrees with the harvester.
struct HarvestMode {
  /// Key the bank on the sampling-set projection.  The bank must then be
  /// bank_key_bits(problem, config) bits wide.  Off keys on the full input
  /// assignment, bit-identical to the pre-projection accept path.
  bool projected = false;
  /// Also stash sampling-set bits for *unsolved* rows so
  /// banked_projection_mask() can answer "is this row descending into an
  /// already-banked projected class?" — the diversity objective's probe.
  bool probe_projections = false;
};

/// The harvest mode a (problem, config) pair implies: projected keying when
/// projection_active(), plus the diversity probe when diversity_restart
/// asks for it.
[[nodiscard]] inline HarvestMode harvest_mode_for(const GdProblem& problem,
                                                  const GdLoopConfig& config) {
  HarvestMode mode;
  mode.projected = projection_active(problem, config);
  mode.probe_projections = mode.projected && config.diversity_restart;
  return mode;
}

template <typename Bank>
class Harvester {
 public:
  /// `result` receives per-harvester accounting (n_valid, n_invalid, stored
  /// solutions); in the round-parallel path it is a worker-local RunResult
  /// merged after the join.  `bank` decides uniqueness and may be shared.
  /// `plan` is the circuit's compiled evaluator; pass one to share it across
  /// workers (it is immutable after construction), or leave it null and the
  /// harvester compiles its own.
  /// `inline_eval` keeps the evaluation phase on the calling thread even
  /// when the global pool is real: RoundRunner sets it for kSerial configs,
  /// which is what the sampling service runs — concurrent jobs are the
  /// parallelism axis, and a loaded fleet fanning every harvest out to one
  /// shared pool only adds queue contention and oversubscription.
  Harvester(const GdProblem& problem, const cnf::Formula& formula,
            const RunOptions& options, Bank& bank, RunResult& result,
            const circuit::EvalPlan* plan = nullptr, bool inline_eval = false,
            HarvestMode mode = {})
      : problem_(problem),
        formula_(formula),
        options_(options),
        result_(result),
        bank_(bank),
        plan_(plan),
        inline_eval_(inline_eval),
        mode_(mode),
        // accept_row wants a full projected assignment only to store or
        // verify it; projected keying and the diversity probe additionally
        // need the sampling-set bits.  A keys-only full-assignment
        // configuration never reads the stash, so phase 1 can skip writing
        // (and allocating) it entirely.
        stash_all_(options.store_limit > 0 || options.verify_against_cnf),
        full_words_((problem.circuit->n_inputs() + 63) / 64),
        full_keys_(64 * full_words_) {
    // Projected keying without a set would collapse every solution onto one
    // empty key; treat it as full-assignment mode.  The probe asks the bank
    // about projected keys, so it needs projected keying.  (harvest_mode_for
    // never produces either case, but direct constructions might.)
    if (problem_.sampling_set.empty()) mode_.projected = false;
    if (!mode_.projected) mode_.probe_projections = false;
    // The bank reads n_words() words at every key pointer it is handed.
    HTS_CHECK(bank.n_words() ==
              (mode_.projected ? (problem_.sampling_set.size() + 63) / 64
                               : full_words_));
    if (mode_.projected) proj_keys_.resize(64 * bank.n_words());
    if (mode_.probe_projections) fresh_key_.resize(bank.n_words());
    if (plan_ == nullptr) {
      owned_plan_ = std::make_unique<circuit::EvalPlan>(*problem.circuit);
      plan_ = owned_plan_.get();
    }
  }

  [[nodiscard]] std::size_t n_unique() const { return bank_.size(); }

  /// packed: n_inputs x n_words hardened input bits covering `batch` rows.
  ///
  /// Honours RunOptions::stop (cancel and deadline alike) at block
  /// boundaries: a stopped collect evaluates no further blocks and accepts
  /// only the rows already validated (unevaluated words read as unsolved),
  /// so a stop never waits for a full batch validation.  rows_validated()
  /// counts the batch exactly when every block of it was evaluated.
  void collect(const std::vector<std::uint64_t>& packed, std::size_t n_words,
               std::size_t batch) {
    if (options_.stop.stop_requested()) return;
    const util::Timer harvest_timer;
    constexpr std::size_t kB = circuit::EvalPlan::kBlockWords;
    const circuit::EvalPlan& plan = *plan_;
    const std::vector<circuit::SignalId>& var_signal = *problem_.var_signal;
    const std::size_t n_proj = var_signal.size();
    const std::size_t n_blocks = (n_words + kB - 1) / kB;

    solved_mask_.assign(n_words, 0);
    last_n_words_ = n_words;
    last_batch_ = batch;
    if (need_stash() && proj_.size() < n_words * n_proj) {
      proj_.resize(n_words * n_proj);
    }

    // Phase 1 — evaluate.  Writes are per-word disjoint (solved mask +
    // projection stash), so the block partition never affects results; it
    // only decides how many scratch buffers work in parallel.
    util::ThreadPool& pool = util::ThreadPool::global();
    std::size_t n_parts = std::min(n_blocks, pool.size());
    if (pool.size() <= 1 || inline_eval_) n_parts = 1;
    if (scratch_.size() < n_parts) scratch_.resize(n_parts);
    // Cleared by any part the stop token cuts short; read after the join.
    std::atomic<bool> evaluated{true};
    auto eval_part = [&](std::size_t part) {
      std::vector<std::uint64_t>& slots = scratch_[part];
      if (slots.size() < plan.scratch_words()) {
        slots.resize(plan.scratch_words());
      }
      const std::size_t block_end = n_blocks * (part + 1) / n_parts;
      for (std::size_t block = n_blocks * part / n_parts; block < block_end;
           ++block) {
        if (options_.stop.stop_requested()) {
          evaluated.store(false, std::memory_order_relaxed);
          return;
        }
        eval_block(packed, n_words, batch, block, slots.data(),
                   solved_mask_.data(), proj_.data(),
                   /*probe=*/mode_.probe_projections);
      }
    };
    if (n_parts <= 1) {
      // Inline: one scratch, no dispatch (also the no-allocation fast path
      // the repeated-harvest test asserts).
      eval_part(0);
    } else {
      pool.parallel_for(n_parts, [&](std::size_t begin, std::size_t end) {
        for (std::size_t part = begin; part < end; ++part) eval_part(part);
      });
    }

    // Phase 2 — accept, serially and in word order: bank insertion order and
    // stored-solution order match the historical single-thread walk exactly.
    proj_keys_of_ = nullptr;  // the stash was just rewritten
    accept_words(packed, n_words, n_proj, solved_mask_.data(), proj_.data(),
                 /*record_fresh=*/true);
    if (evaluated.load(std::memory_order_relaxed)) rows_validated_ += batch;
    harvest_ms_ += harvest_timer.milliseconds();
    if (telemetry::trace_enabled()) {
      telemetry::TraceSink::global().complete("harvest", "gd",
                                              harvest_timer.start_ns(),
                                              util::monotonic_ns());
    }
  }

  /// Validates an externally packed candidate batch (the amplifier's flip
  /// mutants) through the identical evaluate -> mask -> accept pipeline and
  /// banks the survivors; returns how many were genuinely new to the bank.
  /// Differences from collect(): evaluation always runs inline on the
  /// calling thread with the caller's scratch (deterministic and
  /// allocation-free under any pool size), last_solved() / rows_validated()
  /// / harvest_ms() are untouched (they describe GD batches — solved-row
  /// restarts and the rows/sec metric must not see mutants), and newly
  /// banked keys are not reported to the fresh sink (mutants never
  /// recursively become amplification bases), and the stop token is the
  /// caller's to poll (the amplifier does, per base).  scratch.solved_mask
  /// holds the per-row satisfied mask afterwards, so the caller can read
  /// which candidates survived.
  std::size_t collect_candidates(const std::vector<std::uint64_t>& packed,
                                 std::size_t n_words, std::size_t batch,
                                 CollectScratch& scratch) {
    const circuit::EvalPlan& plan = *plan_;
    const std::size_t n_proj = problem_.var_signal->size();
    const std::size_t n_blocks =
        (n_words + circuit::EvalPlan::kBlockWords - 1) /
        circuit::EvalPlan::kBlockWords;
    scratch.solved_mask.assign(n_words, 0);
    if (need_stash() && scratch.proj.size() < n_words * n_proj) {
      scratch.proj.resize(n_words * n_proj);
    }
    if (scratch.slots.size() < plan.scratch_words()) {
      scratch.slots.resize(plan.scratch_words());
    }
    // Candidate batches never feed the diversity probe (the mask describes
    // GD rows), so unsolved candidate words skip the stash.
    for (std::size_t block = 0; block < n_blocks; ++block) {
      eval_block(packed, n_words, batch, block, scratch.slots.data(),
                 scratch.solved_mask.data(), scratch.proj.data(),
                 /*probe=*/false);
    }
    proj_keys_of_ = nullptr;
    return accept_words(packed, n_words, n_proj, scratch.solved_mask.data(),
                        scratch.proj.data(), /*record_fresh=*/false);
  }

  /// Registers a buffer that receives a copy of every newly banked key
  /// (bank n_words() words per solution, appended in insertion order)
  /// during collect().  The amplifier points this at its base buffer; null
  /// (the default) disables the copy entirely, so the legacy accept path is
  /// untouched when amplification is off.
  void set_fresh_sink(std::vector<std::uint64_t>* sink) { fresh_sink_ = sink; }

  /// The projection mapping (original variable -> circuit signal) the
  /// accept phase projects solutions through.  The amplifier reads this —
  /// and problem() below — instead of duplicating the projection wiring.
  [[nodiscard]] const std::vector<circuit::SignalId>& var_signal() const {
    return *problem_.var_signal;
  }

  [[nodiscard]] const GdProblem& problem() const { return problem_; }

  [[nodiscard]] const RunOptions& options() const { return options_; }

  /// The mode this harvester accepts under (after the empty-set downgrade).
  [[nodiscard]] const HarvestMode& mode() const { return mode_; }

  /// Per-row mask (same word layout as the packed batch) over the most
  /// recent collect(): rows that did NOT satisfy the circuit but whose
  /// hardened projection is already banked.  Those rows are descending into
  /// an already-collected projected class — re-seeding them is the
  /// diversity objective.  Solved rows are excluded (they are
  /// restart_solved's business); padding rows are always clear.  Meaningful
  /// only under HarvestMode::probe_projections (the stash holds sampling-set
  /// bits for unsolved rows only then); probes the bank at call time, so
  /// call it after any same-harvest amplification to see the freshest state.
  [[nodiscard]] const std::vector<std::uint64_t>& banked_projection_mask() {
    dup_mask_.assign(last_n_words_, 0);
    if (!mode_.probe_projections) return dup_mask_;
    const std::size_t n_proj = problem_.var_signal->size();
    const std::size_t key_words = bank_.n_words();
    for (std::size_t w = 0; w < last_n_words_; ++w) {
      const std::size_t rows_here =
          std::min<std::size_t>(64, last_batch_ - w * 64);
      std::uint64_t cand =
          (rows_here < 64 ? (1ULL << rows_here) - 1 : ~0ULL) & ~solved_mask_[w];
      if (cand == 0) continue;
      const std::uint64_t* keys = projected_keys(proj_.data() + w * n_proj);
      std::uint64_t hit = 0;
      while (cand != 0) {
        const int r = std::countr_zero(cand);
        cand &= cand - 1;
        if (bank_.contains(keys + r * key_words)) hit |= 1ULL << r;
      }
      dup_mask_[w] = hit;
    }
    return dup_mask_;
  }

  /// Engine input slot for each sampling-set position (slot k drives the
  /// projection bit of set variable k), prob::Engine::kNoPinSlot-compatible
  /// sentinel (0xffffffff) where the set variable has no circuit input.
  /// Built lazily on first use; empty when no sampling set is active.  The
  /// diversity objective hands this to Engine::pin_row_inputs together with
  /// a propose_fresh_neighbor() pattern.
  [[nodiscard]] const std::vector<std::uint32_t>& projection_slots() {
    if (proj_slots_built_ || problem_.sampling_set.empty()) return proj_slots_;
    proj_slots_built_ = true;
    const std::size_t n_inputs = problem_.circuit->n_inputs();
    // var -> input, mirroring the amplifier's flip-support mapping.
    std::vector<std::uint32_t> input_of;
    for (std::size_t i = 0; i < n_inputs; ++i) {
      const cnf::Var var = problem_.input_var(i);
      if (var == cnf::kInvalidVar) continue;
      if (var >= input_of.size()) input_of.resize(var + 1, 0xffffffffu);
      input_of[var] = static_cast<std::uint32_t>(i);
    }
    proj_slots_.reserve(problem_.sampling_set.size());
    for (const cnf::Var v : problem_.sampling_set) {
      proj_slots_.push_back(v < input_of.size() ? input_of[v] : 0xffffffffu);
    }
    return proj_slots_;
  }

  /// Proposes a not-yet-banked projection pattern *near* row (w, r)'s
  /// current hardened projection from the most recent collect(): try t
  /// flips 1 + t/2 random set positions of the row's own projection and
  /// checks the bank, so early tries are single-bit neighbors — almost
  /// always as completable as the solution the row just reached — and
  /// later tries widen the radius.  Returns the pattern in bank key layout
  /// (n_words() words, valid until the next call), or nullptr when every
  /// try was banked (saturated neighborhood; the caller should fall back
  /// to a plain random re-seed).  Draw count varies with bank state, which
  /// is fine: the serial loop and the service see a deterministic bank,
  /// and the round-parallel path already trades cross-fleet stream
  /// identity for racing workers.  Meaningful only under
  /// probe_projections, where phase 1 stashes set bits for every row.
  [[nodiscard]] const std::uint64_t* propose_fresh_neighbor(std::size_t w,
                                                            std::size_t r,
                                                            util::Rng& rng,
                                                            int tries) {
    if (!mode_.probe_projections) return nullptr;
    const std::size_t n_bits = problem_.sampling_set.size();
    const std::size_t n_proj = problem_.var_signal->size();
    const std::size_t key_words = bank_.n_words();
    const std::uint64_t* key =
        projected_keys(proj_.data() + w * n_proj) + r * key_words;
    for (int t = 0; t < tries; ++t) {
      std::copy(key, key + key_words, fresh_key_.begin());
      const int n_flips = 1 + t / 2;
      for (int f = 0; f < n_flips; ++f) {
        const std::size_t k = rng.next_below(n_bits);
        fresh_key_[k >> 6] ^= 1ULL << (k & 63);
      }
      if (!bank_.contains(fresh_key_.data())) return fresh_key_.data();
    }
    return nullptr;
  }

  /// Per-row satisfied mask of the most recent collect() (same word layout
  /// as the packed input; padding rows are always clear).  The GD loop feeds
  /// this to Engine::rerandomize_rows for solved-row restarts.
  [[nodiscard]] const std::vector<std::uint64_t>& last_solved() const {
    return solved_mask_;
  }

  /// Total batch rows validated over the harvester's lifetime (every row of
  /// every collect() is checked against all output constraints).
  [[nodiscard]] std::uint64_t rows_validated() const { return rows_validated_; }

  /// Wall-clock milliseconds spent inside collect() over the lifetime.
  [[nodiscard]] double harvest_ms() const { return harvest_ms_; }

 private:
  /// Phase-1 core shared by collect() and collect_candidates(): evaluates
  /// one block of the packed batch into `slots`, writing per-word solved
  /// masks and (when projections are needed) the projection stash.  Writes
  /// are per-word disjoint, so collect() may evaluate several blocks
  /// concurrently over distinct slot buffers.
  void eval_block(const std::vector<std::uint64_t>& packed,
                  std::size_t n_words, std::size_t batch, std::size_t block,
                  std::uint64_t* slots, std::uint64_t* solved_mask,
                  std::uint64_t* proj, bool probe) const {
    constexpr std::size_t kB = circuit::EvalPlan::kBlockWords;
    const circuit::EvalPlan& plan = *plan_;
    const std::vector<circuit::SignalId>& var_signal = *problem_.var_signal;
    const std::size_t n_proj = var_signal.size();
    const std::size_t w0 = block * kB;
    const std::size_t count = std::min(kB, n_words - w0);
    plan.eval_block(packed.data(), n_words, w0, count, slots);
    for (std::size_t lane = 0; lane < count; ++lane) {
      const std::size_t w = w0 + lane;
      std::uint64_t ok = plan.satisfied(slots, lane);
      // Mask off lanes past the batch in the final partial word.
      const std::size_t rows_here = std::min<std::size_t>(64, batch - w * 64);
      if (rows_here < 64) ok &= (1ULL << rows_here) - 1;
      solved_mask[w] = ok;
      std::uint64_t* stash = proj + w * n_proj;
      if (ok != 0 && stash_all_) {
        // Store/verify wants the whole projected assignment; the sampling
        // set is a subset, so this also covers projected keys and probes.
        for (std::size_t v = 0; v < n_proj; ++v) {
          stash[v] = circuit::EvalPlan::signal_word(slots, var_signal[v], lane);
        }
      } else if ((ok != 0 && mode_.projected) || probe) {
        // Keys-only projected accept needs set bits of solved rows; the
        // diversity probe needs them for every row (unsolved included).
        for (const cnf::Var v : problem_.sampling_set) {
          stash[v] = circuit::EvalPlan::signal_word(slots, var_signal[v], lane);
        }
      }
    }
  }

  /// Phase-2 core: accepts the solved rows serially in word order; returns
  /// how many were new to the bank.  Each word with a solved row gets its
  /// 64 rows' bank keys in one go; projected mode transposes the full keys
  /// the fresh sink wants only once the word banks a fresh row.
  std::size_t accept_words(const std::vector<std::uint64_t>& packed,
                           std::size_t n_words, std::size_t n_proj,
                           const std::uint64_t* solved_mask,
                           const std::uint64_t* proj, bool record_fresh) {
    const std::size_t key_words = bank_.n_words();
    const bool sink = record_fresh && fresh_sink_ != nullptr;
    std::size_t fresh = 0;
    for (std::size_t w = 0; w < n_words; ++w) {
      std::uint64_t ok = solved_mask[w];
      if (ok == 0) continue;
      const std::uint64_t* stash = proj + w * n_proj;
      const std::uint64_t* keys = mode_.projected
                                      ? projected_keys(stash)
                                      : full_keys(packed, n_words, w);
      const std::uint64_t* full = mode_.projected ? nullptr : keys;
      while (ok != 0) {
        const auto r = static_cast<std::size_t>(std::countr_zero(ok));
        ok &= ok - 1;
        const bool is_new = bank_.insert(keys + r * key_words);
        if (is_new && sink) {
          // Amplification bases are always FULL input keys (the amplifier
          // broadcasts them row-wise and flips input bits), independent of
          // what the bank keys on.
          if (full == nullptr) full = full_keys(packed, n_words, w);
          const std::uint64_t* base = full + r * full_words_;
          fresh_sink_->insert(fresh_sink_->end(), base, base + full_words_);
        }
        if (is_new) ++fresh;
        accept_row(stash, n_proj, r, is_new);
      }
    }
    return fresh;
  }

  /// Counts one solved row (bit r of the stash word) and stores or verifies
  /// its projected assignment as RunOptions asks.
  void accept_row(const std::uint64_t* stash, std::size_t n_proj,
                  std::size_t r, bool is_new) {
    ++result_.n_valid;
    if (!is_new && !options_.store_all_draws) return;

    const bool want_assignment = result_.solutions.size() < options_.store_limit ||
                                 (is_new && options_.verify_against_cnf);
    if (!want_assignment) return;
    cnf::Assignment assignment(n_proj, 0);
    for (cnf::Var v = 0; v < n_proj; ++v) {
      assignment[v] = static_cast<std::uint8_t>((stash[v] >> r) & 1ULL);
    }
    if (options_.verify_against_cnf && !formula_.satisfied_by(assignment)) {
      ++result_.n_invalid;
    }
    if (result_.solutions.size() < options_.store_limit) {
      result_.solutions.push_back(std::move(assignment));
    }
  }

  /// Full hardened input keys of word w's 64 rows into full_keys_ (row r
  /// at r * full_words_) — the bank key in full-assignment mode, and always
  /// the amplifier's base layout.
  const std::uint64_t* full_keys(const std::vector<std::uint64_t>& packed,
                                 std::size_t n_words, std::size_t w) {
    const std::uint64_t* column = packed.data() + w;
    detail::transpose_row_keys(
        problem_.circuit->n_inputs(),
        [&](std::size_t i) { return column[i * n_words]; }, full_keys_.data());
    return full_keys_.data();
  }

  /// Projected keys of the 64 rows whose set bits sit in the stash word at
  /// `stash` into proj_keys_ (row r at r * bank n_words()): bit k of a key
  /// is set variable set[k], so the key layout is a pure function of the
  /// (sorted, deduplicated) set.  Transposed once per stash word, so the
  /// diversity pass's per-row proposals within one word share it.
  const std::uint64_t* projected_keys(const std::uint64_t* stash) {
    if (stash != proj_keys_of_) {
      const std::vector<cnf::Var>& set = problem_.sampling_set;
      detail::transpose_row_keys(
          set.size(), [&](std::size_t k) { return stash[set[k]]; },
          proj_keys_.data());
      proj_keys_of_ = stash;
    }
    return proj_keys_.data();
  }

  /// Whether phase 1 must write the projection stash at all.
  [[nodiscard]] bool need_stash() const { return stash_all_ || mode_.projected; }

  const GdProblem& problem_;
  const cnf::Formula& formula_;
  const RunOptions& options_;
  RunResult& result_;
  Bank& bank_;
  const circuit::EvalPlan* plan_;
  std::unique_ptr<circuit::EvalPlan> owned_plan_;
  bool inline_eval_;
  HarvestMode mode_;
  bool stash_all_;
  /// Amplifier base buffer (see set_fresh_sink); null when amplification is
  /// off, and then never touched on the accept path.
  std::vector<std::uint64_t>* fresh_sink_ = nullptr;
  /// Words per full input key, (n_inputs + 63) / 64.
  std::size_t full_words_;
  /// Full input keys of one word's 64 rows (see full_keys).
  std::vector<std::uint64_t> full_keys_;
  /// Projected keys of one word's 64 rows, bank n_words() words each;
  /// empty unless projected (see projected_keys).
  std::vector<std::uint64_t> proj_keys_;
  /// The stash word proj_keys_ was transposed from; null after every
  /// rewrite of a stash.
  const std::uint64_t* proj_keys_of_ = nullptr;
  std::vector<std::uint64_t> solved_mask_;
  /// Shape of the most recent collect(), for banked_projection_mask().
  std::size_t last_n_words_ = 0;
  std::size_t last_batch_ = 0;
  /// Already-banked-projection row mask scratch (see
  /// banked_projection_mask).
  std::vector<std::uint64_t> dup_mask_;
  /// Sampling-set position -> engine input slot (see projection_slots).
  std::vector<std::uint32_t> proj_slots_;
  bool proj_slots_built_ = false;
  /// Candidate-pattern scratch for propose_fresh_neighbor, bank n_words()
  /// words; empty unless probing.
  std::vector<std::uint64_t> fresh_key_;
  /// Projection stash: var_signal words of every solved word of the current
  /// batch (proj_[w * n_proj + v]); phase 2 reads bits out of it instead of
  /// re-evaluating the circuit.
  std::vector<std::uint64_t> proj_;
  /// One evaluation scratch per parallel part, reused across collects.
  std::vector<std::vector<std::uint64_t>> scratch_;
  std::uint64_t rows_validated_ = 0;
  double harvest_ms_ = 0.0;
};

}  // namespace hts::sampler
