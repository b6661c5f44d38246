#pragma once

// Word-parallel flip amplification of harvested solutions.
//
// QuickSampler (Dutra et al.) showed that mutating individual bits of a
// known solution and cheaply re-validating yields hundreds of extra valid
// samples per solver call.  Here the idea runs at EvalPlan speed: after each
// GD harvest's accept phase, every solution the collect freshly banked
// becomes a *base*; the amplifier generates its single-bit-flip mutants over
// the sampling-set inputs, packs them 64 per word into
// EvalPlan::kBlockWords-word chunks (256 mutants per chunk), validates them
// through the harvester's own phase-1/phase-2 machinery, and banks the
// survivors.  Single flips that stayed satisfying are then combined into
// double flips (capped pairs, lexicographic), the same escalation
// QuickSampler's epochs/flips/samples loop performs one candidate at a time.
//
// Determinism contract: amplification is a pure function of the bases — it
// consumes no RNG draws, evaluates inline on the calling thread (never the
// global pool), and accepts mutants in a fixed order (bases in
// bank-insertion order, singles in input order, pairs lexicographic over
// successful singles).  A job's amplified solution stream therefore stays a
// pure function of (formula, seed, config) under any thread count or
// service fleet size.
//
// Allocation contract: all scratch (the packed mutant buffer, the
// CollectScratch, the base/pair/success lists) is per-instance and reused;
// once warm, repeated amplified collects perform no heap allocation beyond
// what the bank needs for genuinely new solutions — the same bar the
// harvester itself meets (tests/amplifier_test.cpp pins this with an
// operator-new hook).
//
// Accounting: amplified candidate rows and amplified uniques are billed
// separately (GdLoopExtras / service::JobStats) and are *not* added to
// Harvester::rows_validated(), so the GD pipeline's rows/sec metric stays
// honest.  Wall-clock spent amplifying lands inside the round, so the
// service's EDF slice accounting and admission cost-EWMA see it naturally.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "circuit/eval_plan.hpp"
#include "cnf/types.hpp"
#include "core/gd_loop.hpp"
#include "core/harvester.hpp"
#include "telemetry/trace.hpp"
#include "util/timer.hpp"

namespace hts::sampler {

template <typename Bank>
class Amplifier {
 public:
  /// Registers itself as the harvester's fresh-key sink: every solution a
  /// subsequent collect() newly banks is recorded as an amplification base
  /// until amplify() consumes the batch.  The harvester is borrowed for the
  /// amplifier's lifetime.
  Amplifier(const GdLoopConfig& config, Harvester<Bank>& harvester)
      : config_(config.amplify), harvester_(harvester) {
    const GdProblem& problem = harvester.problem();
    const std::size_t n_inputs = problem.circuit->n_inputs();
    key_words_ = (n_inputs + 63) / 64;
    // Flip support: circuit inputs whose original variable is in the
    // sampling set, in input order.  No (or an empty) set means every
    // input; auxiliary inputs (no original variable) are only flipped in
    // that unrestricted case.
    const bool restricted = !problem.sampling_set.empty();
    if (restricted) {
      // The membership bitmap is bounded by the largest variable an input
      // actually maps to, so an out-of-range set entry costs nothing — it
      // can never match an input anyway.
      cnf::Var max_var = 0;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const cnf::Var var = problem.input_var(i);
        if (var != cnf::kInvalidVar && var > max_var) max_var = var;
      }
      std::vector<std::uint8_t> in_set;
      for (const cnf::Var v : problem.sampling_set) {
        if (v == cnf::kInvalidVar || v > max_var) continue;
        if (v >= in_set.size()) in_set.resize(v + 1, 0);
        in_set[v] = 1;
      }
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const cnf::Var var = problem.input_var(i);
        if (var != cnf::kInvalidVar && var < in_set.size() && in_set[var]) {
          support_.push_back(i);
        }
      }
    } else {
      support_.resize(n_inputs);
      for (std::size_t i = 0; i < n_inputs; ++i) support_[i] = i;
    }
    harvester_.set_fresh_sink(&bases_);
  }

  ~Amplifier() { harvester_.set_fresh_sink(nullptr); }
  Amplifier(const Amplifier&) = delete;
  Amplifier& operator=(const Amplifier&) = delete;

  /// Amplifies every base banked since the previous call (subject to
  /// AmplifyConfig::max_bases_per_collect) and clears the base buffer.
  /// Polls the stop token before every base; the rest of the batch is
  /// dropped once it fires.  Call once per harvest, right after
  /// Harvester::collect().
  void amplify() {
    const util::Timer timer;
    const std::size_t n_bases = bases_.size() / key_words_;
    std::size_t limit = n_bases;
    if (config_.max_bases_per_collect > 0) {
      limit = std::min(limit, config_.max_bases_per_collect);
    }
    for (std::size_t b = 0; b < limit; ++b) {
      if (harvester_.options().stop.stop_requested()) break;
      amplify_base(bases_.data() + b * key_words_);
    }
    bases_.clear();
    amplify_ms_ += timer.milliseconds();
    if (limit == 0) return;  // nothing fresh to amplify: no span
    if (telemetry::trace_enabled()) {
      telemetry::TraceSink::global().complete("amplify", "gd",
                                              timer.start_ns(),
                                              util::monotonic_ns());
    }
  }

  /// Amplifies one explicit base key (bank word layout: bit i of word i/64
  /// is circuit input i).  amplify() calls this per fresh base; it is also
  /// the seam the allocation-profile test drives directly, since a repeated
  /// collect of an already-banked batch yields no fresh bases.
  void amplify_key(const std::uint64_t* key) { amplify_base(key); }

  /// Inputs the amplifier flips, in input order (the sampling-set support).
  [[nodiscard]] const std::vector<std::size_t>& support() const {
    return support_;
  }

  /// Mutant rows generated and validated over the amplifier's lifetime.
  [[nodiscard]] std::uint64_t amplified_candidates() const {
    return amplified_candidates_;
  }
  /// Mutants that were genuinely new to the bank.
  [[nodiscard]] std::uint64_t amplified_uniques() const {
    return amplified_uniques_;
  }
  /// Wall-clock milliseconds spent inside amplify() over the lifetime.
  [[nodiscard]] double amplify_ms() const { return amplify_ms_; }

 private:
  void amplify_base(const std::uint64_t* base) {
    if (support_.empty()) return;
    // Wave 1 — single flips over the support, recording the ones that
    // stayed satisfying.  Success depends only on the circuit, never on
    // bank state, so the pair wave below is deterministic too.
    flip_ok_.clear();
    run_wave(base, support_.data(), nullptr, support_.size(), true);
    // Wave 2 — double flips: pairs (i, j), i < j lexicographic, of the
    // successful singles, capped.
    if (config_.max_pairs_per_base == 0 || flip_ok_.size() < 2) return;
    pair_a_.clear();
    pair_b_.clear();
    const std::size_t cap = config_.max_pairs_per_base;
    for (std::size_t x = 0; x + 1 < flip_ok_.size() && pair_a_.size() < cap;
         ++x) {
      for (std::size_t y = x + 1; y < flip_ok_.size() && pair_a_.size() < cap;
           ++y) {
        pair_a_.push_back(flip_ok_[x]);
        pair_b_.push_back(flip_ok_[y]);
      }
    }
    run_wave(base, pair_a_.data(), pair_b_.data(), pair_a_.size(), false);
  }

  /// Packs and validates one wave of mutants: mutant m flips input a[m]
  /// (and input b[m] when b is non-null), in chunks of 256 rows (one
  /// EvalPlan block).  When record_ok is set, the flipped input of every
  /// satisfying single lands in flip_ok_.
  void run_wave(const std::uint64_t* base, const std::size_t* a,
                const std::size_t* b, std::size_t n_mutants, bool record_ok) {
    const std::size_t n_inputs = harvester_.problem().circuit->n_inputs();
    constexpr std::size_t kChunkWords = circuit::EvalPlan::kBlockWords;
    constexpr std::size_t kChunkRows = 64 * kChunkWords;
    if (packed_.size() < n_inputs * kChunkWords) {
      packed_.resize(n_inputs * kChunkWords);
    }
    for (std::size_t begin = 0; begin < n_mutants; begin += kChunkRows) {
      const std::size_t count = std::min(kChunkRows, n_mutants - begin);
      const std::size_t n_words = (count + 63) / 64;
      // Broadcast the base row into every lane, then toggle the flipped
      // input bit(s) of each mutant row.
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const std::uint64_t word =
            ((base[i >> 6] >> (i & 63)) & 1ULL) != 0 ? ~0ULL : 0ULL;
        for (std::size_t w = 0; w < n_words; ++w) {
          packed_[i * n_words + w] = word;
        }
      }
      for (std::size_t m = 0; m < count; ++m) {
        const std::uint64_t bit = 1ULL << (m & 63);
        packed_[a[begin + m] * n_words + (m >> 6)] ^= bit;
        if (b != nullptr) packed_[b[begin + m] * n_words + (m >> 6)] ^= bit;
      }
      amplified_uniques_ +=
          harvester_.collect_candidates(packed_, n_words, count, scratch_);
      amplified_candidates_ += count;
      if (record_ok) {
        for (std::size_t m = 0; m < count; ++m) {
          if (((scratch_.solved_mask[m >> 6] >> (m & 63)) & 1ULL) != 0) {
            flip_ok_.push_back(a[begin + m]);
          }
        }
      }
    }
  }

  AmplifyConfig config_;
  Harvester<Bank>& harvester_;
  std::size_t key_words_ = 0;
  /// Circuit input indices eligible for flipping, ascending.
  std::vector<std::size_t> support_;
  /// Fresh-key buffer the harvester appends to (key_words_ words per base).
  std::vector<std::uint64_t> bases_;
  /// Packed mutant chunk: n_inputs x (chunk words), harden() layout.
  std::vector<std::uint64_t> packed_;
  CollectScratch scratch_;
  /// Inputs whose single flip of the current base stayed satisfying.
  std::vector<std::size_t> flip_ok_;
  std::vector<std::size_t> pair_a_;
  std::vector<std::size_t> pair_b_;
  std::uint64_t amplified_candidates_ = 0;
  std::uint64_t amplified_uniques_ = 0;
  double amplify_ms_ = 0.0;
};

}  // namespace hts::sampler
