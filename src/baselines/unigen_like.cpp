#include "baselines/unigen_like.hpp"

#include <algorithm>

#include "core/unique_bank.hpp"
#include "solver/cdcl.hpp"
#include "util/timer.hpp"

namespace hts::baselines {

namespace {

using cnf::Lit;
using cnf::Var;

/// Cell-size ceiling: enumeration stops at kPivot+1 models.
constexpr std::size_t kPivot = 32;
/// Per-cell conflict budget (keeps a pathological cell from eating the
/// whole time budget).
constexpr std::int64_t kCellConflictBudget = 200000;
/// Maximum variables per parity constraint.  Dense (n/2-wide) hashes give
/// the strongest uniformity but are hopeless for plain CDCL — real UniGen
/// leans on CryptoMiniSat's Gaussian elimination.  Sparse hashing is the
/// standard workaround (cf. Meel et al. on sparse XORs) and preserves the
/// sampler's qualitative behaviour.
constexpr std::size_t kMaxXorWidth = 24;

/// Appends a random parity constraint over the original variables to the
/// formula: a random subset of up to kMaxXorWidth variables with a random
/// even/odd parity, encoded as an XOR chain with auxiliary variables.
void add_random_xor(cnf::Formula& formula, Var n_original, util::Rng& rng) {
  std::vector<Var> vars;
  if (n_original / 2 <= kMaxXorWidth) {
    for (Var v = 0; v < n_original; ++v) {
      if (rng.next_bool()) vars.push_back(v);
    }
  } else {
    // Sparse hash: sample max_width distinct variables.
    std::vector<Var> all(n_original);
    for (Var v = 0; v < n_original; ++v) all[v] = v;
    rng.shuffle(all);
    vars.assign(all.begin(),
                all.begin() + static_cast<std::ptrdiff_t>(kMaxXorWidth));
  }
  const bool parity = rng.next_bool();  // required XOR value
  if (vars.empty()) return;             // trivially true half the time; skip
  if (vars.size() == 1) {
    formula.add_clause({Lit(vars[0], !parity)});
    return;
  }
  // Chain: t1 = v0 ^ v1, t2 = t1 ^ v2, ...; final aux constrained to parity.
  auto emit_xor2 = [&formula](Var c, Var a, Var b) {
    formula.add_clause({Lit(c, true), Lit(a, false), Lit(b, false)});
    formula.add_clause({Lit(c, true), Lit(a, true), Lit(b, true)});
    formula.add_clause({Lit(c, false), Lit(a, true), Lit(b, false)});
    formula.add_clause({Lit(c, false), Lit(a, false), Lit(b, true)});
  };
  Var acc = vars[0];
  for (std::size_t i = 1; i < vars.size(); ++i) {
    const Var t = formula.new_var();
    emit_xor2(t, acc, vars[i]);
    acc = t;
  }
  formula.add_clause({Lit(acc, !parity)});
}

}  // namespace

sampler::RunResult UniGenLike::run(const cnf::Formula& formula,
                                   const sampler::RunOptions& options) {
  sampler::require_run_bound(options);
  sampler::RunResult result;
  result.sampler_name = name();

  util::Rng rng(options.seed ^ 0x0169e40fULL);
  const util::StopToken stop = options.stop.with_budget(options.budget_ms);
  util::Timer timer;
  sampler::UniqueBank bank(formula.n_vars());

  std::vector<Var> original_vars(formula.n_vars());
  for (Var v = 0; v < formula.n_vars(); ++v) original_vars[v] = v;

  // Adaptive number of hash constraints: gallop upward while cells
  // overflow, then binary-search between the tightest known bounds (real
  // UniGen gets this from an ApproxMC count; the search reconverges here
  // because the model count is unknown).
  std::size_t m = 0;
  std::size_t overflow_below = 0;                     // largest m seen to overflow
  std::size_t empty_above = formula.n_vars() + 1;     // smallest m seen empty
  bool any_sat_seen = false;

  while (!stop.stop_requested()) {
    if (options.min_solutions > 0 && bank.size() >= options.min_solutions) break;

    // Build the hashed formula for this round.
    cnf::Formula hashed = formula;
    for (std::size_t i = 0; i < m; ++i) {
      add_random_xor(hashed, formula.n_vars(), rng);
    }

    solver::CdclConfig solver_config;
    solver_config.seed = rng.next_u64();
    solver_config.polarity = solver::CdclConfig::Polarity::kRandom;
    solver_config.conflict_budget = kCellConflictBudget;
    solver::CdclSolver solver(solver_config);
    solver.add_formula(hashed);

    // Enumerate the cell up to kPivot+1 models (projected onto originals).
    std::vector<cnf::Assignment> cell;
    bool overflow = false;
    bool interrupted = false;
    for (;;) {
      const solver::Status status = solver.solve({}, stop);
      if (status == solver::Status::kUnknown) {
        interrupted = true;
        break;
      }
      if (status == solver::Status::kUnsat) break;
      any_sat_seen = true;
      cnf::Assignment projected(solver.model().begin(),
                                solver.model().begin() + formula.n_vars());
      cell.push_back(std::move(projected));
      if (cell.size() > kPivot) {
        overflow = true;
        break;
      }
      if (!solver.block_model(original_vars)) break;  // cell exhausted
    }

    if (interrupted) {
      // Salvage what was found before the interruption.  Partial cells are
      // search-order-biased, so like overflow cells below they are banked
      // for the unique count but kept out of the emitted `solutions` stream
      // — except when the run was stopped (budget or cancel), where nothing
      // further will be emitted anyway and the salvage is the run's last
      // word (legacy behaviour).
      const bool emit = stop.stop_requested();
      for (const cnf::Assignment& model : cell) {
        ++result.n_valid;
        if (bank.insert_bits(model) && emit &&
            result.solutions.size() < options.store_limit) {
          result.solutions.push_back(model);
        }
      }
      if (!emit) {
        // kUnknown without a stop means the per-cell conflict
        // budget ran out: this m's XOR-hashed formula is too hard for plain
        // CDCL.  Retrying the same m would loop forever on the same wall;
        // bisect back toward the largest m known to overflow, where cells
        // are cheap again.
        if (m > overflow_below) m = (overflow_below + m) / 2;
      }
      continue;
    }
    if (overflow) {
      // The cell is too big to emit from uniformly, but its models are
      // perfectly valid solutions; bank them for the unique count (the
      // sampler's throughput metric) while keeping them out of the emitted
      // `solutions` stream so distribution analyses still see only
      // cell-uniform UniGen-style output.
      for (const cnf::Assignment& model : cell) {
        ++result.n_valid;
        if (bank.insert_bits(model)) {
          result.progress.push_back(
              sampler::ProgressPoint{timer.milliseconds(), bank.size()});
        }
      }
      overflow_below = std::max(overflow_below, m);
      if (empty_above > formula.n_vars()) {
        m = m * 2 + 1;  // gallop until an upper bound exists
      } else {
        m = (m + empty_above + 1) / 2;
      }
      if (m > formula.n_vars()) m = formula.n_vars();
      continue;
    }
    if (cell.empty()) {
      if (m == 0) {
        // No hashing and no model: the formula itself is UNSAT.
        result.proven_unsat = !any_sat_seen;
        break;
      }
      empty_above = std::min(empty_above, m);
      m = (overflow_below + m) / 2;  // back off toward the overflow bound
      continue;
    }

    // Emit a random subset of the cell (UniGen picks uniformly inside it).
    rng.shuffle(cell);
    const std::size_t take = std::min(config_.samples_per_cell, cell.size());
    for (std::size_t i = 0; i < take; ++i) {
      ++result.n_valid;
      if (options.verify_against_cnf && !formula.satisfied_by(cell[i])) {
        ++result.n_invalid;
      }
      const bool is_new = bank.insert_bits(cell[i]);
      if ((is_new || options.store_all_draws) &&
          result.solutions.size() < options.store_limit) {
        result.solutions.push_back(cell[i]);
      }
      if (is_new) {
        result.progress.push_back(
            sampler::ProgressPoint{timer.milliseconds(), bank.size()});
      }
    }
  }

  result.n_unique = bank.size();
  result.elapsed_ms = timer.milliseconds();
  result.timed_out =
      options.min_solutions > 0 && result.n_unique < options.min_solutions;
  return result;
}

}  // namespace hts::baselines
