#include "benchgen/families.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "circuit/tseitin.hpp"
#include "util/rng.hpp"

namespace hts::benchgen {

namespace {

using circuit::Circuit;
using circuit::GateType;
using circuit::SignalId;

/// FNV-1a over the name: per-instance deterministic seed.
std::uint64_t name_seed(const std::string& name, std::uint64_t mix) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ mix;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Throws std::invalid_argument unless options.scale is finite and positive.
void check_scale(const GenOptions& options) {
  if (!std::isfinite(options.scale) || options.scale <= 0.0) {
    throw std::invalid_argument(
        "benchgen scale must be finite and positive, got " +
        std::to_string(options.scale));
  }
}

/// max(minimum, base * scale rounded down) for a checked scale; throws
/// std::invalid_argument when the product does not fit a std::size_t.
std::size_t scaled_count(double base, double scale, std::size_t minimum) {
  const double count = base * scale;
  if (count >= std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)) {
    throw std::invalid_argument("benchgen scale " + std::to_string(scale) +
                                " overflows an instance size");
  }
  return std::max(minimum, static_cast<std::size_t>(count));
}

/// Evaluates the circuit on a random input vector, constrains the chosen
/// outputs to the observed values (instance SAT by construction), encodes
/// to CNF, and assembles the witness over formula variables.
Instance finalize(std::string name, std::string family, Circuit&& circuit,
                  const std::vector<SignalId>& output_signals, util::Rng& rng) {
  std::vector<std::uint8_t> input_values(circuit.n_inputs());
  for (auto& bit : input_values) bit = rng.next_bool() ? 1 : 0;
  const std::vector<std::uint8_t> values = circuit.eval(input_values);
  for (const SignalId out : output_signals) {
    circuit.add_output(out, values[out] != 0);
  }

  circuit::TseitinResult encoded = circuit::tseitin_encode(circuit);

  Instance instance;
  instance.name = std::move(name);
  instance.family = std::move(family);
  instance.witness.assign(encoded.formula.n_vars(), 0);
  for (SignalId s = 0; s < circuit.n_signals(); ++s) {
    instance.witness[encoded.signal_var[s]] = values[s];
  }
  instance.signal_var = std::move(encoded.signal_var);
  instance.formula = std::move(encoded.formula);
  instance.circuit = std::move(circuit);
  return instance;
}

/// A random fanin drawn with locality bias: mostly from the trailing
/// `window` signals, occasionally anywhere.
SignalId biased_pick(util::Rng& rng, std::size_t n_signals, std::size_t window) {
  if (n_signals == 1 || rng.next_bool(0.2)) {
    return static_cast<SignalId>(rng.next_below(n_signals));
  }
  const std::size_t lo = n_signals > window ? n_signals - window : 0;
  return static_cast<SignalId>(lo + rng.next_below(n_signals - lo));
}

}  // namespace

// --- or-k-a-b-UC-c -----------------------------------------------------------

Instance make_or_instance(std::size_t n_inputs, std::size_t variant_a,
                          std::size_t variant_b, std::size_t variant_c,
                          const GenOptions& options) {
  check_scale(options);
  const std::string name = "or-" + std::to_string(n_inputs) + "-" +
                           std::to_string(variant_a) + "-" +
                           std::to_string(variant_b) + "-UC-" +
                           std::to_string(variant_c);
  util::Rng rng(name_seed(name, options.seed_mix));

  Circuit circuit;
  std::vector<SignalId> inputs;
  inputs.reserve(n_inputs);
  for (std::size_t i = 0; i < n_inputs; ++i) inputs.push_back(circuit.add_input());

  // Unconstrained chains ("UC"): short buffer/inverter runs off a few inputs
  // that feed nothing downstream.
  const std::size_t n_chains = 2 + variant_c % 4;
  for (std::size_t c = 0; c < n_chains; ++c) {
    SignalId cur = inputs[rng.next_below(inputs.size())];
    const std::size_t len = 2 + rng.next_below(4);
    for (std::size_t step = 0; step < len; ++step) {
      cur = circuit.add_gate(rng.next_bool() ? GateType::kBuf : GateType::kNot, {cur});
    }
  }

  // Constrained cones: one OR/AND tree per output over random input subsets.
  const std::size_t n_outputs = std::max<std::size_t>(2, n_inputs / 13);
  std::vector<SignalId> output_signals;
  for (std::size_t o = 0; o < n_outputs; ++o) {
    // Leaf layer: a random subset of inputs, some inverted.
    std::vector<SignalId> layer;
    const std::size_t leaves =
        std::max<std::size_t>(4, n_inputs / n_outputs + rng.next_below(4));
    for (std::size_t l = 0; l < leaves; ++l) {
      SignalId leaf = inputs[rng.next_below(inputs.size())];
      if (rng.next_bool(0.3)) leaf = circuit.add_gate(GateType::kNot, {leaf});
      layer.push_back(leaf);
    }
    // Reduce with alternating OR-heavy trees of fanin 2-3.
    bool use_or = true;
    while (layer.size() > 1) {
      std::vector<SignalId> next;
      for (std::size_t i = 0; i < layer.size();) {
        const std::size_t take = std::min<std::size_t>(
            layer.size() - i, 2 + (rng.next_bool(0.3) ? 1 : 0));
        if (take == 1) {
          next.push_back(layer[i]);
          ++i;
          continue;
        }
        std::vector<SignalId> fanins(layer.begin() + static_cast<std::ptrdiff_t>(i),
                                     layer.begin() + static_cast<std::ptrdiff_t>(i + take));
        const GateType type = use_or ? (rng.next_bool(0.8) ? GateType::kOr : GateType::kAnd)
                                     : (rng.next_bool(0.8) ? GateType::kAnd : GateType::kOr);
        next.push_back(circuit.add_gate(type, std::move(fanins)));
        i += take;
      }
      layer = std::move(next);
      use_or = !use_or;
    }
    output_signals.push_back(layer[0]);
  }

  return finalize(name, "or", std::move(circuit), output_signals, rng);
}

// --- w-10-i-q ---------------------------------------------------------------

Instance make_q_instance(std::size_t width, std::size_t variant,
                         const GenOptions& options) {
  check_scale(options);
  const std::string name =
      std::to_string(width) + "-10-" + std::to_string(variant) + "-q";
  util::Rng rng(name_seed(name, options.seed_mix));

  Circuit circuit;
  // Size model: ~440 total signals (published instances hold ~430-456 vars
  // for both widths); the variant scales the MUX density downward, which
  // lowers the PI count the way the published instances do (83 PIs for
  // 75-10-1-q vs 31 for 90-10-10-q).
  const std::size_t target_signals = 410 + (width % 37);
  const double mux_rate =
      0.17 - 0.015 * static_cast<double>((variant - 1) % 10);
  const std::size_t n_chains = 3 + variant % 3;
  const std::size_t per_chain = target_signals / n_chains;

  std::vector<SignalId> chain_tail;
  for (std::size_t c = 0; c < n_chains; ++c) {
    SignalId cur = circuit.add_input();
    const std::size_t chain_start = circuit.n_signals();
    while (circuit.n_signals() - chain_start < per_chain) {
      if (rng.next_bool(mux_rate)) {
        // 2:1 MUX: cur selects between two fresh inputs —
        // (cur & a) | (~cur & b), the paper's Eq. 5 shape.  Adds 6 signals.
        const SignalId a = circuit.add_input();
        const SignalId b = circuit.add_input();
        const SignalId t0 = circuit.add_gate(GateType::kAnd, {cur, a});
        const SignalId inv = circuit.add_gate(GateType::kNot, {cur});
        const SignalId t1 = circuit.add_gate(GateType::kAnd, {inv, b});
        cur = circuit.add_gate(GateType::kOr, {t0, t1});
      } else {
        cur = circuit.add_gate(rng.next_bool() ? GateType::kBuf : GateType::kNot,
                               {cur});
      }
    }
    chain_tail.push_back(cur);
  }

  // One constrained output: combine a subset of the chain tails; the
  // remaining chains dangle as unconstrained paths.
  const std::size_t combine = 1 + rng.next_below(chain_tail.size());
  std::vector<SignalId> fanins(chain_tail.begin(),
                               chain_tail.begin() + static_cast<std::ptrdiff_t>(combine));
  const SignalId po =
      combine == 1 ? fanins[0]
                   : circuit.add_gate(rng.next_bool() ? GateType::kOr : GateType::kAnd,
                                      std::move(fanins));
  return finalize(name, "q", std::move(circuit), {po}, rng);
}

// --- s15850a_x_y --------------------------------------------------------------

Instance make_s15850_instance(std::size_t n_outputs, std::size_t variant,
                              const GenOptions& options) {
  check_scale(options);
  const std::string name =
      "s15850a_" + std::to_string(n_outputs) + "_" + std::to_string(variant);
  util::Rng rng(name_seed(name, options.seed_mix));

  Circuit circuit;
  const std::size_t n_inputs = scaled_count(600.0, options.scale, 8);
  const std::size_t n_gates = scaled_count(
      10300.0 + 25.0 * static_cast<double>(n_outputs), options.scale, 32);
  for (std::size_t i = 0; i < n_inputs; ++i) circuit.add_input();

  for (std::size_t g = 0; g < n_gates; ++g) {
    const std::size_t n_signals = circuit.n_signals();
    const double roll = rng.next_double();
    if (roll < 0.12) {
      circuit.add_gate(GateType::kNot,
                       {biased_pick(rng, n_signals, 200)});
    } else if (roll < 0.18) {
      circuit.add_gate(GateType::kBuf, {biased_pick(rng, n_signals, 200)});
    } else {
      const SignalId a = biased_pick(rng, n_signals, 200);
      SignalId b = biased_pick(rng, n_signals, 200);
      if (b == a) b = static_cast<SignalId>(rng.next_below(n_signals));
      GateType type = GateType::kAnd;
      const double t = rng.next_double();
      if (t < 0.30) {
        type = GateType::kAnd;
      } else if (t < 0.60) {
        type = GateType::kOr;
      } else if (t < 0.75) {
        type = GateType::kNand;
      } else if (t < 0.90) {
        type = GateType::kNor;
      } else {
        type = GateType::kXor;
      }
      if (a == b) {
        circuit.add_gate(GateType::kNot, {a});
      } else {
        circuit.add_gate(type, {a, b});
      }
    }
  }

  // Constrained outputs sampled from the deep end of the netlist.
  std::vector<SignalId> output_signals;
  const std::size_t tail_lo = circuit.n_signals() * 3 / 4;
  for (std::size_t o = 0; o < n_outputs; ++o) {
    output_signals.push_back(static_cast<SignalId>(
        tail_lo + rng.next_below(circuit.n_signals() - tail_lo)));
  }
  std::sort(output_signals.begin(), output_signals.end());
  output_signals.erase(std::unique(output_signals.begin(), output_signals.end()),
                       output_signals.end());

  return finalize(name, "s15850a", std::move(circuit), output_signals, rng);
}

// --- Prod-n --------------------------------------------------------------------

Instance make_prod_instance(std::size_t n_modules, const GenOptions& options) {
  check_scale(options);
  const std::string name = "Prod-" + std::to_string(n_modules);
  util::Rng rng(name_seed(name, options.seed_mix));

  Circuit circuit;
  const std::size_t shared = scaled_count(40.0, options.scale, 4);
  const std::size_t locals_per_module = scaled_count(32.0, options.scale, 4);
  const std::size_t gates_per_module = scaled_count(1800.0, options.scale, 16);

  std::vector<SignalId> shared_inputs;
  for (std::size_t i = 0; i < shared; ++i) shared_inputs.push_back(circuit.add_input());

  std::vector<SignalId> module_outputs;
  std::vector<SignalId> probe_signals;  // deep internal signals for output 2
  for (std::size_t mod = 0; mod < n_modules; ++mod) {
    std::vector<SignalId> pool = shared_inputs;
    for (std::size_t i = 0; i < locals_per_module; ++i) {
      pool.push_back(circuit.add_input());
    }
    for (std::size_t g = 0; g < gates_per_module; ++g) {
      const double roll = rng.next_double();
      SignalId made = circuit::kNoSignal;
      if (roll < 0.25) {
        // Wide OR/AND (4-7 fanins): pushes the clause/variable ratio toward
        // the published Prod profile (~5 clauses per variable).
        const std::size_t width = 4 + rng.next_below(4);
        std::vector<SignalId> fanins;
        for (std::size_t i = 0; i < width; ++i) {
          fanins.push_back(pool[rng.next_below(pool.size())]);
        }
        std::sort(fanins.begin(), fanins.end());
        fanins.erase(std::unique(fanins.begin(), fanins.end()), fanins.end());
        if (fanins.size() < 2) fanins.push_back(pool[rng.next_below(pool.size())]);
        made = circuit.add_gate(rng.next_bool() ? GateType::kOr : GateType::kAnd,
                                fanins);
      } else if (roll < 0.45) {
        const SignalId a = pool[rng.next_below(pool.size())];
        SignalId b = pool[rng.next_below(pool.size())];
        if (a == b) {
          made = circuit.add_gate(GateType::kNot, {a});
        } else {
          made = circuit.add_gate(GateType::kXor, {a, b});
        }
      } else if (roll < 0.55) {
        made = circuit.add_gate(GateType::kNot, {pool[rng.next_below(pool.size())]});
      } else {
        const SignalId a = pool[rng.next_below(pool.size())];
        SignalId b = pool[rng.next_below(pool.size())];
        if (a == b) {
          made = circuit.add_gate(GateType::kBuf, {a});
        } else {
          made = circuit.add_gate(
              rng.next_bool() ? GateType::kAnd : GateType::kOr, {a, b});
        }
      }
      pool.push_back(made);
      // Keep the pool biased toward recent logic.
      if (pool.size() > 256 && rng.next_bool(0.5)) {
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(
                                      rng.next_below(pool.size() / 2)));
      }
    }
    module_outputs.push_back(pool.back());
    probe_signals.push_back(pool[pool.size() / 2]);
  }

  // Output 1: conjunction of all module validity bits.
  const SignalId po1 = module_outputs.size() == 1
                           ? module_outputs[0]
                           : circuit.add_gate(GateType::kAnd, module_outputs);
  // Output 2: parity probe across module internals, built as a balanced
  // 2-input XOR tree.  (Wide XOR gates would make the Tseitin encoder add
  // chain variables that the signal-value witness cannot cover.)
  std::vector<SignalId> layer = probe_signals;
  while (layer.size() > 1) {
    std::vector<SignalId> next;
    for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
      next.push_back(circuit.add_gate(GateType::kXor, {layer[i], layer[i + 1]}));
    }
    if (layer.size() % 2 == 1) next.push_back(layer.back());
    layer = std::move(next);
  }
  const SignalId po2 = layer[0];
  return finalize(name, "prod", std::move(circuit), {po1, po2}, rng);
}

// --- name dispatch ---------------------------------------------------------------

Instance make_instance(const std::string& name, const GenOptions& options) {
  auto split = [](const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
      if (i == text.size() || text[i] == sep) {
        parts.push_back(text.substr(begin, i - begin));
        begin = i + 1;
      }
    }
    return parts;
  };
  auto to_num = [&name](const std::string& token) -> std::size_t {
    try {
      return static_cast<std::size_t>(std::stoul(token));
    } catch (const std::exception&) {
      throw std::invalid_argument("bad number '" + token + "' in instance name " +
                                  name);
    }
  };

  if (name.rfind("or-", 0) == 0) {
    const auto parts = split(name, '-');  // or k a b UC c
    if (parts.size() == 6 && parts[4] == "UC") {
      return make_or_instance(to_num(parts[1]), to_num(parts[2]), to_num(parts[3]),
                              to_num(parts[5]), options);
    }
  } else if (name.size() > 2 && name.rfind("-q") == name.size() - 2) {
    const auto parts = split(name, '-');  // w 10 i q
    if (parts.size() == 4) {
      return make_q_instance(to_num(parts[0]), to_num(parts[2]), options);
    }
  } else if (name.rfind("s15850a_", 0) == 0) {
    const auto parts = split(name.substr(8), '_');  // x y
    if (parts.size() == 2) {
      return make_s15850_instance(to_num(parts[0]), to_num(parts[1]), options);
    }
  } else if (name.rfind("Prod-", 0) == 0) {
    return make_prod_instance(to_num(name.substr(5)), options);
  }
  throw std::invalid_argument("unrecognized benchmark instance name: " + name);
}

}  // namespace hts::benchgen
