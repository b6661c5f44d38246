#include "cnf/dimacs.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

namespace hts::cnf {

namespace {

[[nodiscard]] long long parse_int(const std::string& token, std::size_t line) {
  std::size_t pos = 0;
  long long value = 0;
  try {
    value = std::stoll(token, &pos);
  } catch (const std::exception&) {
    throw DimacsError("expected integer, got '" + token + "'", line);
  }
  if (pos != token.size()) {
    throw DimacsError("trailing junk in integer '" + token + "'", line);
  }
  return value;
}

struct Cursor {
  std::istream* in = nullptr;
  std::size_t line = 1;
  bool at_line_start = true;
  /// Whether the most recent token was the first on its line (distinguishes
  /// a SATLIB '%' footer line from a stray '%' inside a clause line).
  bool token_started_line = false;
  /// 1-based variables accumulated from 'c ind' declarations, with the line
  /// each appeared on (range validation happens once the header is known).
  std::vector<std::pair<long long, std::size_t>> ind;

  /// Reads the next whitespace-delimited token, tracking line numbers and
  /// consuming comment lines (a 'c' in the first column).  'c ind'
  /// declarations are collected; other comments are discarded.  Returns
  /// false at end of input.
  bool next_token(std::string& token) {
    token.clear();
    int ch = in->get();
    for (;;) {
      while (ch != EOF && std::isspace(ch) != 0) {
        if (ch == '\n') {
          ++line;
          at_line_start = true;
        }
        ch = in->get();
      }
      if (ch == 'c' && at_line_start) {
        // Comment: capture the rest of the line (the '\n' stays unconsumed
        // for the whitespace loop's line accounting) and inspect it for a
        // sampling-set declaration.
        const std::size_t comment_line = line;
        std::string rest;
        ch = in->get();
        while (ch != EOF && ch != '\n') {
          rest.push_back(static_cast<char>(ch));
          ch = in->get();
        }
        note_comment(rest, comment_line);
        continue;
      }
      break;
    }
    if (ch == EOF) return false;
    token_started_line = at_line_start;
    at_line_start = false;
    while (ch != EOF && std::isspace(ch) == 0) {
      token.push_back(static_cast<char>(ch));
      ch = in->get();
    }
    if (ch == '\n') {
      ++line;
      at_line_start = true;
    }
    return true;
  }

  /// QuickSampler/UniGen sampling-set declaration: "c ind v1 v2 ... 0".  The
  /// first word must be exactly "ind" (prose like "c independent study" is
  /// an ordinary comment); after that every word must be a positive integer,
  /// up to an optional conventional "0" terminator.  Declarations may span
  /// multiple 'c ind' lines; variables accumulate.
  void note_comment(const std::string& rest, std::size_t comment_line) {
    std::istringstream words(rest);
    std::string word;
    if (!(words >> word) || word != "ind") return;
    while (words >> word) {
      if (word == "0") return;  // terminator; anything after it is junk we skip
      const long long value = parse_int(word, comment_line);
      if (value <= 0) {
        throw DimacsError(
            "'c ind' variable must be positive, got '" + word + "'",
            comment_line);
      }
      ind.emplace_back(value, comment_line);
    }
  }
};

}  // namespace

Formula parse_dimacs(std::istream& in) {
  Cursor cursor;
  cursor.in = &in;
  std::string token;

  // Header: "p cnf <vars> <clauses>".
  long long declared_vars = -1;
  long long declared_clauses = -1;
  while (cursor.next_token(token)) {
    if (token == "p") {
      if (!cursor.next_token(token) || token != "cnf") {
        throw DimacsError("expected 'cnf' after 'p'", cursor.line);
      }
      if (!cursor.next_token(token)) throw DimacsError("missing var count", cursor.line);
      declared_vars = parse_int(token, cursor.line);
      if (!cursor.next_token(token)) {
        throw DimacsError("missing clause count", cursor.line);
      }
      declared_clauses = parse_int(token, cursor.line);
      break;
    }
    throw DimacsError("expected 'p cnf' header, got '" + token + "'", cursor.line);
  }
  if (declared_vars < 0 || declared_clauses < 0) {
    throw DimacsError("missing 'p cnf' header", cursor.line);
  }
  // Lit packs 2 * var + sign into 32 bits and Lit::from_dimacs takes an
  // int, so INT32_MAX variables is the most a formula can address.
  constexpr long long kMaxVars = std::numeric_limits<std::int32_t>::max();
  if (declared_vars > kMaxVars) {
    throw DimacsError("variable count " + std::to_string(declared_vars) +
                          " exceeds the supported maximum " +
                          std::to_string(kMaxVars),
                      cursor.line);
  }

  Formula formula(static_cast<Var>(declared_vars));
  // 'c ind' ranges are checked against the header once the clause section
  // ends (declarations legally precede the header, and more may follow
  // between clauses).
  auto apply_sampling_set = [&] {
    if (cursor.ind.empty()) return;
    std::vector<Var> vars;
    vars.reserve(cursor.ind.size());
    for (const auto& [value, ind_line] : cursor.ind) {
      if (value > declared_vars) {
        throw DimacsError("'c ind' variable " + std::to_string(value) +
                              " exceeds declared variable count " +
                              std::to_string(declared_vars),
                          ind_line);
      }
      vars.push_back(static_cast<Var>(value - 1));
    }
    formula.set_sampling_set(std::move(vars));
  };
  Clause current;
  bool clause_open = false;
  while (cursor.next_token(token)) {
    if (token == "%" && cursor.token_started_line) {
      // SATLIB footer: a '%' starting a line ends the clause section;
      // whatever follows (conventionally a lone '0' and blank lines) is
      // ignored.  A '%' elsewhere still falls through to parse_int's error —
      // mid-line it marks corruption, not a footer.
      if (clause_open) {
        throw DimacsError("last clause missing terminating 0", cursor.line);
      }
      if (static_cast<long long>(formula.n_clauses()) < declared_clauses) {
        // A footer before all declared clauses arrived marks a truncated
        // file, not a SATLIB ending (real SATLIB footers follow the full
        // clause list).  Surplus clauses stay tolerated, matching the
        // parser's leniency at EOF.
        throw DimacsError("'%' footer after only " +
                              std::to_string(formula.n_clauses()) + " of " +
                              std::to_string(declared_clauses) +
                              " declared clauses",
                          cursor.line);
      }
      apply_sampling_set();
      return formula;
    }
    const long long value = parse_int(token, cursor.line);
    if (value == 0) {
      formula.add_clause(current);
      current.clear();
      clause_open = false;
      continue;
    }
    // Compared against +-declared_vars without negating the literal, which
    // would overflow for LLONG_MIN.
    if (value > declared_vars || value < -declared_vars) {
      throw DimacsError("literal " + token + " exceeds declared variable count " +
                            std::to_string(declared_vars),
                        cursor.line);
    }
    current.push_back(Lit::from_dimacs(static_cast<int>(value)));
    clause_open = true;
  }
  if (clause_open) {
    throw DimacsError("last clause missing terminating 0", cursor.line);
  }
  apply_sampling_set();
  return formula;
}

Formula parse_dimacs_string(const std::string& text) {
  std::istringstream in(text);
  return parse_dimacs(in);
}

Formula parse_dimacs_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open DIMACS file: " + path);
  return parse_dimacs(in);
}

void write_dimacs(const Formula& formula, std::ostream& out,
                  const std::string& comment) {
  if (!comment.empty()) {
    std::istringstream lines(comment);
    std::string line;
    while (std::getline(lines, line)) out << "c " << line << '\n';
  }
  out << "p cnf " << formula.n_vars() << ' ' << formula.n_clauses() << '\n';
  if (formula.has_sampling_set()) {
    // QuickSampler-style declaration, chunked so lines stay readable; each
    // chunk is a complete "c ind ... 0" directive and parsing accumulates.
    constexpr std::size_t kPerLine = 10;
    const std::vector<Var>& set = formula.sampling_set();
    for (std::size_t begin = 0; begin < set.size(); begin += kPerLine) {
      out << "c ind";
      const std::size_t end = std::min(begin + kPerLine, set.size());
      for (std::size_t i = begin; i < end; ++i) out << ' ' << set[i] + 1;
      out << " 0\n";
    }
  }
  for (const Clause& clause : formula.clauses()) {
    for (const Lit lit : clause) out << lit.to_dimacs() << ' ';
    out << "0\n";
  }
}

std::string to_dimacs_string(const Formula& formula, const std::string& comment) {
  std::ostringstream out;
  write_dimacs(formula, out, comment);
  return out.str();
}

}  // namespace hts::cnf
