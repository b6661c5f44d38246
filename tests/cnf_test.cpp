// Tests for the CNF core: literal encoding, formula evaluation, op counting,
// and the DIMACS parser/writer (round trips, tolerance, error reporting).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "cnf/dimacs.hpp"
#include "cnf/formula.hpp"
#include "util/rng.hpp"

namespace hts::cnf {
namespace {

TEST(Lit, EncodingRoundTrip) {
  const Lit positive(5, false);
  EXPECT_EQ(positive.var(), 5u);
  EXPECT_FALSE(positive.negated());
  EXPECT_EQ(positive.code(), 10u);
  const Lit negative = ~positive;
  EXPECT_EQ(negative.var(), 5u);
  EXPECT_TRUE(negative.negated());
  EXPECT_EQ(negative.code(), 11u);
  EXPECT_EQ(~negative, positive);
}

TEST(Lit, DimacsConversion) {
  EXPECT_EQ(Lit::from_dimacs(3).var(), 2u);
  EXPECT_FALSE(Lit::from_dimacs(3).negated());
  EXPECT_TRUE(Lit::from_dimacs(-1).negated());
  EXPECT_EQ(Lit::from_dimacs(-1).var(), 0u);
  EXPECT_EQ(Lit::from_dimacs(-7).to_dimacs(), -7);
  EXPECT_EQ(Lit::from_dimacs(7).to_dimacs(), 7);
}

TEST(Lit, ValueUnder) {
  const Lit pos(0, false);
  const Lit neg(0, true);
  EXPECT_TRUE(pos.value_under(true));
  EXPECT_FALSE(pos.value_under(false));
  EXPECT_FALSE(neg.value_under(true));
  EXPECT_TRUE(neg.value_under(false));
}

Formula tiny_formula() {
  // (x1 | ~x2) & (x2 | x3) & (~x1 | ~x3)
  Formula f(3);
  f.add_clause({Lit(0, false), Lit(1, true)});
  f.add_clause({Lit(1, false), Lit(2, false)});
  f.add_clause({Lit(0, true), Lit(2, true)});
  return f;
}

TEST(Formula, SatisfiedBy) {
  const Formula f = tiny_formula();
  EXPECT_TRUE(f.satisfied_by({1, 1, 0}));
  EXPECT_FALSE(f.satisfied_by({0, 1, 0}));   // violates clause 1
  EXPECT_FALSE(f.satisfied_by({1, 0, 1}));   // violates clause 3
}

TEST(Formula, LiteralAndOpCounts) {
  const Formula f = tiny_formula();
  EXPECT_EQ(f.n_literals(), 6u);
  // Each 2-literal clause: 1 OR; conjunction: 2 ANDs; 3 negated literals.
  EXPECT_EQ(f.op_count_2input(), 3u + 2u + 3u);
}

TEST(Formula, NewVarGrows) {
  Formula f(1);
  EXPECT_EQ(f.new_var(), 1u);
  EXPECT_EQ(f.n_vars(), 2u);
}

TEST(Dimacs, ParsesBasic) {
  const Formula f = parse_dimacs_string("p cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(f.n_vars(), 3u);
  ASSERT_EQ(f.n_clauses(), 2u);
  EXPECT_EQ(f.clause(0)[0].to_dimacs(), 1);
  EXPECT_EQ(f.clause(0)[1].to_dimacs(), -2);
}

TEST(Dimacs, SkipsCommentsAndBlankLines) {
  const Formula f = parse_dimacs_string(
      "c a comment\nc another\n\np cnf 2 1\nc inline comment line\n1 2 0\n");
  EXPECT_EQ(f.n_vars(), 2u);
  EXPECT_EQ(f.n_clauses(), 1u);
}

TEST(Dimacs, HandlesClausesAcrossLines) {
  const Formula f = parse_dimacs_string("p cnf 3 1\n1\n-2\n3 0\n");
  ASSERT_EQ(f.n_clauses(), 1u);
  EXPECT_EQ(f.clause(0).size(), 3u);
}

TEST(Dimacs, ToleratesClauseCountMismatch) {
  const Formula f = parse_dimacs_string("p cnf 2 5\n1 0\n2 0\n");
  EXPECT_EQ(f.n_clauses(), 2u);
}

TEST(Dimacs, ErrorOnMissingHeader) {
  EXPECT_THROW((void)parse_dimacs_string("1 2 0\n"), DimacsError);
}

TEST(Dimacs, ErrorOnLiteralBeyondHeader) {
  EXPECT_THROW((void)parse_dimacs_string("p cnf 2 1\n3 0\n"), DimacsError);
  // The range check must not negate the literal: -LLONG_MIN overflows.
  EXPECT_THROW(
      (void)parse_dimacs_string("p cnf 3 1\n-9223372036854775808 0\n"),
      DimacsError);
}

TEST(Dimacs, ErrorOnVariableCountPastTheLiteralRange) {
  // Lit packs 2 * var + sign into 32 bits: a header past INT32_MAX
  // variables must be rejected, not narrowed onto other variables.
  EXPECT_THROW((void)parse_dimacs_string("p cnf 5000000000 1\n1 0\n"),
               DimacsError);
  EXPECT_THROW((void)parse_dimacs_string("p cnf 3000000000 1\n3000000000 0\n"),
               DimacsError);
  EXPECT_THROW((void)parse_dimacs_string("p cnf 5000000000 1\n1000000000 0\n"),
               DimacsError);
}

TEST(Dimacs, ErrorOnUnterminatedClause) {
  EXPECT_THROW((void)parse_dimacs_string("p cnf 2 1\n1 2\n"), DimacsError);
}

TEST(Dimacs, ErrorOnJunkToken) {
  EXPECT_THROW((void)parse_dimacs_string("p cnf 2 1\n1 x 0\n"), DimacsError);
}

TEST(Dimacs, ErrorReportsLineNumber) {
  try {
    (void)parse_dimacs_string("p cnf 2 2\n1 0\nbogus 0\n");
    FAIL() << "expected DimacsError";
  } catch (const DimacsError& e) {
    EXPECT_GE(e.line(), 3u);
  }
}

TEST(Dimacs, ParsesCrlfLineEndings) {
  const Formula f = parse_dimacs_string(
      "c dos file\r\np cnf 3 2\r\n1 -2 0\r\n2 3 0\r\n");
  EXPECT_EQ(f.n_vars(), 3u);
  ASSERT_EQ(f.n_clauses(), 2u);
  EXPECT_EQ(f.clause(0)[0].to_dimacs(), 1);
  EXPECT_EQ(f.clause(1)[1].to_dimacs(), 3);
}

TEST(Dimacs, CrlfCommentAfterClauseLine) {
  // The 'c' of a comment must still be recognized at line start when the
  // previous line ended in \r\n.
  const Formula f = parse_dimacs_string(
      "p cnf 2 1\r\nc comment between\r\n1 2 0\r\n");
  EXPECT_EQ(f.n_clauses(), 1u);
}

TEST(Dimacs, BlankAndWhitespaceOnlyLines) {
  const Formula f = parse_dimacs_string(
      "p cnf 2 2\n\n   \n\t\n1 0\n\n2 0\n\n\n");
  EXPECT_EQ(f.n_clauses(), 2u);
}

TEST(Dimacs, SatlibPercentZeroFooter) {
  // SATLIB uf/uuf instances end with "%\n0\n" (sometimes plus blank lines);
  // the footer must not become a clause or a parse error.
  const Formula f = parse_dimacs_string("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n");
  EXPECT_EQ(f.n_vars(), 3u);
  EXPECT_EQ(f.n_clauses(), 2u);
}

TEST(Dimacs, SatlibFooterWithCrlf) {
  const Formula f = parse_dimacs_string("p cnf 2 1\r\n1 2 0\r\n%\r\n0\r\n");
  EXPECT_EQ(f.n_clauses(), 1u);
}

TEST(Dimacs, PercentFooterAloneOk) {
  const Formula f = parse_dimacs_string("p cnf 2 1\n1 2 0\n%\n");
  EXPECT_EQ(f.n_clauses(), 1u);
}

TEST(Dimacs, ErrorOnUnterminatedClauseBeforeFooter) {
  EXPECT_THROW((void)parse_dimacs_string("p cnf 2 1\n1 2\n%\n0\n"), DimacsError);
}

TEST(Dimacs, ErrorOnFooterBeforeDeclaredClauses) {
  // A '%' line before all declared clauses arrived is truncation, not a
  // SATLIB footer.
  EXPECT_THROW((void)parse_dimacs_string("p cnf 4 2\n1 0\n%\n2 0\n"),
               DimacsError);
}

TEST(Dimacs, ErrorOnMidLinePercent) {
  // Only a '%' starting a line is a footer; one inside a clause line is
  // corruption and must not silently truncate the formula.
  EXPECT_THROW((void)parse_dimacs_string("p cnf 4 2\n1 2 0 % oops\n3 4 0\n"),
               DimacsError);
}

TEST(Dimacs, EmptyClauseListOk) {
  const Formula f = parse_dimacs_string("p cnf 4 0\n");
  EXPECT_EQ(f.n_vars(), 4u);
  EXPECT_EQ(f.n_clauses(), 0u);
}

// --- 'c ind' sampling-set declarations (QuickSampler/UniGen convention) -----

TEST(Dimacs, ParsesIndSamplingSet) {
  const Formula f = parse_dimacs_string(
      "c ind 1 3 5 0\np cnf 6 1\n1 2 3 4 5 6 0\n");
  ASSERT_TRUE(f.has_sampling_set());
  const std::vector<Var> expect = {0, 2, 4};  // 0-based
  EXPECT_EQ(f.sampling_set(), expect);
}

TEST(Dimacs, IndAccumulatesAcrossLinesAndPositions) {
  // Multiple 'c ind' lines (before the header, between clauses) accumulate;
  // duplicates collapse; the set comes out sorted.
  const Formula f = parse_dimacs_string(
      "c ind 4 2 0\np cnf 5 2\n1 2 0\nc ind 2 5 0\n3 4 0\n");
  ASSERT_TRUE(f.has_sampling_set());
  const std::vector<Var> expect = {1, 3, 4};
  EXPECT_EQ(f.sampling_set(), expect);
}

TEST(Dimacs, IndTrailingZeroOptional) {
  const Formula f = parse_dimacs_string("c ind 1 2\np cnf 3 1\n1 2 3 0\n");
  const std::vector<Var> expect = {0, 1};
  EXPECT_EQ(f.sampling_set(), expect);
}

TEST(Dimacs, IndSurvivesSatlibFooter) {
  const Formula f =
      parse_dimacs_string("c ind 2 0\np cnf 3 1\n1 2 3 0\n%\n0\n");
  ASSERT_TRUE(f.has_sampling_set());
  EXPECT_EQ(f.sampling_set(), std::vector<Var>{1});
}

TEST(Dimacs, ProseCommentStartingWithIndLikeWordIsNotADirective) {
  // Only a first token exactly "ind" declares a set; prose passes through.
  const Formula f = parse_dimacs_string(
      "c independent study notes\nc indeed\nc in d 1 2\np cnf 2 1\n1 2 0\n");
  EXPECT_FALSE(f.has_sampling_set());
}

TEST(Dimacs, ErrorOnMalformedIndEntry) {
  EXPECT_THROW((void)parse_dimacs_string("c ind 1 x 0\np cnf 2 1\n1 2 0\n"),
               DimacsError);
  EXPECT_THROW((void)parse_dimacs_string("c ind -3 0\np cnf 3 1\n1 2 3 0\n"),
               DimacsError);
}

TEST(Dimacs, ErrorOnIndVariableBeyondHeader) {
  EXPECT_THROW((void)parse_dimacs_string("c ind 7 0\np cnf 3 1\n1 2 3 0\n"),
               DimacsError);
}

TEST(Dimacs, IndWriteParseRoundTrip) {
  Formula original(30);
  original.add_clause({Lit(0, false), Lit(29, true)});
  std::vector<Var> set;
  for (Var v = 0; v < 30; v += 2) set.push_back(v);  // 15 vars: spans 2 lines
  original.set_sampling_set(set);
  const Formula parsed = parse_dimacs_string(to_dimacs_string(original));
  ASSERT_TRUE(parsed.has_sampling_set());
  EXPECT_EQ(parsed.sampling_set(), original.sampling_set());
}

TEST(Formula, SamplingSetValidatesSortsAndDedups) {
  Formula f(5);
  f.set_sampling_set({4, 1, 4, 2});
  const std::vector<Var> expect = {1, 2, 4};
  EXPECT_EQ(f.sampling_set(), expect);
  EXPECT_THROW(f.set_sampling_set({5}), std::invalid_argument);
  f.set_sampling_set({});
  EXPECT_FALSE(f.has_sampling_set());
}

TEST(Dimacs, WriteParseRoundTrip) {
  util::Rng rng(99);
  Formula original(12);
  for (int c = 0; c < 30; ++c) {
    Clause clause;
    const std::size_t width = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < width; ++i) {
      clause.push_back(Lit(static_cast<Var>(rng.next_below(12)), rng.next_bool()));
    }
    original.add_clause(clause);
  }
  const Formula parsed = parse_dimacs_string(to_dimacs_string(original, "roundtrip"));
  ASSERT_EQ(parsed.n_vars(), original.n_vars());
  ASSERT_EQ(parsed.n_clauses(), original.n_clauses());
  for (std::size_t c = 0; c < original.n_clauses(); ++c) {
    EXPECT_EQ(parsed.clause(c), original.clause(c)) << "clause " << c;
  }
}

TEST(Dimacs, CommentBlockWritten) {
  Formula f(1);
  f.add_clause({Lit(0, false)});
  const std::string text = to_dimacs_string(f, "line one\nline two");
  EXPECT_NE(text.find("c line one"), std::string::npos);
  EXPECT_NE(text.find("c line two"), std::string::npos);
}

TEST(Dimacs, FileNotFoundThrows) {
  EXPECT_THROW((void)parse_dimacs_file("/nonexistent/path.cnf"), std::runtime_error);
}

}  // namespace
}  // namespace hts::cnf
