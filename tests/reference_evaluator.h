// Test-only reference SPARQL evaluator: the differential oracle for the
// production evaluator (sparql/evaluator.h).
//
// It is deliberately plain: solutions are maps from variable name to
// term, groups are evaluated by nested loops over TripleStore::Match in
// query order, and there is no planner, no batching and no row cap.  It
// shares only the AST, the store, its dictionary and the TextIndex's
// posting lists with production (bif:contains goes through the test-only
// ReferenceMatchLiterals, reference_text_index.h), so a bug in the
// production planner, kernels, projection or text merge cannot hide in
// the oracle too.
//
// Semantics follow production's group evaluation order: text patterns and
// VALUES seed bindings, triple patterns join, then UNION branches (each
// joined against the incoming solutions) are concatenated, OPTIONAL groups
// are left-joined per solution, and FILTERs run last.  The result is the
// projected solution multiset, with DISTINCT applied.  ORDER BY, LIMIT and
// OFFSET are ignored: they only order or pick rows, and a caller checks
// them against the full multiset.

#ifndef KGQAN_TESTS_REFERENCE_EVALUATOR_H_
#define KGQAN_TESTS_REFERENCE_EVALUATOR_H_

#include <cstddef>

#include "sparql/ast.h"
#include "sparql/result_set.h"
#include "store/triple_store.h"
#include "text/text_index.h"
#include "util/status.h"

namespace kgqan::reference {

// Evaluates `query` over `store`.  `text_candidate_limit` is the top-k of
// each `bif:contains` probe (part of what a text probe means, not an
// evaluation cap).  Returns OutOfRange once more than `row_budget`
// solutions exist at any point — the oracle never truncates — and
// Unimplemented for operators it does not cover: FILTERs other than
// BOUND, isIRI, isLITERAL, &&, || and !, and aggregates other than COUNT.
util::StatusOr<sparql::ResultSet> ReferenceEvaluate(
    const sparql::Query& query, const store::TripleStore& store,
    const text::TextIndex& text_index, size_t text_candidate_limit,
    size_t row_budget);

}  // namespace kgqan::reference

#endif  // KGQAN_TESTS_REFERENCE_EVALUATOR_H_
