// Test-only reference for TextIndex::MatchLiterals: the hash-map
// algorithm the production merge replaced, kept as the oracle for
// text_index_property_test and for the reference SPARQL evaluator's
// bif:contains probes.
//
// It is deliberately plain: count every posting of every distinct query
// word in a hash map, test each OR-group by binary search in the posting
// lists, sort every match by (hits descending, id ascending) and truncate.
// It shares only TextIndex::Postings with production.

#ifndef KGQAN_TESTS_REFERENCE_TEXT_INDEX_H_
#define KGQAN_TESTS_REFERENCE_TEXT_INDEX_H_

#include <cstddef>
#include <vector>

#include "rdf/term_dictionary.h"
#include "text/text_index.h"

namespace kgqan::reference {

// The literals of `index` satisfying `query`, ranked and truncated to
// `limit` exactly as TextIndex::MatchLiterals documents.
std::vector<rdf::TermId> ReferenceMatchLiterals(
    const text::TextIndex& index, const text::ContainsQuery& query,
    size_t limit);

}  // namespace kgqan::reference

#endif  // KGQAN_TESTS_REFERENCE_TEXT_INDEX_H_
