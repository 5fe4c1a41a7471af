#include "reference_text_index.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

namespace kgqan::reference {

std::vector<rdf::TermId> ReferenceMatchLiterals(
    const text::TextIndex& index, const text::ContainsQuery& query,
    size_t limit) {
  // score = number of distinct query words contained in the literal.
  std::vector<std::string> words;
  for (const auto& group : query.or_groups) {
    for (const auto& w : group) words.push_back(w);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());

  std::unordered_map<rdf::TermId, uint32_t> word_hits;
  for (const std::string& w : words) {
    if (const auto* ids = index.Postings(w)) {
      for (rdf::TermId id : *ids) ++word_hits[id];
    }
  }

  auto literal_has = [&](rdf::TermId id, const std::string& w) {
    const auto* ids = index.Postings(w);
    return ids != nullptr && std::binary_search(ids->begin(), ids->end(), id);
  };

  std::vector<std::pair<uint32_t, rdf::TermId>> ranked;
  for (const auto& [id, hits] : word_hits) {
    bool ok = false;
    for (const auto& group : query.or_groups) {
      ok = std::all_of(group.begin(), group.end(),
                       [&](const std::string& w) { return literal_has(id, w); });
      if (ok) break;
    }
    if (ok) ranked.emplace_back(hits, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;  // More hits first.
    return a.second < b.second;                        // Stable tiebreak.
  });
  if (ranked.size() > limit) ranked.resize(limit);
  std::vector<rdf::TermId> out;
  out.reserve(ranked.size());
  for (const auto& entry : ranked) out.push_back(entry.second);
  return out;
}

}  // namespace kgqan::reference
