#include "text/text_index.h"

#include <algorithm>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace kgqan::text {

using util::Status;
using util::StatusOr;

StatusOr<ContainsQuery> ParseContainsQuery(std::string_view expr) {
  // Tokenize on whitespace, honoring single quotes around words/phrases.
  std::vector<std::string> raw;
  std::string cur;
  bool in_quote = false;
  for (char c : expr) {
    if (c == '\'') {
      in_quote = !in_quote;
      continue;
    }
    if (!in_quote && (c == ' ' || c == '\t')) {
      if (!cur.empty()) {
        raw.push_back(cur);
        cur.clear();
      }
      continue;
    }
    cur.push_back(c);
  }
  if (in_quote) return Status::ParseError("unterminated quote in contains");
  if (!cur.empty()) raw.push_back(cur);
  if (raw.empty()) return Status::ParseError("empty contains expression");

  ContainsQuery out;
  out.or_groups.emplace_back();
  bool expect_word = true;
  for (const std::string& piece : raw) {
    std::string lower = util::ToLower(piece);
    if (lower == "or") {
      if (expect_word) return Status::ParseError("misplaced OR");
      out.or_groups.emplace_back();
      expect_word = true;
      continue;
    }
    if (lower == "and") {
      if (expect_word) return Status::ParseError("misplaced AND");
      expect_word = true;
      continue;
    }
    // A quoted phrase may contain several words; all are ANDed.
    for (std::string& tok : Tokenize(lower)) {
      out.or_groups.back().push_back(std::move(tok));
    }
    expect_word = false;
  }
  if (expect_word) return Status::ParseError("dangling operator in contains");
  for (auto& g : out.or_groups) {
    if (g.empty()) return Status::ParseError("empty AND group");
  }
  return out;
}

void TextIndex::IndexLiteral(const rdf::Term& term, rdf::TermId id) {
  if (!term.IsLiteral()) return;
  // Index plain/xsd:string and language-tagged literals only.
  if (!term.IsStringLiteral() && term.lang.empty()) return;
  std::vector<std::string> toks = Tokenize(term.value);
  std::sort(toks.begin(), toks.end());
  toks.erase(std::unique(toks.begin(), toks.end()), toks.end());
  for (std::string& tok : toks) {
    postings_[std::move(tok)].push_back(id);
    ++posting_count_;
  }
}

void TextIndex::SortPostings() {
  // Postings were appended in ascending literal id order already, but sort
  // defensively (cheap, once).
  for (auto& [tok, ids] : postings_) {
    (void)tok;
    std::sort(ids.begin(), ids.end());
  }
}

const std::vector<rdf::TermId>* TextIndex::Postings(
    const std::string& word) const {
  auto it = postings_.find(word);
  return it == postings_.end() ? nullptr : &it->second;
}

std::vector<rdf::TermId> TextIndex::MatchLiterals(const ContainsQuery& query,
                                                  size_t limit) const {
  if (limit == 0) return {};

  // One cursor per distinct query word that occurs in the index.  `has`
  // is the cursor's bit of the current literal's word mask; `alone` marks
  // a word that forms an OR-group by itself, so containing it suffices.
  struct Cursor {
    const rdf::TermId* at = nullptr;
    const rdf::TermId* end = nullptr;
    bool alone = false;
    bool has = false;
  };
  std::vector<std::string> words;
  for (const auto& group : query.or_groups) {
    for (const std::string& w : group) words.push_back(w);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  std::vector<std::string> present;
  std::vector<Cursor> cursors;
  for (std::string& w : words) {
    if (const auto* ids = Postings(w)) {
      present.push_back(std::move(w));
      cursors.push_back(Cursor{ids->data(), ids->data() + ids->size()});
    }
  }

  // OR-groups as cursor indices.  A group naming a word absent from the
  // index can never be satisfied and is dropped; its present words still
  // count towards the hits of the literals that contain them.
  std::vector<std::vector<size_t>> and_groups;
  for (const auto& group : query.or_groups) {
    std::vector<size_t> members;
    for (const std::string& w : group) {
      auto it = std::lower_bound(present.begin(), present.end(), w);
      if (it == present.end() || *it != w) {
        members.clear();
        break;
      }
      members.push_back(static_cast<size_t>(it - present.begin()));
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    if (members.size() == 1) {
      cursors[members[0]].alone = true;
    } else if (!members.empty()) {
      and_groups.push_back(std::move(members));
    }
  }

  // kept[h]: ascending ids with h hits among the best `limit` literals
  // merged so far.  Ids arrive in ascending order, so a new id ranks below
  // every kept id with as many hits: it enters only while there is room or
  // by evicting the last id of the lowest non-empty bucket, `floor`, which
  // never decreases once the buckets hold `limit` ids.
  const size_t max_hits = cursors.size();
  std::vector<std::vector<rdf::TermId>> kept(max_hits + 1);
  size_t num_kept = 0;
  size_t floor = 1;

  // The k-way merge: each iteration consumes one id from every cursor
  // positioned on it and finds the next smallest head.
  bool more = false;
  rdf::TermId id = 0;
  for (const Cursor& c : cursors) {
    if (c.at != c.end && (!more || *c.at < id)) {
      id = *c.at;
      more = true;
    }
  }
  while (more) {
    size_t hits = 0;
    bool satisfied = false;
    more = false;
    rdf::TermId next = 0;
    for (Cursor& c : cursors) {
      c.has = c.at != c.end && *c.at == id;
      if (c.has) {
        ++hits;
        satisfied = satisfied || c.alone;
        ++c.at;
      }
      if (c.at != c.end && (!more || *c.at < next)) {
        next = *c.at;
        more = true;
      }
    }
    for (size_t g = 0; !satisfied && g < and_groups.size(); ++g) {
      satisfied = std::all_of(and_groups[g].begin(), and_groups[g].end(),
                              [&](size_t i) { return cursors[i].has; });
    }
    if (satisfied) {
      if (num_kept < limit) {
        kept[hits].push_back(id);
        ++num_kept;
      } else if (hits > floor) {
        kept[floor].pop_back();
        kept[hits].push_back(id);
      }
      if (num_kept == limit) {
        while (kept[floor].empty()) ++floor;
        // Every kept id has the most hits possible: no later id can rank.
        if (floor == max_hits) break;
      }
    }
    id = next;
  }

  std::vector<rdf::TermId> out;
  out.reserve(num_kept);
  for (size_t h = max_hits; h >= 1; --h) {
    out.insert(out.end(), kept[h].begin(), kept[h].end());
  }
  return out;
}

size_t TextIndex::ApproxIndexBytes() const {
  size_t bytes = 0;
  for (const auto& [tok, ids] : postings_) {
    bytes += tok.size() + 32 + ids.capacity() * sizeof(rdf::TermId);
  }
  return bytes;
}

}  // namespace kgqan::text
