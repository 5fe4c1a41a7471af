// Differential battery for the SPARQL evaluator.  Random queries over
// random benchgen KGs — triple patterns, bif:contains, VALUES, UNION,
// OPTIONAL, isIRI FILTERs, COUNT, DISTINCT, ORDER BY, LIMIT/OFFSET and
// SELECT * — must
//  * return byte-identical ResultSets (same rows, same order, same
//    columns) at every batch width and on both store backends (v1 and
//    compact), at every row cap, including when the cap truncates
//    mid-step and when results round-trip through the cross-question
//    answer cache; and
//  * agree with the test-only nested-loop ReferenceEvaluate
//    (tests/reference_evaluator.h), which shares no evaluation code with
//    production:
//      - uncapped, without LIMIT/OFFSET: the same row multiset;
//      - uncapped, with LIMIT/OFFSET: a sub-multiset of exactly the size
//        LIMIT/OFFSET leave of the full result;
//      - capped: a sub-multiset (an OPTIONAL group cut short drops its
//        row rather than keeping it unextended);
//      - ASK and COUNT: equal when uncapped;
//      - ORDER BY: the sort keys never decrease;
//  * return, under LIMIT/OFFSET without ORDER BY, exactly the rows
//    [offset, offset + limit) of the same query without them — the
//    invariant the evaluator's LIMIT row budget relies on.
//
// The binary has its own main: `--seed=N` (or the KGQAN_PROPERTY_SEED
// environment variable) reseeds the generator, so CI can rotate seeds and
// a failure is reproducible locally with the printed flag.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "benchgen/kg.h"
#include "core/answer_cache.h"
#include "rdf/ntriples.h"
#include "reference_evaluator.h"
#include "sparql/ast.h"
#include "sparql/canonical.h"
#include "sparql/endpoint.h"
#include "sparql/evaluator.h"
#include "util/rng.h"

namespace kgqan::sparql {

// Set from --seed / KGQAN_PROPERTY_SEED in main() before RUN_ALL_TESTS.
uint64_t g_property_seed = 0xD1FFu;

namespace {

// Random query generator grounded in a built benchgen KG.  Most groups are
// walks along the KG's schema — a chain `?a <p> ?b . ?b <q> ?c` where p's
// objects have q's subject type, or a star on a shared subject — optionally
// anchored at a real entity, so joins produce rows, the planner has real
// cardinality spreads to reorder on and every join kernel runs.  The rest
// are unconstrained shapes (full wildcards, variable predicates, random
// ground terms) that are mostly empty or very wide.  OPTIONAL and UNION
// groups continue the walk from a variable of the enclosing group.
class KgQueryGen {
 public:
  KgQueryGen(const benchgen::BuiltKg& kg, uint64_t seed)
      : rng_(seed), facts_by_subject_(kg.facts_by_subject) {
    for (const auto& [key, iri] : kg.predicates) predicates_.push_back(iri);
    std::sort(predicates_.begin(), predicates_.end());
    std::vector<std::string> keys;
    for (const auto& [key, facts] : kg.facts) {
      if (!facts.empty()) keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      const std::vector<benchgen::Fact>& facts = kg.facts.at(key);
      relations_.push_back(&facts);
      relations_by_type_[facts.front().subject.type_key].push_back(&facts);
      for (const benchgen::Fact& fact : facts) {
        if (entities_.size() < 400) entities_.push_back(fact.subject.iri);
        std::vector<std::string>& subjects =
            entities_by_type_[fact.subject.type_key];
        if (subjects.size() < 200) subjects.push_back(fact.subject.iri);
        if (fact.object.IsIri() && !fact.object_type_key.empty()) {
          std::vector<std::string>& objects =
              entities_by_type_[fact.object_type_key];
          if (objects.size() < 200) objects.push_back(fact.object.value);
        }
        if (!fact.subject.label.empty() && words_.size() < 400) {
          std::string word =
              fact.subject.label.substr(0, fact.subject.label.find(' '));
          if (!word.empty()) words_.push_back(std::move(word));
        }
      }
    }
    for (std::vector<std::string>* v : {&entities_, &words_}) {
      std::sort(v->begin(), v->end());
      v->erase(std::unique(v->begin(), v->end()), v->end());
    }
  }

  Query RandQuery() {
    Query q;
    q.where = RandGroup(1, std::nullopt);
    if (rng_.UniformInt(0, 9) == 0) {
      q.form = Query::Form::kAsk;
      return q;
    }
    q.form = Query::Form::kSelect;
    q.distinct = rng_.UniformInt(0, 2) == 0;
    if (rng_.UniformInt(0, 9) == 0) {
      Aggregate agg;
      agg.op = Aggregate::Op::kCount;
      agg.distinct = rng_.UniformInt(0, 1) == 1;
      agg.var = RandVar();
      agg.alias = Var{"n"};
      q.aggregates.push_back(agg);
    } else if (rng_.UniformInt(0, 4) == 0) {
      q.select_all = true;
    } else {
      int n_vars = static_cast<int>(rng_.UniformInt(1, 3));
      for (int i = 0; i < n_vars; ++i) q.select_vars.push_back(RandVar());
    }
    if (q.aggregates.empty()) {
      int n_keys = static_cast<int>(rng_.UniformInt(0, 2));
      for (int i = 0; i < n_keys; ++i) {
        q.order_by.push_back(OrderKey{RandVar(), rng_.UniformInt(0, 1) == 1});
      }
      q.limit = static_cast<size_t>(rng_.UniformInt(0, 20));
      q.offset = static_cast<size_t>(rng_.UniformInt(0, 2));
    }
    return q;
  }

  // The JIT linker's text probe, `SELECT ?v ?p ?d WHERE { ?v ?p ?d .
  // ?d bif:contains "w1 OR w2 ..." } LIMIT n`, sometimes with a bound
  // predicate, OFFSET, SELECT *, a narrower projection or a VALUES
  // overlay on ?v: the single-pattern text-seeded groups the evaluator's
  // LIMIT row budget caps.  DISTINCT, a FILTER that drops some rows and
  // a second pattern that joins only some make near misses it must leave
  // alone.
  Query TextProbeQuery() {
    Query q;
    q.form = Query::Form::kSelect;
    TextPattern tp{Var{"d"}, ""};
    const int n_words = static_cast<int>(rng_.UniformInt(1, 6));
    for (int i = 0; i < n_words; ++i) {
      if (i > 0) tp.expr += " OR ";
      tp.expr += words_.empty() ? std::string("x") : Pick(words_);
    }
    q.where.text_patterns.push_back(std::move(tp));
    TermOrVar predicate{Var{"p"}};
    if (rng_.UniformInt(0, 3) == 0) predicate = TermOrVar{RandPredicate()};
    q.where.triples.push_back(
        TriplePattern{TermOrVar{Var{"v"}}, predicate, TermOrVar{Var{"d"}}});
    if (rng_.UniformInt(0, 4) == 0) {
      InlineValues iv;
      iv.var = Var{"v"};
      for (int i = 0; i < 3; ++i) iv.values.push_back(RandEntity());
      q.where.values.push_back(std::move(iv));
    }
    if (rng_.UniformInt(0, 5) == 0) {
      q.where.triples.push_back(TriplePattern{
          TermOrVar{Var{"v"}}, TermOrVar{RandPredicate()}, TermOrVar{Var{"o"}}});
    }
    if (rng_.UniformInt(0, 5) == 0) {
      // FILTER regex(?d, "<vowel>"): keeps the literals containing it.
      Expr e;
      e.op = ExprOp::kRegex;
      Expr subject;
      subject.op = ExprOp::kVar;
      subject.var = Var{"d"};
      Expr pattern;
      pattern.constant = rdf::StringLiteral(
          std::string(1, "aeiou"[rng_.UniformInt(0, 4)]));
      e.lhs = std::make_unique<Expr>(std::move(subject));
      e.rhs = std::make_unique<Expr>(std::move(pattern));
      q.where.filters.push_back(std::move(e));
    }
    switch (rng_.UniformInt(0, 5)) {
      case 0:
        q.select_all = true;
        break;
      case 1:  // Narrow projections repeat rows, so DISTINCT merges some.
        q.select_vars = {Var{"v"}};
        break;
      case 2:
        q.select_vars = {Var{"p"}};
        break;
      default:
        q.select_vars = {Var{"v"}, Var{"p"}, Var{"d"}};
    }
    q.distinct = rng_.UniformInt(0, 3) == 0;
    // Mostly below the probe's row count, so the budget cuts.
    q.limit = static_cast<size_t>(
        rng_.UniformInt(1, rng_.UniformInt(0, 2) == 0 ? 40 : 4));
    if (rng_.UniformInt(0, 2) == 0) {
      q.offset = static_cast<size_t>(rng_.UniformInt(1, 10));
    }
    return q;
  }

 private:
  // A walk position: a variable and the entity type it ranges over.
  struct Anchor {
    Var var;
    std::string type;
  };

  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[rng_.UniformInt(0, static_cast<int64_t>(v.size()) - 1)];
  }
  Var RandVar() {
    static const char* const kVars[] = {"a", "b", "c", "d", "e"};
    return Var{kVars[rng_.UniformInt(0, 4)]};
  }
  rdf::Term RandEntity() { return rdf::Iri(Pick(entities_)); }
  rdf::Term RandPredicate() { return rdf::Iri(Pick(predicates_)); }

  // The facts of a relation whose subjects have `type` (any relation
  // when none has it).
  const std::vector<benchgen::Fact>& RelationFrom(const std::string& type) {
    auto it = relations_by_type_.find(type);
    if (it == relations_by_type_.end()) return *Pick(relations_);
    return *Pick(it->second);
  }

  // An entity of `type` (any entity when none is known).
  rdf::Term EntityOf(const std::string& type) {
    auto it = entities_by_type_.find(type);
    if (it == entities_by_type_.end()) return RandEntity();
    return rdf::Iri(Pick(it->second));
  }

  TriplePattern RandPattern() {
    // Wildcard and predicate-only patterns exercise the broadcast kernel;
    // ground-term patterns seed selective entry points.
    switch (rng_.UniformInt(0, 4)) {
      case 0:  // Full wildcard: the widest possible scan.
        return TriplePattern{TermOrVar{RandVar()}, TermOrVar{RandVar()},
                             TermOrVar{RandVar()}};
      case 1:  // Ground subject.
        return TriplePattern{TermOrVar{RandEntity()},
                             TermOrVar{RandPredicate()}, TermOrVar{RandVar()}};
      case 2:  // Ground object.
        return TriplePattern{TermOrVar{RandVar()}, TermOrVar{RandPredicate()},
                             TermOrVar{RandEntity()}};
      case 3:  // Variable predicate between variables and an entity.
        return TriplePattern{TermOrVar{RandVar()}, TermOrVar{RandVar()},
                             TermOrVar{RandEntity()}};
      default:  // Predicate scan: ?x <p> ?y — the common join edge.
        return TriplePattern{TermOrVar{RandVar()}, TermOrVar{RandPredicate()},
                             TermOrVar{RandVar()}};
    }
  }

  // Appends a walk of `n` patterns to `g`, starting at `at` (a new
  // variable, sometimes a real entity, when unset), and returns the walk's
  // variables.  Each step either chains through an entity-valued object or
  // fans out as a star on the current node.
  std::vector<Anchor> Walk(int n, const std::optional<Anchor>& at,
                           GroupGraphPattern* g) {
    std::vector<std::string> used;
    auto fresh = [&] {
      // An unused variable when one comes up, so the walk stays acyclic.
      for (int tries = 0; tries < 8; ++tries) {
        Var v = RandVar();
        if (std::find(used.begin(), used.end(), v.name) == used.end()) {
          used.push_back(v.name);
          return v;
        }
      }
      return RandVar();
    };
    std::vector<Anchor> vars;
    TermOrVar node{at.has_value() ? at->var : fresh()};
    if (at.has_value()) used.push_back(at->var.name);
    std::string type = at.has_value() ? at->type : "";
    for (int i = 0; i < n; ++i) {
      // A variable node steps along a relation of its type; a ground node
      // along one of its own facts.
      const benchgen::Fact* fact;
      if (IsVar(node)) {
        fact = &Pick(RelationFrom(type));
        if (i == 0 && !at.has_value() && rng_.UniformInt(0, 3) == 0) {
          node = TermOrVar{rdf::Iri(fact->subject.iri)};
        }
      } else {
        fact = &Pick(facts_by_subject_.at(AsTerm(node).value));
      }
      if (IsVar(node)) {
        vars.push_back(Anchor{AsVar(node), fact->subject.type_key});
      }
      TermOrVar object{fresh()};
      if (rng_.UniformInt(0, 7) == 0) object = TermOrVar{fact->object};
      g->triples.push_back(TriplePattern{
          node, TermOrVar{rdf::Iri(fact->predicate_iri)}, object});
      if (IsVar(object)) {
        vars.push_back(Anchor{AsVar(object), fact->object_type_key});
      }
      if (IsVar(object) && !fact->object_type_key.empty() &&
          rng_.UniformInt(0, 1) == 0) {
        node = object;
        type = fact->object_type_key;
      } else {
        type = fact->subject.type_key;
      }
    }
    return vars;
  }

  GroupGraphPattern RandGroup(int depth, std::optional<Anchor> at) {
    GroupGraphPattern g;
    const int n_triples = static_cast<int>(rng_.UniformInt(1, 3));
    std::vector<Anchor> anchors;
    if (rng_.UniformInt(0, 9) < 7) {
      anchors = Walk(n_triples, at, &g);
    } else {
      for (int i = 0; i < n_triples; ++i) g.triples.push_back(RandPattern());
    }
    if (anchors.empty()) anchors.push_back(Anchor{RandVar(), ""});
    if (!words_.empty() && rng_.UniformInt(0, 9) == 0) {
      g.text_patterns.push_back(TextPattern{RandVar(), Pick(words_)});
    }
    if (rng_.UniformInt(0, 9) < 2) {
      // VALUES on a walk variable: entities of its type (many join),
      // mixed with random entities (most do not).
      const Anchor& a = Pick(anchors);
      InlineValues iv;
      iv.var = a.var;
      int n_values = static_cast<int>(rng_.UniformInt(1, 4));
      for (int i = 0; i < n_values; ++i) {
        iv.values.push_back(rng_.UniformInt(0, 3) > 0 ? EntityOf(a.type)
                                                       : RandEntity());
      }
      g.values.push_back(std::move(iv));
    }
    if (rng_.UniformInt(0, 9) < 2) {
      Expr e;
      e.op = ExprOp::kIsIri;
      Expr leaf;
      leaf.op = ExprOp::kVar;
      leaf.var = rng_.UniformInt(0, 3) > 0 ? Pick(anchors).var : RandVar();
      e.lhs = std::make_unique<Expr>(std::move(leaf));
      g.filters.push_back(std::move(e));
    }
    if (depth > 0) {
      if (rng_.UniformInt(0, 9) < 3) {
        std::vector<GroupGraphPattern> branches;
        int n_branches = static_cast<int>(rng_.UniformInt(1, 2));
        for (int i = 0; i < n_branches; ++i) {
          branches.push_back(RandGroup(depth - 1, Pick(anchors)));
        }
        g.unions.push_back(std::move(branches));
      }
      if (rng_.UniformInt(0, 9) < 3) {
        g.optionals.push_back(RandGroup(depth - 1, Pick(anchors)));
      }
    }
    return g;
  }

  util::Rng rng_;
  const std::unordered_map<std::string, std::vector<benchgen::Fact>>&
      facts_by_subject_;
  std::vector<std::string> predicates_;
  std::vector<const std::vector<benchgen::Fact>*> relations_;
  std::map<std::string, std::vector<const std::vector<benchgen::Fact>*>>
      relations_by_type_;
  std::map<std::string, std::vector<std::string>> entities_by_type_;
  std::vector<std::string> entities_;
  std::vector<std::string> words_;
};

std::string DumpResults(const ResultSet& rs) {
  if (rs.is_ask()) return rs.ask_value() ? "ASK true" : "ASK false";
  std::string out;
  for (const std::string& c : rs.columns()) out += "?" + c + " ";
  out += "\n";
  for (const auto& row : rs.rows()) {
    for (const auto& cell : row) {
      out += cell.has_value() ? rdf::ToNTriples(*cell) : std::string("_");
      out += " ";
    }
    out += "\n";
  }
  return out;
}

::testing::AssertionResult SameResults(const ResultSet& a,
                                       const ResultSet& b) {
  if (a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
      a.columns() == b.columns() && a.rows() == b.rows()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << "default lane:\n" << DumpResults(a)
                                       << "other lane:\n" << DumpResults(b);
}

// Evaluation lanes: every batch width, on both store backends.  Width 1
// puts a batch boundary after every unit of work, 7 lands mid-join.
constexpr size_t kBatchSizes[] = {1, 7, 1024};

// Row caps of the capped runs; the uncapped run sets no cap at all.
constexpr size_t kSmallCaps[] = {7, 50};
constexpr size_t kUncapped = std::numeric_limits<size_t>::max();

// The oracle gives up (OutOfRange) past this many live solutions; such a
// query is then checked only against production itself.
constexpr size_t kReferenceBudget = 50000;

benchgen::BuiltKg BuildKgForRound(int round, uint64_t seed) {
  // Alternate the benchmark KG families (general / scholarly) so both
  // data shapes cross every lane.
  switch (round % 3) {
    case 0:
      return benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.05,
                                      seed);
    case 1:
      return benchgen::BuildScholarlyKg(benchgen::KgFlavor::kDblp, 0.05,
                                        seed);
    default:
      return benchgen::BuildGeneralKg(benchgen::KgFlavor::kYago, 0.05, seed);
  }
}

// Evaluates `query` with row cap `max_rows` in every lane, expects every
// lane to equal the default lane (batch 1024 on v1) byte for byte, and
// stores that result in `out`.
void EvalAllLanes(const Query& query, const LocalEndpoint& v1,
                  const CompactEndpoint& compact, size_t max_rows,
                  std::optional<ResultSet>* out) {
  EvalOptions base;
  base.max_rows = max_rows;
  auto first = Evaluate(query, v1.store(), v1.text_index(), base);
  ASSERT_TRUE(first.ok()) << first.status();
  for (size_t batch : kBatchSizes) {
    EvalOptions opts = base;
    opts.batch_size = batch;
    auto got_v1 = Evaluate(query, v1.store(), v1.text_index(), opts);
    ASSERT_TRUE(got_v1.ok()) << "v1 batch " << batch << ": "
                             << got_v1.status();
    EXPECT_TRUE(SameResults(*first, *got_v1)) << "v1 batch " << batch;
    auto got_compact =
        Evaluate(query, compact.store(), compact.text_index(), opts);
    ASSERT_TRUE(got_compact.ok())
        << "compact batch " << batch << ": " << got_compact.status();
    EXPECT_TRUE(SameResults(*first, *got_compact))
        << "compact batch " << batch;
  }
  out->emplace(std::move(*first));
}

// Rows rendered one string each, sorted: a multiset.
std::vector<std::string> RowMultiset(const ResultSet& rs) {
  std::vector<std::string> rows;
  for (const auto& row : rs.rows()) {
    std::string line;
    for (const auto& cell : row) {
      line += cell.has_value() ? rdf::ToNTriples(*cell) : std::string("_");
      line += '\t';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

::testing::AssertionResult MatchesReference(const Query& query,
                                            const ResultSet& got,
                                            const ResultSet& ref,
                                            bool capped) {
  auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << (capped ? " (capped)" : " (uncapped)")
           << "\nreference:\n" << DumpResults(ref) << "production:\n"
           << DumpResults(got);
  };
  if (query.form == Query::Form::kAsk) {
    if (!capped && got.ask_value() != ref.ask_value()) return fail("ASK");
    if (capped && got.ask_value() && !ref.ask_value()) return fail("ASK");
    return ::testing::AssertionSuccess();
  }
  if (got.columns() != ref.columns()) return fail("columns");
  if (!query.aggregates.empty()) {
    if (!capped && got.rows() != ref.rows()) return fail("COUNT");
    if (capped) {
      for (size_t c = 0; c < got.NumColumns(); ++c) {
        if (std::stoll(got.At(0, c)->value) > std::stoll(ref.At(0, c)->value)) {
          return fail("COUNT above the reference");
        }
      }
    }
    return ::testing::AssertionSuccess();
  }
  const std::vector<std::string> got_rows = RowMultiset(got);
  const std::vector<std::string> ref_rows = RowMultiset(ref);
  if (!std::includes(ref_rows.begin(), ref_rows.end(), got_rows.begin(),
                     got_rows.end())) {
    return fail("rows not a sub-multiset of the reference");
  }
  if (query.limit > 0 && got_rows.size() > query.limit) {
    return fail("more rows than LIMIT");
  }
  if (!capped) {
    size_t want = ref_rows.size() > query.offset
                      ? ref_rows.size() - query.offset
                      : 0;
    if (query.limit > 0) want = std::min(want, query.limit);
    if (got_rows.size() != want) return fail("row count");
  }
  return ::testing::AssertionSuccess();
}

// ORDER BY's documented order, restated: unbound first, then numeric
// literals (NaN excluded) by value, then everything else by lexical form.
int OrderCompare(const std::optional<rdf::Term>& a,
                 const std::optional<rdf::Term>& b) {
  if (!a.has_value() || !b.has_value()) {
    return a.has_value() == b.has_value() ? 0 : (a.has_value() ? 1 : -1);
  }
  auto numeric = [](const rdf::Term& t, double* v) {
    if (!t.IsLiteral()) return false;
    char* end = nullptr;
    *v = std::strtod(t.value.c_str(), &end);
    return end != t.value.c_str() && *end == '\0' && !std::isnan(*v);
  };
  double va, vb;
  const bool na = numeric(*a, &va);
  const bool nb = numeric(*b, &vb);
  if (na != nb) return na ? -1 : 1;
  if (na && va != vb) return va < vb ? -1 : 1;
  const int cmp = a->value.compare(b->value);
  return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
}

// Consecutive rows never step backwards in ORDER BY key order.  Checked
// only when every key is a projected column.
::testing::AssertionResult SortKeysNeverDecrease(const Query& query,
                                                 const ResultSet& rs) {
  if (query.order_by.empty() || rs.is_ask() || !query.aggregates.empty()) {
    return ::testing::AssertionSuccess();
  }
  std::vector<std::pair<size_t, bool>> keys;  // (column, descending)
  for (const OrderKey& key : query.order_by) {
    auto col = rs.ColumnIndex(key.var.name);
    if (!col.has_value()) return ::testing::AssertionSuccess();
    keys.emplace_back(*col, key.descending);
  }
  for (size_t r = 1; r < rs.NumRows(); ++r) {
    for (const auto& [col, desc] : keys) {
      int cmp = OrderCompare(rs.At(r - 1, col), rs.At(r, col));
      if (desc) cmp = -cmp;
      if (cmp < 0) break;
      if (cmp > 0) {
        return ::testing::AssertionFailure()
               << "row " << r << " sorts before row " << r - 1 << ":\n"
               << DumpResults(rs);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(EvalDifferentialPropertyTest, AllModesByteIdentical) {
  constexpr int kKgRounds = 2;
  constexpr int kCasesPerKg = 24;
  const size_t kRowCaps[] = {7, 50, 100000};
  util::Rng master(g_property_seed);
  for (int round = 0; round < kKgRounds; ++round) {
    uint64_t round_seed = master.Next();
    benchgen::BuiltKg kg = BuildKgForRound(round, round_seed);
    KgQueryGen gen(kg, round_seed);
    // The KG build is deterministic in (round, seed), so both endpoints
    // get an identical graph.
    LocalEndpoint v1("eval-diff", std::move(kg.graph));
    CompactEndpoint compact("eval-diff-compact",
                            BuildKgForRound(round, round_seed).graph);
    for (int c = 0; c < kCasesPerKg; ++c) {
      Query query = gen.RandQuery();
      const size_t max_rows = kRowCaps[master.Next() % 3];
      SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                   std::to_string(round) + " case " + std::to_string(c) +
                   " max_rows " + std::to_string(max_rows) +
                   "\nquery:\n" + ToSparql(query));
      std::optional<ResultSet> got;
      EvalAllLanes(query, v1, compact, max_rows, &got);
      if (HasFatalFailure()) return;
      EXPECT_TRUE(SortKeysNeverDecrease(query, *got));
    }
  }
}

TEST(EvalDifferentialPropertyTest, AgreesWithReferenceEvaluator) {
  constexpr int kKgRounds = 3;
  constexpr int kCasesPerKg = 200;
  util::Rng master(g_property_seed ^ 0x0AC1Eu);
  size_t uncapped_compared = 0;
  for (int round = 0; round < kKgRounds; ++round) {
    uint64_t round_seed = master.Next();
    benchgen::BuiltKg kg = BuildKgForRound(round, round_seed);
    KgQueryGen gen(kg, round_seed);
    LocalEndpoint v1("eval-ref", std::move(kg.graph));
    CompactEndpoint compact("eval-ref-compact",
                            BuildKgForRound(round, round_seed).graph);
    for (int c = 0; c < kCasesPerKg; ++c) {
      Query query = gen.RandQuery();
      const size_t small_cap = kSmallCaps[master.Next() % 2];
      SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                   std::to_string(round) + " case " + std::to_string(c) +
                   "\nquery:\n" + ToSparql(query));
      auto ref = reference::ReferenceEvaluate(
          query, v1.store(), v1.text_index(),
          EvalOptions{}.text_candidate_limit, kReferenceBudget);
      if (!ref.ok()) {
        // Too large for the oracle: production still runs against itself.
        ASSERT_EQ(ref.status().code(), util::StatusCode::kOutOfRange)
            << ref.status();
      }
      // Production runs truly uncapped only when the oracle showed the
      // result is small; otherwise at the default cap.
      const size_t large_cap = ref.ok() ? kUncapped : EvalOptions{}.max_rows;
      for (size_t cap : {small_cap, large_cap}) {
        std::optional<ResultSet> got;
        EvalAllLanes(query, v1, compact, cap, &got);
        if (HasFatalFailure()) return;
        EXPECT_TRUE(SortKeysNeverDecrease(query, *got)) << "max_rows " << cap;
        if (!ref.ok()) continue;
        EXPECT_TRUE(MatchesReference(query, *got, *ref, cap != kUncapped))
            << "max_rows " << cap;
        if (cap == kUncapped) ++uncapped_compared;
      }
    }
  }
  // The oracle must have judged most queries exactly.
  EXPECT_GE(uncapped_compared, size_t{kKgRounds * kCasesPerKg / 2});
}

// LIMIT and OFFSET only pick rows: without ORDER BY, a query's result is
// rows [offset, offset + limit) of the same query without them (DISTINCT
// applied first), on both stores and under any row cap.  The evaluator's
// LIMIT row budget stops single-pattern groups early on this invariant,
// so text-probe-shaped queries are drawn next to the general generator's.
TEST(EvalDifferentialPropertyTest, LimitIsSliceOfUnlimited) {
  constexpr int kKgRounds = 3;
  constexpr int kCasesPerKg = 120;
  util::Rng master(g_property_seed ^ 0x5110Eu);
  size_t single_pattern = 0;
  size_t text_seeded = 0;
  size_t cut_short = 0;  // Budgeted queries whose LIMIT dropped rows.
  for (int round = 0; round < kKgRounds; ++round) {
    uint64_t round_seed = master.Next();
    benchgen::BuiltKg kg = BuildKgForRound(round, round_seed);
    KgQueryGen gen(kg, round_seed);
    LocalEndpoint v1("eval-limit", std::move(kg.graph));
    CompactEndpoint compact("eval-limit-compact",
                            BuildKgForRound(round, round_seed).graph);
    for (int c = 0; c < kCasesPerKg; ++c) {
      Query query = master.Next() % 2 == 0 ? gen.TextProbeQuery()
                                           : gen.RandQuery();
      if (query.form == Query::Form::kAsk) continue;
      query.order_by.clear();
      const bool budgeted =
          query.limit > 0 && !query.distinct && query.aggregates.empty() &&
          query.where.triples.size() == 1 && query.where.unions.empty() &&
          query.where.optionals.empty() && query.where.filters.empty();
      if (budgeted) {
        ++single_pattern;
        if (!query.where.text_patterns.empty()) ++text_seeded;
      }
      SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " round " +
                   std::to_string(round) + " case " + std::to_string(c) +
                   "\nquery:\n" + ToSparql(query));
      for (size_t cap : {kSmallCaps[0], EvalOptions{}.max_rows}) {
        EvalOptions opts;
        opts.max_rows = cap;
        for (bool on_compact : {false, true}) {
          auto eval = [&](size_t limit, size_t offset) {
            // Query holds move-only FILTER trees: vary it in place.
            const size_t saved_limit = std::exchange(query.limit, limit);
            const size_t saved_offset = std::exchange(query.offset, offset);
            auto rs = on_compact ? Evaluate(query, compact.store(),
                                            compact.text_index(), opts)
                                 : Evaluate(query, v1.store(),
                                            v1.text_index(), opts);
            query.limit = saved_limit;
            query.offset = saved_offset;
            return rs;
          };
          auto got = eval(query.limit, query.offset);
          auto full = eval(0, 0);
          ASSERT_TRUE(got.ok()) << got.status();
          ASSERT_TRUE(full.ok()) << full.status();
          const std::vector<Row>& all = full->rows();
          const size_t begin = std::min(query.offset, all.size());
          size_t end = all.size();
          if (query.limit > 0) end = std::min(end, begin + query.limit);
          const std::vector<Row> want(all.begin() + ptrdiff_t(begin),
                                      all.begin() + ptrdiff_t(end));
          if (budgeted && !on_compact && cap == EvalOptions{}.max_rows &&
              all.size() > query.offset + query.limit) {
            ++cut_short;
          }
          EXPECT_EQ(got->columns(), full->columns());
          EXPECT_TRUE(got->rows() == want)
              << (on_compact ? "compact" : "v1") << " max_rows " << cap
              << "\nunlimited:\n" << DumpResults(*full) << "limited:\n"
              << DumpResults(*got);
        }
      }
    }
  }
  // Both the budgeted shape and its text-seeded form must be exercised.
  EXPECT_GE(single_pattern, size_t{kKgRounds * kCasesPerKg / 8});
  EXPECT_GE(text_seeded, size_t{kKgRounds * kCasesPerKg / 10});
  EXPECT_GE(cut_short, size_t{kKgRounds * kCasesPerKg / 30});
}

// The max_rows cap is the subtle part of batch determinism: evaluation
// stops at the first max_rows extensions in (row, index) order, so every
// batch width — and the compact store — must truncate at exactly the same
// prefix even when the cap lands mid-batch.  Sweep caps through and
// around a full wildcard scan's result count.
TEST(EvalDifferentialPropertyTest, RowCapTruncatesIdenticallyInEveryMode) {
  benchgen::BuiltKg kg =
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.05, 77);
  LocalEndpoint v1("eval-diff-cap", std::move(kg.graph));
  CompactEndpoint compact(
      "eval-diff-cap-compact",
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.05, 77).graph);

  Query query;
  query.form = Query::Form::kSelect;
  query.select_all = true;
  query.where.triples.push_back(TriplePattern{
      TermOrVar{Var{"s"}}, TermOrVar{Var{"p"}}, TermOrVar{Var{"o"}}});
  query.where.triples.push_back(TriplePattern{
      TermOrVar{Var{"o"}}, TermOrVar{Var{"q"}}, TermOrVar{Var{"t"}}});

  const size_t total = v1.store().size();
  for (size_t cap : {size_t{1}, size_t{2}, size_t{17}, size_t{256},
                     total - 1, total, total + 1}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    std::optional<ResultSet> got;
    EvalAllLanes(query, v1, compact, cap, &got);
    if (HasFatalFailure()) return;
    EXPECT_LE(got->NumRows(), cap);
  }
}

// Answer-cache runs: the cache keys on the canonical AST, which never
// looks at EvalOptions or the store backend, so a cached result must
// equal every lane's own evaluation.  Store the default lane's result
// under the canonical key / canonical column names, then check the
// positional hit translation equals each lane's evaluation.
TEST(EvalDifferentialPropertyTest, AnswerCacheHitsAreModeIndependent) {
  util::Rng master(g_property_seed ^ 0xCACEu);
  const uint64_t kg_seed = master.Next();
  benchgen::BuiltKg kg =
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.05, kg_seed);
  KgQueryGen gen(kg, master.Next());
  LocalEndpoint v1("eval-diff-cache", std::move(kg.graph));
  CompactEndpoint compact(
      "eval-diff-cache-compact",
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.05, kg_seed)
          .graph);
  core::AnswerCache cache(256);

  int cached_cases = 0;
  for (int c = 0; c < 40 && cached_cases < 12; ++c) {
    Query query = gen.RandQuery();
    CanonicalForm form = Canonicalize(query);
    if (!form.cacheable || query.form == Query::Form::kAsk) continue;
    ++cached_cases;
    SCOPED_TRACE("seed " + std::to_string(g_property_seed) + " case " +
                 std::to_string(c) + "\nquery:\n" + ToSparql(query));

    auto first = Evaluate(query, v1.store(), v1.text_index(), EvalOptions{});
    ASSERT_TRUE(first.ok()) << first.status();
    // Engine discipline: store under canonical column names.
    cache.Put(form.key, v1.cache_identity(),
              std::make_shared<const ResultSet>(
                  first->WithColumns(form.projection_canonical)));

    for (size_t batch : kBatchSizes) {
      EvalOptions opts;
      opts.batch_size = batch;
      for (bool on_compact : {false, true}) {
        auto direct =
            on_compact
                ? Evaluate(query, compact.store(), compact.text_index(), opts)
                : Evaluate(query, v1.store(), v1.text_index(), opts);
        ASSERT_TRUE(direct.ok()) << direct.status();
        // The canonical key is computed from the AST alone, so every lane
        // looks up the same entry...
        std::shared_ptr<const ResultSet> hit =
            cache.Get(form.key, v1.cache_identity());
        ASSERT_NE(hit, nullptr);
        // ...and the cached value must match the lane's own evaluation
        // byte for byte after positional column translation.
        ResultSet translated = hit->WithColumns(form.projection_original);
        EXPECT_TRUE(SameResults(translated, *direct))
            << (on_compact ? "compact" : "v1") << " batch " << batch;
      }
    }
  }
  EXPECT_GE(cached_cases, 4) << "generator produced too few cacheable queries";
  EXPECT_GE(cache.stats().hits, static_cast<size_t>(cached_cases) * 6);
}

}  // namespace
}  // namespace kgqan::sparql

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  uint64_t seed = kgqan::sparql::g_property_seed;
  if (const char* env = std::getenv("KGQAN_PROPERTY_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
  }
  kgqan::sparql::g_property_seed = seed;
  std::printf("[property] seed=%llu  (repro: eval_differential_property_test "
              "--seed=%llu)\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
  return RUN_ALL_TESTS();
}
