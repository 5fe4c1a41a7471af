#include "reference_evaluator.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "reference_text_index.h"

namespace kgqan::reference {

namespace {

using sparql::Expr;
using sparql::ExprOp;
using sparql::GroupGraphPattern;
using sparql::Query;
using sparql::TermOrVar;
using util::Status;

// One solution: the bound variables and their terms.
using Solution = std::map<std::string, rdf::Term>;

class Reference {
 public:
  Reference(const store::TripleStore& store, const text::TextIndex& text,
            size_t text_limit, size_t budget)
      : store_(store), text_(text), text_limit_(text_limit), budget_(budget) {}

  Status EvalGroup(const GroupGraphPattern& g, std::vector<Solution>* rows) {
    for (const sparql::TextPattern& tp : g.text_patterns) {
      auto cq = text::ParseContainsQuery(tp.expr);
      if (!cq.ok()) return cq.status();
      std::vector<rdf::Term> candidates;
      for (rdf::TermId id :
           ReferenceMatchLiterals(text_, *cq, text_limit_)) {
        candidates.push_back(store_.dictionary().Get(id));
      }
      KGQAN_RETURN_IF_ERROR(Bind(tp.var.name, candidates, rows));
    }
    for (const sparql::InlineValues& iv : g.values) {
      KGQAN_RETURN_IF_ERROR(Bind(iv.var.name, iv.values, rows));
    }
    for (const sparql::TriplePattern& tp : g.triples) {
      KGQAN_RETURN_IF_ERROR(Join(tp, rows));
    }
    for (const std::vector<GroupGraphPattern>& branches : g.unions) {
      std::vector<Solution> out;
      for (const GroupGraphPattern& branch : branches) {
        std::vector<Solution> sub = *rows;
        KGQAN_RETURN_IF_ERROR(EvalGroup(branch, &sub));
        out.insert(out.end(), sub.begin(), sub.end());
        KGQAN_RETURN_IF_ERROR(Check(out));
      }
      *rows = std::move(out);
    }
    for (const GroupGraphPattern& opt : g.optionals) {
      std::vector<Solution> out;
      for (const Solution& row : *rows) {
        std::vector<Solution> sub{row};
        KGQAN_RETURN_IF_ERROR(EvalGroup(opt, &sub));
        if (sub.empty()) sub.push_back(row);
        out.insert(out.end(), sub.begin(), sub.end());
        KGQAN_RETURN_IF_ERROR(Check(out));
      }
      *rows = std::move(out);
    }
    for (const Expr& filter : g.filters) {
      std::vector<Solution> out;
      for (const Solution& row : *rows) {
        auto keep = Test(filter, row);
        if (!keep.ok()) return keep.status();
        if (*keep) out.push_back(row);
      }
      *rows = std::move(out);
    }
    return Status::Ok();
  }

 private:
  Status Check(const std::vector<Solution>& rows) const {
    if (rows.size() <= budget_) return Status::Ok();
    return Status::OutOfRange("reference row budget exceeded");
  }

  // A bound variable keeps its solution iff its term is among `values`;
  // an unbound one fans out over them.
  Status Bind(const std::string& var, const std::vector<rdf::Term>& values,
              std::vector<Solution>* rows) {
    std::vector<Solution> out;
    for (const Solution& row : *rows) {
      auto it = row.find(var);
      if (it != row.end()) {
        if (std::find(values.begin(), values.end(), it->second) !=
            values.end()) {
          out.push_back(row);
        }
        continue;
      }
      for (const rdf::Term& v : values) {
        Solution ext = row;
        ext[var] = v;
        out.push_back(std::move(ext));
      }
      KGQAN_RETURN_IF_ERROR(Check(out));
    }
    *rows = std::move(out);
    return Status::Ok();
  }

  // Extends every solution by every matching triple.
  Status Join(const sparql::TriplePattern& tp, std::vector<Solution>* rows) {
    std::vector<Solution> out;
    for (const Solution& row : *rows) {
      // A constant or bound component looks up its store id; a term the
      // store does not hold matches nothing.
      bool dead = false;
      auto lookup = [&](const TermOrVar& tv) -> rdf::TermId {
        const rdf::Term* term = nullptr;
        if (!sparql::IsVar(tv)) {
          term = &sparql::AsTerm(tv);
        } else if (auto it = row.find(sparql::AsVar(tv).name);
                   it != row.end()) {
          term = &it->second;
        }
        if (term == nullptr) return rdf::kNullTermId;
        auto id = store_.dictionary().Find(*term);
        if (!id.has_value()) dead = true;
        return id.value_or(rdf::kNullTermId);
      };
      rdf::TermId s = lookup(tp.s), p = lookup(tp.p), o = lookup(tp.o);
      if (dead) continue;
      store_.Match(s, p, o, [&](const rdf::Triple& t) {
        Solution ext = row;
        bool consistent = true;
        auto bind = [&](const TermOrVar& tv, rdf::TermId id) {
          if (!sparql::IsVar(tv)) return;
          rdf::Term term = store_.dictionary().Get(id);
          auto [it, fresh] = ext.emplace(sparql::AsVar(tv).name, term);
          if (!fresh && !(it->second == term)) consistent = false;
        };
        bind(tp.s, t.s);
        bind(tp.p, t.p);
        bind(tp.o, t.o);
        if (consistent) out.push_back(std::move(ext));
        return out.size() <= budget_;
      });
      KGQAN_RETURN_IF_ERROR(Check(out));
    }
    *rows = std::move(out);
    return Status::Ok();
  }

  static const rdf::Term* Operand(const Expr& e, const Solution& row) {
    if (e.op == ExprOp::kConstant) return &e.constant;
    if (e.op != ExprOp::kVar) return nullptr;
    auto it = row.find(e.var.name);
    return it == row.end() ? nullptr : &it->second;
  }

  // FILTER truth: an operand that is unbound makes its test false.
  util::StatusOr<bool> Test(const Expr& e, const Solution& row) const {
    switch (e.op) {
      case ExprOp::kAnd:
      case ExprOp::kOr: {
        auto l = Test(*e.lhs, row);
        if (!l.ok()) return l;
        auto r = Test(*e.rhs, row);
        if (!r.ok()) return r;
        return e.op == ExprOp::kAnd ? (*l && *r) : (*l || *r);
      }
      case ExprOp::kNot: {
        auto inner = Test(*e.lhs, row);
        if (!inner.ok()) return inner;
        return !*inner;
      }
      case ExprOp::kBound:
        return row.count(e.var.name) > 0;
      case ExprOp::kIsIri:
      case ExprOp::kIsLiteral: {
        const rdf::Term* t = Operand(*e.lhs, row);
        if (t == nullptr) return false;
        return e.op == ExprOp::kIsIri ? t->IsIri() : t->IsLiteral();
      }
      default:
        return Status::Unimplemented("reference FILTER operator");
    }
  }

  const store::TripleStore& store_;
  const text::TextIndex& text_;
  const size_t text_limit_;
  const size_t budget_;
};

// Variables in first-appearance order: triples, text patterns, VALUES,
// then OPTIONAL and UNION groups recursively (SELECT * column order).
void VarNames(const GroupGraphPattern& g, std::vector<std::string>* names) {
  auto add = [&](const std::string& name) {
    if (std::find(names->begin(), names->end(), name) == names->end()) {
      names->push_back(name);
    }
  };
  for (const sparql::TriplePattern& tp : g.triples) {
    for (const TermOrVar* tv : {&tp.s, &tp.p, &tp.o}) {
      if (sparql::IsVar(*tv)) add(sparql::AsVar(*tv).name);
    }
  }
  for (const sparql::TextPattern& tp : g.text_patterns) add(tp.var.name);
  for (const sparql::InlineValues& iv : g.values) add(iv.var.name);
  for (const GroupGraphPattern& opt : g.optionals) VarNames(opt, names);
  for (const auto& branches : g.unions) {
    for (const GroupGraphPattern& branch : branches) VarNames(branch, names);
  }
}

}  // namespace

util::StatusOr<sparql::ResultSet> ReferenceEvaluate(
    const Query& query, const store::TripleStore& store,
    const text::TextIndex& text_index, size_t text_candidate_limit,
    size_t row_budget) {
  Reference ref(store, text_index, text_candidate_limit, row_budget);
  std::vector<Solution> rows(1);  // One empty solution.
  KGQAN_RETURN_IF_ERROR(ref.EvalGroup(query.where, &rows));
  if (query.form == Query::Form::kAsk) {
    return sparql::ResultSet::Ask(!rows.empty());
  }

  if (!query.aggregates.empty()) {
    std::vector<std::string> cols;
    sparql::Row out;
    for (const sparql::Aggregate& agg : query.aggregates) {
      if (agg.op != sparql::Aggregate::Op::kCount) {
        return Status::Unimplemented("reference aggregate");
      }
      int64_t count = 0;
      std::set<std::string> distinct_values;
      for (const Solution& row : rows) {
        auto it = row.find(agg.var.name);
        if (it == row.end()) continue;
        if (agg.distinct &&
            !distinct_values.insert(rdf::ToNTriples(it->second)).second) {
          continue;
        }
        ++count;
      }
      cols.push_back(agg.alias.name);
      out.push_back(rdf::IntLiteral(count));
    }
    sparql::ResultSet rs(std::move(cols));
    rs.AddRow(std::move(out));
    return rs;
  }

  std::vector<std::string> cols;
  if (query.select_all) {
    VarNames(query.where, &cols);
  } else {
    for (const sparql::Var& v : query.select_vars) cols.push_back(v.name);
  }
  sparql::ResultSet rs(cols);
  std::set<std::vector<std::string>> seen;  // Rendered rows, for DISTINCT.
  for (const Solution& row : rows) {
    sparql::Row out;
    std::vector<std::string> rendered;
    for (const std::string& col : cols) {
      auto it = row.find(col);
      if (it == row.end()) {
        out.push_back(std::nullopt);
        rendered.push_back("");
      } else {
        out.push_back(it->second);
        rendered.push_back(rdf::ToNTriples(it->second));
      }
    }
    if (query.distinct && !seen.insert(rendered).second) continue;
    rs.AddRow(std::move(out));
  }
  return rs;
}

}  // namespace kgqan::reference
