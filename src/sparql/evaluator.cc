#include "sparql/evaluator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sparql/planner.h"
#include "store/compact_store.h"
#include "text/text_index.h"
#include "util/cancel.h"

namespace kgqan::sparql {

namespace {

EvalProfile*& CurrentEvalProfileSlot() {
  thread_local EvalProfile* profile = nullptr;
  return profile;
}

}  // namespace

ScopedEvalProfile::ScopedEvalProfile(EvalProfile* profile)
    : saved_(CurrentEvalProfileSlot()) {
  CurrentEvalProfileSlot() = profile;
}

ScopedEvalProfile::~ScopedEvalProfile() { CurrentEvalProfileSlot() = saved_; }

EvalProfile* CurrentEvalProfile() { return CurrentEvalProfileSlot(); }

namespace {

using rdf::kNullTermId;
using rdf::Term;
using rdf::TermId;
using util::Status;
using util::StatusOr;

// Maps variable names to dense slots across the whole query.
class SlotMap {
 public:
  size_t SlotOf(const std::string& name) {
    auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    size_t slot = slots_.size();
    slots_.emplace(name, slot);
    return slot;
  }
  std::optional<size_t> Find(const std::string& name) const {
    auto it = slots_.find(name);
    if (it == slots_.end()) return std::nullopt;
    return it->second;
  }
  size_t size() const { return slots_.size(); }

 private:
  std::unordered_map<std::string, size_t> slots_;
};

void CollectVars(const GroupGraphPattern& group, SlotMap* slots) {
  auto visit = [&](const TermOrVar& tv) {
    if (IsVar(tv)) slots->SlotOf(AsVar(tv).name);
  };
  for (const TriplePattern& tp : group.triples) {
    visit(tp.s);
    visit(tp.p);
    visit(tp.o);
  }
  for (const TextPattern& tp : group.text_patterns) {
    slots->SlotOf(tp.var.name);
  }
  for (const InlineValues& iv : group.values) {
    slots->SlotOf(iv.var.name);
  }
  for (const GroupGraphPattern& opt : group.optionals) {
    CollectVars(opt, slots);
  }
  for (const auto& branches : group.unions) {
    for (const GroupGraphPattern& branch : branches) {
      CollectVars(branch, slots);
    }
  }
}

// A columnar batch of solution rows: one TermId vector per variable slot.
// Row r of the batch is (cols_[0][r], ..., cols_[n-1][r]); kNullTermId
// marks an unbound slot.  A join step touches a handful of contiguous
// arrays instead of one heap allocation per intermediate row.
class Chunk {
 public:
  explicit Chunk(size_t num_slots) : cols_(num_slots) {}

  size_t rows() const { return rows_; }
  size_t num_slots() const { return cols_.size(); }
  TermId At(size_t row, size_t slot) const { return cols_[slot][row]; }
  const std::vector<TermId>& Col(size_t slot) const { return cols_[slot]; }

  void Reserve(size_t n) {
    for (std::vector<TermId>& col : cols_) col.reserve(n);
  }
  void AppendNullRow() {
    for (std::vector<TermId>& col : cols_) col.push_back(kNullTermId);
    ++rows_;
  }
  void AppendRow(const Chunk& src, size_t r) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].push_back(src.cols_[s][r]);
    }
    ++rows_;
  }
  // Appends src row r with one slot overwritten (VALUES / text fan-out).
  void AppendRowSet(const Chunk& src, size_t r, size_t slot, TermId v) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].push_back(s == slot ? v : src.cols_[s][r]);
    }
    ++rows_;
  }
  // Extends this batch with a join result: input row `r` with the slots
  // of pattern `cp` bound from `t` (written in s, p, o order; a repeated
  // variable gets equal components in every admitted triple).
  void AppendJoinRow(const Chunk& in, size_t r, const rdf::Triple& t,
                     const CompiledTriple& cp) {
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].push_back(in.cols_[s][r]);
    }
    if (CompiledTriple::IsSlot(cp.s)) {
      cols_[CompiledTriple::Slot(cp.s)].back() = t.s;
    }
    if (CompiledTriple::IsSlot(cp.p)) {
      cols_[CompiledTriple::Slot(cp.p)].back() = t.p;
    }
    if (CompiledTriple::IsSlot(cp.o)) {
      cols_[CompiledTriple::Slot(cp.o)].back() = t.o;
    }
    ++rows_;
  }
  // Bulk-appends the first rows of `other` until this batch holds `cap`
  // rows.
  void AppendChunkCapped(const Chunk& other, size_t cap) {
    if (rows_ >= cap) return;
    size_t take = std::min(other.rows_, cap - rows_);
    for (size_t s = 0; s < cols_.size(); ++s) {
      cols_[s].insert(cols_[s].end(), other.cols_[s].begin(),
                      other.cols_[s].begin() + static_cast<ptrdiff_t>(take));
    }
    rows_ += take;
  }

 private:
  std::vector<std::vector<TermId>> cols_;
  size_t rows_ = 0;
};

// Row view over a Chunk, for FILTER evaluation.
struct ChunkRow {
  const Chunk* chunk;
  size_t row;
  TermId operator[](size_t slot) const { return chunk->At(row, slot); }
};

// How a pattern component relates to the rows of one input batch.  The
// kernels classify from the *actual columns*, never from the planner's
// bound-slot set: after UNION concatenation a slot can be bound in some
// rows and unbound in others (kMixed), which only the per-row probe kernel
// handles.
enum class CompKind : uint8_t {
  kConst,    // A constant term id.
  kFree,     // A slot unbound in every row: wildcard.
  kVarying,  // A slot bound in every row: join key.
  kMixed,    // Bound in some rows only: probe per row.
};

// A pattern component shared with another component of the same pattern
// (`?x ?p ?x`) must bind one term: only triples whose two components are
// equal match.  When the shared slot is bound the resolved ids are already
// equal and the check always passes; it matters when the variable is free.
struct RepeatedVars {
  bool sp = false;
  bool so = false;
  bool po = false;

  explicit RepeatedVars(const CompiledTriple& cp) {
    auto same = [](uint64_t a, uint64_t b) {
      return CompiledTriple::IsSlot(a) && CompiledTriple::IsSlot(b) &&
             CompiledTriple::Slot(a) == CompiledTriple::Slot(b);
    };
    sp = same(cp.s, cp.p);
    so = same(cp.s, cp.o);
    po = same(cp.p, cp.o);
  }
  bool Admits(const rdf::Triple& t) const {
    return (!sp || t.s == t.p) && (!so || t.s == t.o) && (!po || t.p == t.o);
  }
};

// Generic over the store: store::TripleStore (v1) or store::CompactStore.
// StoreT supplies dictionary(), Locate() -> StoreT::Range,
// Match/MatchRange and EstimateMatches with identical semantics; every
// ordering and cap decision below is expressed against that contract,
// which is what makes the two stores byte-identical.
//
// Each join step classifies the pattern components against the input
// columns and picks one of three kernels, every one of which emits in
// (input row, match index) order and stops at its row cap (max_rows, or
// the top-level LIMIT row budget; see TopLevelStepCap):
//  * broadcast — no varying component: all rows resolve the pattern
//    identically, so the matches are scanned once and cross-joined.
//  * hash — build over the constants-only range keyed by the varying
//    components, probe per row; order-correct because a probe's match set
//    differs in at most one (wildcard) component, and triples equal on
//    every other component sort identically in all six permutations.
//  * probe — the per-row Locate + scan fallback; always correct.
template <typename StoreT>
class Evaluator {
 public:
  Evaluator(const StoreT& store, const text::TextIndex& text_index,
            const EvalOptions& options)
      : store_(store), text_index_(text_index), options_(options),
        profile_(CurrentEvalProfile()) {
    // Per-step analysis (operator stats, step spans, step timings) runs
    // only when a profile sink is bound or the active trace records spans,
    // so unsampled serving pays nothing per join step.
    obs::Trace* trace = obs::CurrentTrace();
    analyze_ =
        profile_ != nullptr || (trace != nullptr && trace->spans_enabled());
  }

  StatusOr<ResultSet> Run(const Query& query) {
    CollectVars(query.where, &slots_);
    // Register aggregate / projection vars so projection can resolve them.
    for (const Var& v : query.select_vars) slots_.SlotOf(v.name);
    for (const CountAggregate& agg : query.aggregates) {
      slots_.SlotOf(agg.var.name);
    }

    Chunk chunk(slots_.size());
    chunk.AppendNullRow();
    KGQAN_ASSIGN_OR_RETURN(
        chunk, EvalGroupChunked(query.where, std::move(chunk),
                                TopLevelStepCap(query)));
    if (query.form == Query::Form::kAsk) {
      return ResultSet::Ask(chunk.rows() > 0);
    }
    return Project(query, chunk);
  }

  // Join steps executed and batch boundaries crossed (for the
  // sparql.eval.batch.* registry metrics), plus the planner's
  // multi-pattern group counts.
  size_t steps() const { return steps_; }
  size_t batches() const { return batches_; }
  size_t planned_groups() const { return planned_groups_; }
  size_t reordered_plans() const { return reordered_plans_; }

 private:
  // The row cap of the top-level group's join steps.  When the result is
  // the first offset + limit rows of that group in emission order — no
  // DISTINCT, ORDER BY or aggregate merges or reorders them, and the
  // group is one join step with nothing after it — the step stops there
  // (a LIMIT row budget): exact, because every kernel emits in input-row
  // order.  The text/VALUES overlay before the step stays uncapped, since
  // a candidate may join no triple.  Every other group runs to max_rows.
  size_t TopLevelStepCap(const Query& query) const {
    const GroupGraphPattern& g = query.where;
    if (query.form == Query::Form::kAsk || query.limit == 0 ||
        query.distinct || !query.order_by.empty() ||
        !query.aggregates.empty() || g.triples.size() != 1 ||
        !g.unions.empty() || !g.optionals.empty() || !g.filters.empty()) {
      return options_.max_rows;
    }
    const size_t budget = query.offset + query.limit;
    if (budget < query.offset) return options_.max_rows;  // Overflowed.
    return std::min(options_.max_rows, budget);
  }

  uint64_t Compile(const TermOrVar& tv, bool* dead) {
    if (IsVar(tv)) {
      return CompiledTriple::kVarFlag |
             static_cast<uint64_t>(slots_.SlotOf(AsVar(tv).name));
    }
    auto id = store_.dictionary().Find(AsTerm(tv));
    if (!id.has_value()) {
      *dead = true;
      return 0;
    }
    return *id;
  }

  std::vector<CompiledTriple> CompileTriples(const GroupGraphPattern& group) {
    std::vector<CompiledTriple> patterns;
    patterns.reserve(group.triples.size());
    for (const TriplePattern& tp : group.triples) {
      CompiledTriple cp;
      cp.s = Compile(tp.s, &cp.dead);
      cp.p = Compile(tp.p, &cp.dead);
      cp.o = Compile(tp.o, &cp.dead);
      patterns.push_back(cp);
    }
    return patterns;
  }

  // Slots bound by the incoming solution rows, read off the first row (the
  // rows of one group share a bound set except after union concatenation,
  // where a wrong guess only costs the planner estimate quality — the
  // kernels classify boundness from the actual columns).  Planning input
  // only.
  std::vector<bool> BoundSlots(const Chunk& chunk) const {
    std::vector<bool> bound(slots_.size(), false);
    if (chunk.rows() > 0) {
      for (size_t i = 0; i < slots_.size(); ++i) {
        bound[i] = chunk.At(0, i) != kNullTermId;
      }
    }
    return bound;
  }

  // Plan instrumentation, for multi-pattern groups only: single-pattern
  // groups (the linking probes) have nothing to reorder and record
  // nothing.
  void NotePlan(size_t num_patterns, const JoinPlan& plan) {
    if (num_patterns < 2) return;
    ++planned_groups_;
    if (plan.reordered) ++reordered_plans_;
    obs::ScopedSpan span("sparql.plan");
    if (span.recording()) {
      span.AddAttribute("patterns", std::to_string(num_patterns));
      span.AddAttribute("reordered", plan.reordered ? "1" : "0");
      if (!plan.steps.empty()) {
        span.AddAttribute("entry_estimate",
                          std::to_string(plan.steps.front().estimate));
      }
    }
  }

  // Publishes one executed join step to its span, the step-latency
  // histogram and the bound operator-stats sink.  Called only on the
  // analyze path.
  void NoteStep(const PlanStep& step, size_t order, size_t rows_in,
                size_t rows_out, size_t batches, const char* kernel,
                obs::ScopedSpan* span) {
    if (span->recording()) {
      span->AddAttribute("pattern", std::to_string(step.pattern));
      span->AddAttribute("order", std::to_string(order));
      span->AddAttribute("estimate", std::to_string(step.estimate));
      span->AddAttribute("rows_in", std::to_string(rows_in));
      span->AddAttribute("rows_out", std::to_string(rows_out));
      span->AddAttribute("kernel", kernel);
    }
    const double ms = span->ElapsedMillis();
    static obs::Histogram& step_ms =
        obs::MetricsRegistry::Global().GetHistogram(
            "sparql.eval.batch.step_ms");
    step_ms.Record(ms);
    if (profile_ != nullptr) {
      OperatorStats stats;
      stats.pattern = step.pattern;
      stats.order = order;
      stats.estimate = step.estimate;
      stats.rows_in = rows_in;
      stats.rows_out = rows_out;
      stats.batches = batches;
      stats.kernel = kernel;
      stats.ms = ms;
      profile_->Add(std::move(stats));
    }
  }

  // Resolves a compiled component against input row `r`: a constant id,
  // the bound value of its slot, or kNullTermId (wildcard).
  static TermId Resolve(uint64_t c, const Chunk& in, size_t r) {
    if (!CompiledTriple::IsSlot(c)) return static_cast<TermId>(c);
    return in.At(r, CompiledTriple::Slot(c));
  }

  // Id of `term` for use in bindings: the store id when the term occurs in
  // the KG, otherwise a query-local overlay id above the store's range.
  TermId InternValue(const Term& term) {
    if (auto id = store_.dictionary().Find(term); id.has_value()) return *id;
    auto [it, inserted] =
        overlay_ids_.try_emplace(rdf::ToNTriples(term), TermId{0});
    if (inserted) {
      overlay_terms_.push_back(term);
      it->second = static_cast<TermId>(store_.dictionary().MaxId() +
                                       overlay_terms_.size());
    }
    return it->second;
  }

  // Term lookup that also resolves overlay ids (pre-condition: id is a
  // store id or was returned by InternValue; not kNullTermId).  Returned
  // by value: a compact store's front-coded dictionary decodes terms on
  // demand, so there is no stored Term to reference.
  Term TermOf(TermId id) const {
    TermId max_store = store_.dictionary().MaxId();
    if (id <= max_store) return store_.dictionary().Get(id);
    return overlay_terms_[id - max_store - 1];
  }

  // Counts one unit of work (a scanned triple or an emitted row).  Every
  // batch_size units is a batch boundary: the optional testing latency is
  // injected and the request deadline is re-checked, so cancellation bites
  // mid-scan even when one kernel invocation covers millions of triples.
  // The count runs across steps and groups, so a query made of many small
  // steps (one OPTIONAL evaluation per row) is polled too.  Returns false
  // when the deadline expired at this boundary.
  bool TickBatch() {
    if (++work_ < options_.batch_size) return true;
    work_ = 0;
    ++batches_;
    if (options_.testing_batch_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.testing_batch_delay_us));
    }
    return !util::Cancelled();
  }

  static Status Expired() {
    return Status::DeadlineExceeded("evaluation cancelled mid-batch");
  }

  static CompKind Classify(uint64_t c, const Chunk& in) {
    if (!CompiledTriple::IsSlot(c)) return CompKind::kConst;
    const std::vector<TermId>& col = in.Col(CompiledTriple::Slot(c));
    bool null_seen = false;
    bool bound_seen = false;
    for (size_t r = 0; r < in.rows(); ++r) {
      (col[r] == kNullTermId ? null_seen : bound_seen) = true;
      if (null_seen && bound_seen) return CompKind::kMixed;
    }
    return bound_seen ? CompKind::kVarying : CompKind::kFree;
  }

  // VALUES / text overlay on a batch: rows with the slot already bound are
  // kept iff the value is in `ids`; unbound rows fan out over `ids` in
  // order.  Bound keeps are never dropped; fan-outs stop at max_rows.
  Chunk OverlayBindChunk(const Chunk& chunk, size_t slot,
                         const std::vector<TermId>& ids) const {
    Chunk next(chunk.num_slots());
    for (size_t r = 0; r < chunk.rows(); ++r) {
      TermId v = chunk.At(r, slot);
      if (v != kNullTermId) {
        if (std::find(ids.begin(), ids.end(), v) != ids.end()) {
          next.AppendRow(chunk, r);
        }
        continue;
      }
      for (TermId id : ids) {
        next.AppendRowSet(chunk, r, slot, id);
        if (next.rows() >= options_.max_rows) break;
      }
      if (next.rows() >= options_.max_rows) break;
    }
    return next;
  }

  // Evaluates `group` against the rows of `chunk`; its join steps stop at
  // `step_cap` rows (max_rows, or the top-level LIMIT row budget).  Sets
  // capped_ when some stage reached max_rows, i.e. may have lost rows.
  StatusOr<Chunk> EvalGroupChunked(const GroupGraphPattern& group,
                                   Chunk chunk, size_t step_cap) {
    auto note_cap = [&] {
      if (chunk.rows() >= options_.max_rows) capped_ = true;
    };
    // 1. Text patterns first: they seed candidate sets in relevance order.
    for (const TextPattern& tp : group.text_patterns) {
      KGQAN_ASSIGN_OR_RETURN(text::ContainsQuery cq,
                             text::ParseContainsQuery(tp.expr));
      std::vector<TermId> candidates =
          text_index_.MatchLiterals(cq, options_.text_candidate_limit);
      chunk = OverlayBindChunk(chunk, slots_.SlotOf(tp.var.name), candidates);
      note_cap();
    }
    // 1b. Inline VALUES bindings.  Terms that do not occur in the KG are
    // interned into a query-local overlay dictionary: per SPARQL semantics
    // they still bind (e.g. batch-query discriminator values), they simply
    // can never join a stored triple.
    for (const InlineValues& iv : group.values) {
      std::vector<TermId> ids;
      ids.reserve(iv.values.size());
      for (const Term& t : iv.values) ids.push_back(InternValue(t));
      chunk = OverlayBindChunk(chunk, slots_.SlotOf(iv.var.name), ids);
      note_cap();
    }

    // 2. Triple patterns, ordered by the cardinality planner (greedy
    // selectivity over exact Locate range sizes; see sparql/planner.h).
    std::vector<CompiledTriple> patterns = CompileTriples(group);
    JoinPlan plan;
    if (patterns.size() == 1 && !analyze_) {
      // One pattern has nothing to order: skip its estimate (a Locate)
      // unless EXPLAIN ANALYZE reports it.
      plan.steps.push_back(PlanStep{0, 0});
    } else {
      plan = PlanJoins(store_, patterns, BoundSlots(chunk));
    }
    NotePlan(patterns.size(), plan);
    size_t order = 0;
    for (const PlanStep& step : plan.steps) {
      const CompiledTriple& cp = patterns[step.pattern];
      Chunk next(chunk.num_slots());
      if (!cp.dead) {
        KGQAN_ASSIGN_OR_RETURN(
            next, VectorizedJoinStep(cp, step, order, chunk, step_cap));
      }
      chunk = std::move(next);
      note_cap();
      ++order;
      if (chunk.rows() == 0) break;
    }

    // 3. UNION blocks: solutions of the branches are concatenated (each
    // branch joins against the incoming rows independently).
    for (const auto& branches : group.unions) {
      Chunk next(chunk.num_slots());
      for (const GroupGraphPattern& branch : branches) {
        auto matched = EvalGroupChunked(branch, chunk, options_.max_rows);
        if (!matched.ok()) return matched.status();
        next.AppendChunkCapped(*matched, options_.max_rows);
        if (next.rows() >= options_.max_rows) break;
      }
      chunk = std::move(next);
      note_cap();
    }

    // 4. OPTIONAL groups: left join, evaluated per input row.  A row whose
    // group comes back empty stays unextended, unless the group's
    // evaluation reached max_rows: then it may have had matches, the
    // unextended row may not be a solution, and it is dropped, so a capped
    // result is still a sub-multiset of the solutions.
    for (const GroupGraphPattern& opt : group.optionals) {
      Chunk next(chunk.num_slots());
      for (size_t r = 0; r < chunk.rows(); ++r) {
        Chunk seed(chunk.num_slots());
        seed.AppendRow(chunk, r);
        const bool capped_before = capped_;
        capped_ = false;
        auto matched =
            EvalGroupChunked(opt, std::move(seed), options_.max_rows);
        if (!matched.ok()) return matched.status();
        if (matched->rows() > 0) {
          next.AppendChunkCapped(*matched, options_.max_rows);
        } else if (!capped_) {
          next.AppendRow(chunk, r);
        }
        capped_ = capped_ || capped_before;
        if (next.rows() >= options_.max_rows) break;
      }
      chunk = std::move(next);
      note_cap();
    }

    // 5. Filters.
    for (const Expr& filter : group.filters) {
      Chunk next(chunk.num_slots());
      for (size_t r = 0; r < chunk.rows(); ++r) {
        if (EvalExprBool(filter, ChunkRow{&chunk, r})) {
          next.AppendRow(chunk, r);
        }
      }
      chunk = std::move(next);
    }
    return chunk;
  }

  StatusOr<Chunk> VectorizedJoinStep(const CompiledTriple& cp,
                                     const PlanStep& step, size_t order,
                                     const Chunk& in, size_t cap) {
    Chunk out(in.num_slots());
    if (cp.dead || in.rows() == 0) return out;
    // Analyze-only span and timing: an unanalyzed step reads no clock and
    // records nothing.
    std::optional<obs::ScopedSpan> span;
    if (analyze_) span.emplace("sparql.eval.batch_step");
    ++steps_;
    const size_t batches_before = batches_;

    const RepeatedVars repeated(cp);

    const CompKind ks = Classify(cp.s, in);
    const CompKind kp = Classify(cp.p, in);
    const CompKind ko = Classify(cp.o, in);
    const bool mixed = ks == CompKind::kMixed || kp == CompKind::kMixed ||
                       ko == CompKind::kMixed;
    const size_t varying = size_t(ks == CompKind::kVarying) +
                           size_t(kp == CompKind::kVarying) +
                           size_t(ko == CompKind::kVarying);
    const size_t wildcards = size_t(ks == CompKind::kFree) +
                             size_t(kp == CompKind::kFree) +
                             size_t(ko == CompKind::kFree);

    const char* kernel = "probe";
    Status status;
    if (!mixed && varying == 0) {
      kernel = "broadcast";
      status = BroadcastKernel(cp, repeated, in, cap, &out);
    } else {
      bool hashed = false;
      // Hash eligibility: every key fits one uint64 (≤ 2 varying 32-bit
      // components), order stays serial (≤ 1 wildcard component), and the
      // build is worth it (enough probes, bounded build range).
      if (!mixed && varying <= 2 && wildcards <= 1 && in.rows() >= 8) {
        auto build_comp = [](uint64_t c, CompKind k) {
          return k == CompKind::kConst ? static_cast<TermId>(c) : kNullTermId;
        };
        typename StoreT::Range range =
            store_.Locate(build_comp(cp.s, ks), build_comp(cp.p, kp),
                          build_comp(cp.o, ko));
        // The build touches every range triple once (hashing + per-key
        // vector growth) to save one Locate binary search per probe row,
        // so it only pays off while the range is a small multiple of the
        // probe count; past that, per-row probing is strictly cheaper.
        if (range.size() <= 4 * in.rows()) {
          kernel = "hash";
          status =
              HashKernel(cp, repeated, in, range, ks, kp, ko, cap, &out);
          hashed = true;
        }
      }
      if (!hashed) status = ProbeKernel(cp, repeated, in, cap, &out);
    }
    KGQAN_RETURN_IF_ERROR(status);
    if (span.has_value()) {
      NoteStep(step, order, in.rows(), out.rows(), batches_ - batches_before,
               kernel, &*span);
    }
    return out;
  }

  // No varying component: every input row resolves the pattern to the same
  // constants-plus-wildcards lookup (the seed row of a fresh group always
  // lands here), so the matches are scanned exactly once and cross-joined
  // row-major.
  Status BroadcastKernel(const CompiledTriple& cp, const RepeatedVars& repeated,
                         const Chunk& in, size_t cap, Chunk* out) {
    auto comp = [](uint64_t c) {
      return CompiledTriple::IsSlot(c) ? kNullTermId : static_cast<TermId>(c);
    };
    const TermId s = comp(cp.s);
    const TermId p = comp(cp.p);
    const TermId o = comp(cp.o);
    typename StoreT::Range range = store_.Locate(s, p, o);
    std::vector<rdf::Triple> matches;
    matches.reserve(std::min(range.size(), cap));
    bool expired = false;
    store_.MatchRange(range, s, p, o, [&](const rdf::Triple& t) {
      if (!TickBatch()) {
        expired = true;
        return false;
      }
      if (repeated.Admits(t)) matches.push_back(t);
      return matches.size() < cap;
    });
    if (expired) return Expired();

    // Row-major cross join: row r first, then match order, capped at
    // `cap`.
    out->Reserve(std::min(cap, in.rows() * matches.size()));
    for (size_t r = 0; r < in.rows(); ++r) {
      for (const rdf::Triple& t : matches) {
        if (!TickBatch()) return Expired();
        out->AppendJoinRow(in, r, t, cp);
        if (out->rows() >= cap) return Status::Ok();
      }
    }
    return Status::Ok();
  }

  // ≥ 1 varying component: build a hash table over the constants-only
  // range once, grouping triples by their varying components in index
  // order, then probe per input row.  A group's order is the per-row scan
  // order in *any* permutation, because its triples agree on every
  // component except the (at most one) wildcard.
  Status HashKernel(const CompiledTriple& cp, const RepeatedVars& repeated,
                    const Chunk& in, const typename StoreT::Range& build_range,
                    CompKind ks, CompKind kp, CompKind ko, size_t cap,
                    Chunk* out) {
    auto build_comp = [](uint64_t c, CompKind k) {
      return k == CompKind::kConst ? static_cast<TermId>(c) : kNullTermId;
    };
    const TermId s = build_comp(cp.s, ks);
    const TermId p = build_comp(cp.p, kp);
    const TermId o = build_comp(cp.o, ko);
    std::unordered_map<uint64_t, std::vector<rdf::Triple>> table;
    bool expired = false;
    store_.MatchRange(build_range, s, p, o, [&](const rdf::Triple& t) {
      if (!TickBatch()) {
        expired = true;
        return false;
      }
      if (!repeated.Admits(t)) return true;
      uint64_t key = 0;
      if (ks == CompKind::kVarying) key = t.s;
      if (kp == CompKind::kVarying) key = (key << 32) | t.p;
      if (ko == CompKind::kVarying) key = (key << 32) | t.o;
      table[key].push_back(t);
      return true;
    });
    if (expired) return Expired();

    for (size_t r = 0; r < in.rows(); ++r) {
      uint64_t key = 0;
      if (ks == CompKind::kVarying) {
        key = in.At(r, CompiledTriple::Slot(cp.s));
      }
      if (kp == CompKind::kVarying) {
        key = (key << 32) | in.At(r, CompiledTriple::Slot(cp.p));
      }
      if (ko == CompKind::kVarying) {
        key = (key << 32) | in.At(r, CompiledTriple::Slot(cp.o));
      }
      auto it = table.find(key);
      if (it == table.end()) continue;
      for (const rdf::Triple& t : it->second) {
        if (!TickBatch()) return Expired();
        out->AppendJoinRow(in, r, t, cp);
        if (out->rows() >= cap) return Status::Ok();
      }
    }
    return Status::Ok();
  }

  // The per-row fallback: Locate + scan for each input row, emitting into
  // columns.
  Status ProbeKernel(const CompiledTriple& cp, const RepeatedVars& repeated,
                     const Chunk& in, size_t cap, Chunk* out) {
    for (size_t r = 0; r < in.rows(); ++r) {
      bool expired = false;
      store_.Match(Resolve(cp.s, in, r), Resolve(cp.p, in, r),
                   Resolve(cp.o, in, r), [&](const rdf::Triple& t) {
                     if (!TickBatch()) {
                       expired = true;
                       return false;
                     }
                     if (repeated.Admits(t)) out->AppendJoinRow(in, r, t, cp);
                     return out->rows() < cap;
                   });
      if (expired) return Expired();
      if (out->rows() >= cap) break;
    }
    return Status::Ok();
  }

  // ---- FILTER expression evaluation ----
  //

  // Three-valued-lite: comparisons involving unbound vars are false.
  bool EvalExprBool(const Expr& e, const ChunkRow& b) const {
    switch (e.op) {
      case ExprOp::kAnd:
        return EvalExprBool(*e.lhs, b) && EvalExprBool(*e.rhs, b);
      case ExprOp::kOr:
        return EvalExprBool(*e.lhs, b) || EvalExprBool(*e.rhs, b);
      case ExprOp::kNot:
        return !EvalExprBool(*e.lhs, b);
      case ExprOp::kBound: {
        auto slot = slots_.Find(e.var.name);
        return slot.has_value() && b[*slot] != kNullTermId;
      }
      case ExprOp::kEq:
      case ExprOp::kNe:
      case ExprOp::kLt:
      case ExprOp::kLe:
      case ExprOp::kGt:
      case ExprOp::kGe:
        return EvalComparison(e, b);
      case ExprOp::kVar: {
        auto slot = slots_.Find(e.var.name);
        if (!slot.has_value() || b[*slot] == kNullTermId) return false;
        return TermOf(b[*slot]).value == "true";
      }
      case ExprOp::kConstant:
        return e.constant.value == "true";
      case ExprOp::kRegex: {
        std::optional<Term> subject = EvalOperand(*e.lhs, b);
        std::optional<Term> pattern = EvalOperand(*e.rhs, b);
        if (!subject.has_value() || !pattern.has_value()) return false;
        // Construction failures (bad patterns) evaluate to false rather
        // than erroring, matching FILTER error semantics.
        std::regex re;
        if (auto status = CompileRegex(pattern->value, &re); !status) {
          return false;
        }
        return std::regex_search(subject->value, re);
      }
      case ExprOp::kContains: {
        std::optional<Term> hay = EvalOperand(*e.lhs, b);
        std::optional<Term> needle = EvalOperand(*e.rhs, b);
        if (!hay.has_value() || !needle.has_value()) return false;
        return hay->value.find(needle->value) != std::string::npos;
      }
      case ExprOp::kIsIri: {
        std::optional<Term> t = EvalOperand(*e.lhs, b);
        return t.has_value() && t->IsIri();
      }
      case ExprOp::kIsLiteral: {
        std::optional<Term> t = EvalOperand(*e.lhs, b);
        return t.has_value() && t->IsLiteral();
      }
      case ExprOp::kStr:
      case ExprOp::kLang: {
        std::optional<Term> t = EvalOperand(e, b);
        return t.has_value() && !t->value.empty();
      }
    }
    return false;
  }

  static bool CompileRegex(const std::string& pattern, std::regex* out) {
    try {
      *out = std::regex(pattern, std::regex::ECMAScript);
      return true;
    } catch (const std::regex_error&) {
      return false;
    }
  }

  std::optional<Term> EvalOperand(const Expr& e, const ChunkRow& b) const {
    if (e.op == ExprOp::kConstant) return e.constant;
    if (e.op == ExprOp::kVar) {
      auto slot = slots_.Find(e.var.name);
      if (!slot.has_value() || b[*slot] == kNullTermId) return std::nullopt;
      return TermOf(b[*slot]);
    }
    if (e.op == ExprOp::kStr) {
      std::optional<Term> inner = EvalOperand(*e.lhs, b);
      if (!inner.has_value()) return std::nullopt;
      return rdf::StringLiteral(inner->value);
    }
    if (e.op == ExprOp::kLang) {
      std::optional<Term> inner = EvalOperand(*e.lhs, b);
      if (!inner.has_value() || !inner->IsLiteral()) return std::nullopt;
      return rdf::StringLiteral(inner->lang);
    }
    return std::nullopt;
  }

  static bool IsNumeric(const Term& t, double* out) {
    if (!t.IsLiteral()) return false;
    const char* begin = t.value.c_str();
    char* end = nullptr;
    double v = std::strtod(begin, &end);
    if (end == begin || *end != '\0') return false;
    *out = v;
    return true;
  }

  bool EvalComparison(const Expr& e, const ChunkRow& b) const {
    std::optional<Term> lhs = EvalOperand(*e.lhs, b);
    std::optional<Term> rhs = EvalOperand(*e.rhs, b);
    if (!lhs.has_value() || !rhs.has_value()) return false;
    int cmp;
    double lv, rv;
    if (IsNumeric(*lhs, &lv) && IsNumeric(*rhs, &rv)) {
      cmp = lv < rv ? -1 : (lv > rv ? 1 : 0);
    } else {
      cmp = lhs->value.compare(rhs->value);
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      // Equality additionally requires the same kind for non-numeric terms.
      if (cmp == 0 && lhs->kind != rhs->kind) cmp = 1;
    }
    switch (e.op) {
      case ExprOp::kEq:
        return cmp == 0;
      case ExprOp::kNe:
        return cmp != 0;
      case ExprOp::kLt:
        return cmp < 0;
      case ExprOp::kLe:
        return cmp <= 0;
      case ExprOp::kGt:
        return cmp > 0;
      case ExprOp::kGe:
        return cmp >= 0;
      default:
        return false;
    }
  }
  // ---- Projection ----

  // The aggregate proper, over the operand values (in row order, distinct
  // already applied).
  Term AggregateFromValues(const Aggregate& agg,
                           const std::vector<TermId>& values) const {
    switch (agg.op) {
      case Aggregate::Op::kCount:
        return rdf::IntLiteral(static_cast<int64_t>(values.size()));
      case Aggregate::Op::kMin:
      case Aggregate::Op::kMax: {
        std::optional<TermId> best;
        std::optional<double> best_num;
        for (TermId id : values) {
          const Term& t = TermOf(id);
          double v;
          bool numeric = IsNumeric(t, &v);
          if (!best.has_value()) {
            best = id;
            if (numeric) best_num = v;
            continue;
          }
          bool better;
          if (numeric && best_num.has_value()) {
            better = agg.op == Aggregate::Op::kMin ? v < *best_num
                                                   : v > *best_num;
          } else {
            const Term& bt = TermOf(*best);
            better = agg.op == Aggregate::Op::kMin ? t.value < bt.value
                                                   : t.value > bt.value;
          }
          if (better) {
            best = id;
            best_num = numeric ? std::optional<double>(v) : std::nullopt;
          }
        }
        if (!best.has_value()) return rdf::IntLiteral(0);
        return TermOf(*best);
      }
      case Aggregate::Op::kSum:
      case Aggregate::Op::kAvg: {
        double sum = 0.0;
        size_t n = 0;
        bool integral = true;
        for (TermId id : values) {
          const Term& t = TermOf(id);
          double v;
          if (!IsNumeric(t, &v)) continue;
          if (t.datatype != rdf::vocab::kXsdInteger) integral = false;
          sum += v;
          ++n;
        }
        if (agg.op == Aggregate::Op::kAvg) {
          return rdf::DoubleLiteral(n == 0 ? 0.0 : sum / double(n));
        }
        if (integral) return rdf::IntLiteral(static_cast<int64_t>(sum));
        return rdf::DoubleLiteral(sum);
      }
    }
    return rdf::IntLiteral(0);
  }
  // Evaluates one aggregate over the solution batch, reading the slot's
  // column directly.
  Term EvalAggregate(const Aggregate& agg, const Chunk& chunk) const {
    auto slot = slots_.Find(agg.var.name);
    std::vector<TermId> values;
    if (slot.has_value()) {
      const std::vector<TermId>& col = chunk.Col(*slot);
      std::unordered_set<TermId> seen;
      for (size_t r = 0; r < chunk.rows(); ++r) {
        if (col[r] == kNullTermId) continue;
        if (agg.distinct && !seen.insert(col[r]).second) continue;
        values.push_back(col[r]);
      }
    }
    return AggregateFromValues(agg, values);
  }

  // ORDER BY comparison of two bound-or-unbound values: -1, 0 or 1.  A
  // total preorder: unbound sorts first, then numeric literals by value
  // (equal values by lexical form), then every other term by lexical
  // form.  NaN ("NaN", "nan") is not a number here: it compares unequal
  // to everything, which would break the order.  Terms with equal sort
  // keys compare 0 and fall through to the next ORDER BY key.
  int CompareForOrder(TermId a, TermId b) const {
    if (a == b) return 0;
    if (a == kNullTermId) return -1;
    if (b == kNullTermId) return 1;
    const Term ta = TermOf(a);
    const Term tb = TermOf(b);
    double va, vb;
    const bool na = IsNumeric(ta, &va) && !std::isnan(va);
    const bool nb = IsNumeric(tb, &vb) && !std::isnan(vb);
    if (na != nb) return na ? -1 : 1;
    if (na && va != vb) return va < vb ? -1 : 1;
    const int cmp = ta.value.compare(tb.value);
    return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  }

  StatusOr<ResultSet> Project(const Query& query, const Chunk& chunk) {
    // Aggregates: single-row result over the whole solution set.
    if (!query.aggregates.empty()) {
      std::vector<std::string> cols;
      Row out_row;
      for (const Aggregate& agg : query.aggregates) {
        cols.push_back(agg.alias.name);
        out_row.push_back(EvalAggregate(agg, chunk));
      }
      ResultSet rs(std::move(cols));
      rs.AddRow(std::move(out_row));
      return rs;
    }

    // Row visiting order: solution order, stably sorted by ORDER BY.
    std::vector<size_t> order(chunk.rows());
    std::iota(order.begin(), order.end(), size_t{0});
    if (!query.order_by.empty()) {
      std::vector<std::pair<size_t, bool>> keys;  // (slot, descending)
      for (const OrderKey& key : query.order_by) {
        auto slot = slots_.Find(key.var.name);
        if (slot.has_value()) keys.emplace_back(*slot, key.descending);
      }
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (const auto& [slot, desc] : keys) {
          const int cmp = CompareForOrder(chunk.At(a, slot), chunk.At(b, slot));
          if (cmp != 0) return desc ? cmp > 0 : cmp < 0;
        }
        return false;
      });
    }

    // Column list.
    std::vector<std::string> cols;
    std::vector<size_t> col_slots;
    if (query.select_all) {
      // All pattern variables in first-appearance order (SlotMap does not
      // keep reverse order; re-derive names by walking the group in the
      // same order CollectVars did).
      std::vector<std::string> names;
      CollectVarNames(query.where, &names);
      for (const std::string& name : names) {
        cols.push_back(name);
        col_slots.push_back(*slots_.Find(name));
      }
    } else {
      for (const Var& v : query.select_vars) {
        cols.push_back(v.name);
        col_slots.push_back(slots_.SlotOf(v.name));
      }
    }

    ResultSet rs(cols);
    std::set<std::vector<TermId>> seen;
    size_t skipped = 0;
    for (size_t r : order) {
      std::vector<TermId> key;
      key.reserve(col_slots.size());
      for (size_t slot : col_slots) key.push_back(chunk.At(r, slot));
      if (query.distinct) {
        if (!seen.insert(key).second) continue;
      }
      if (skipped < query.offset) {
        ++skipped;
        continue;
      }
      Row row;
      row.reserve(col_slots.size());
      for (TermId id : key) {
        if (id == kNullTermId) {
          row.push_back(std::nullopt);
        } else {
          row.push_back(TermOf(id));
        }
      }
      rs.AddRow(std::move(row));
      if (query.limit > 0 && rs.NumRows() >= query.limit) break;
    }
    return rs;
  }

  // Collects variable names in first-appearance order (matches SlotMap
  // insertion order for the same traversal).
  static void CollectVarNames(const GroupGraphPattern& group,
                              std::vector<std::string>* names) {
    auto visit = [&](const TermOrVar& tv) {
      if (IsVar(tv)) {
        const std::string& n = AsVar(tv).name;
        if (std::find(names->begin(), names->end(), n) == names->end()) {
          names->push_back(n);
        }
      }
    };
    for (const TriplePattern& tp : group.triples) {
      visit(tp.s);
      visit(tp.p);
      visit(tp.o);
    }
    auto visit_var = [&](const Var& v) {
      if (std::find(names->begin(), names->end(), v.name) == names->end()) {
        names->push_back(v.name);
      }
    };
    for (const TextPattern& tp : group.text_patterns) {
      visit_var(tp.var);
    }
    for (const InlineValues& iv : group.values) {
      visit_var(iv.var);
    }
    for (const GroupGraphPattern& opt : group.optionals) {
      CollectVarNames(opt, names);
    }
    for (const auto& branches : group.unions) {
      for (const GroupGraphPattern& branch : branches) {
        CollectVarNames(branch, names);
      }
    }
  }

  const StoreT& store_;
  const text::TextIndex& text_index_;
  const EvalOptions& options_;
  SlotMap slots_;
  // Query-local dictionary overlay for VALUES terms absent from the store
  // (their ids live above dictionary().MaxId(); see InternValue/TermOf).
  std::vector<Term> overlay_terms_;
  std::unordered_map<std::string, TermId> overlay_ids_;
  size_t steps_ = 0;
  size_t work_ = 0;  // Work units since the last batch boundary.
  size_t batches_ = 0;
  size_t planned_groups_ = 0;
  size_t reordered_plans_ = 0;
  // Set when a stage reached max_rows and so may have dropped rows; the
  // OPTIONAL left join reads it per row (see EvalGroupChunked).
  bool capped_ = false;
  // EXPLAIN ANALYZE: the calling thread's operator-stats sink (owned by
  // the engine) and the once-per-query analyze decision.
  EvalProfile* profile_ = nullptr;
  bool analyze_ = false;
};

// One evaluation, generic over the store.  Both public overloads land
// here; the registry counters resolve to the same entries either way, so
// v1 and compact endpoints share one metric namespace.
template <typename StoreT>
StatusOr<ResultSet> EvaluateImpl(const Query& query, const StoreT& store,
                                 const text::TextIndex& text_index,
                                 const EvalOptions& options) {
  // Registry instrumentation: evaluation volume and result-set sizes
  // (bucket bounds are row counts, not latencies).
  static obs::Counter& evaluations =
      obs::MetricsRegistry::Global().GetCounter("sparql.evaluator.evaluations");
  static obs::Histogram& result_rows =
      obs::MetricsRegistry::Global().GetHistogram(
          "sparql.evaluator.result_rows",
          {0.0, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0});
  evaluations.Add(1);
  Evaluator<StoreT> evaluator(store, text_index, options);
  StatusOr<ResultSet> result = evaluator.Run(query);
  if (result.ok() && !result->is_ask()) {
    result_rows.Record(double(result->NumRows()));
  }
  if (evaluator.planned_groups() > 0) {
    // Join-planner instrumentation, multi-pattern groups only: the
    // single-pattern linking probes keep their pre-existing metric set.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& plan_groups =
        registry.GetCounter("sparql.plan.groups");
    static obs::Counter& plan_reordered =
        registry.GetCounter("sparql.plan.reordered");
    plan_groups.Add(evaluator.planned_groups());
    if (evaluator.reordered_plans() > 0) {
      plan_reordered.Add(evaluator.reordered_plans());
    }
  }
  if (evaluator.steps() > 0) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter& steps = registry.GetCounter("sparql.eval.batch.steps");
    static obs::Counter& batches =
        registry.GetCounter("sparql.eval.batch.batches");
    steps.Add(evaluator.steps());
    if (evaluator.batches() > 0) {
      batches.Add(evaluator.batches());
      if (obs::Trace* trace = obs::CurrentTrace()) {
        trace->AddCounter(obs::TraceCounter::kEvalBatches,
                          evaluator.batches());
      }
    }
  }
  return result;
}

}  // namespace

StatusOr<ResultSet> Evaluate(const Query& query,
                             const store::TripleStore& store,
                             const text::TextIndex& text_index,
                             const EvalOptions& options) {
  return EvaluateImpl(query, store, text_index, options);
}

StatusOr<ResultSet> Evaluate(const Query& query,
                             const store::CompactStore& store,
                             const text::TextIndex& text_index,
                             const EvalOptions& options) {
  return EvaluateImpl(query, store, text_index, options);
}

}  // namespace kgqan::sparql
