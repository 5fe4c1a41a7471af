// Evaluation-speed dashboard: single-query latency of candidate-shaped and
// whole-KG SPARQL queries on the MAG-style KG, one column per store
// backend — v1 (sorted permutation arrays) and compact (dictionary-
// compressed CSR) — plus the index-build and snapshot satellites that ride
// on the same stores.
//
// Every query is checked before its timing is reported: the compact
// store must answer byte-identically to v1, and v1's rows must equal the
// test-only nested-loop reference evaluator's (tests/reference_
// evaluator.h; its row count is printed next to the timings).
// `--json=out.json` writes a machine-readable summary the CI smoke job
// checks.  Numbers depend on the machine's core count (printed in the
// header).

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "benchgen/kg.h"
#include "rdf/term.h"
#include "reference_evaluator.h"
#include "sparql/endpoint.h"
#include "sparql/parser.h"
#include "sparql/result_set.h"
#include "store/compact_store.h"
#include "store/triple_store.h"
#include "util/stopwatch.h"

namespace {

using kgqan::sparql::ResultSet;

bool SameResults(const ResultSet& a, const ResultSet& b) {
  return a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
         a.columns() == b.columns() && a.rows() == b.rows();
}

// Row multiset of a result, rendered one string per row.
std::vector<std::string> RowMultiset(const ResultSet& rs) {
  std::vector<std::string> rows;
  for (const auto& row : rs.rows()) {
    std::string line;
    for (const auto& cell : row) {
      line += cell.has_value() ? kgqan::rdf::ToNTriples(*cell) : "_";
      line += '\t';
    }
    rows.push_back(std::move(line));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool SameRowMultiset(const ResultSet& a, const ResultSet& b) {
  return a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
         a.columns() == b.columns() && RowMultiset(a) == RowMultiset(b);
}

// The reference evaluator gives up past this many live solutions; the
// query's reference column then reads "n/a".
constexpr size_t kReferenceBudget = 2'000'000;

}  // namespace

int main(int argc, char** argv) {
  using namespace kgqan;
  const double scale = bench::ParseScale(argc, argv);
  const std::string json_path = bench::ParseFlag(argc, argv, "json");
  // Best-of-kReps per cell; `--reps=N` raises it so the CI smoke job sees
  // the converged floor of both columns, not scheduler noise.
  const std::string reps_flag = bench::ParseFlag(argc, argv, "reps");
  const int kReps = reps_flag.empty() ? 5 : std::stoi(reps_flag);

  std::printf("Evaluation per store: v1 vs compact "
              "(hardware threads on this host: %u)\n",
              std::thread::hardware_concurrency());

  // The MAG-style builder is the largest (~10-100x the general KGs at the
  // same scale), so scans are wide enough to cross many batches.
  benchgen::BuiltKg kg =
      benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale, 42);
  std::printf("KG: %s, %zu triples (scale %.2f)\n", kg.name.c_str(),
              kg.graph.size(), scale);

  // Satellite: parallel TripleStore construction.  The builder is seeded,
  // so regenerating yields the identical graph (rdf::Graph is move-only);
  // only the wall time of the six permutation sorts differs.
  double build_serial_ms = 0.0;
  double build_parallel_ms = 0.0;
  {
    rdf::Graph g = benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale,
                                              42)
                       .graph;
    util::Stopwatch w;
    store::TripleStore serial(std::move(g), /*build_threads=*/1);
    build_serial_ms = w.ElapsedMillis();
  }
  {
    rdf::Graph g = benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale,
                                              42)
                       .graph;
    util::Stopwatch w;
    store::TripleStore parallel(std::move(g), /*build_threads=*/8);
    build_parallel_ms = w.ElapsedMillis();
  }
  std::printf("index build: serial %.1f ms, 8-thread %.1f ms (%.2fx)\n",
              build_serial_ms, build_parallel_ms,
              build_serial_ms / (build_parallel_ms > 0.0 ? build_parallel_ms
                                                         : 1.0));

  // A productive two-hop chain predicate (objects typed like subjects, e.g.
  // paper-cites-paper), and the star hub: the subject type with the most
  // distinct entity-valued predicates, whose top predicates form the
  // common-subject star of a typical LC-QuAD candidate.
  std::string chain_pred;
  size_t chain_facts = 0;
  std::map<std::string, std::map<std::string, size_t>> preds_by_type;
  for (const auto& [key, facts] : kg.facts) {
    if (facts.empty()) continue;
    const benchgen::Fact& f = facts.front();
    if (f.object_type_key.empty()) continue;  // literal objects
    preds_by_type[f.subject.type_key][f.predicate_iri] += facts.size();
    const bool self_typed = f.object_type_key == f.subject.type_key;
    if ((self_typed && (chain_facts == 0 || facts.size() > chain_facts)) ||
        (chain_pred.empty() && !facts.empty())) {
      chain_pred = f.predicate_iri;
      chain_facts = facts.size();
    }
  }
  std::vector<std::string> star_preds;
  for (const auto& [type_key, preds] : preds_by_type) {
    if (preds.size() > star_preds.size()) {
      star_preds.clear();
      for (const auto& [iri, count] : preds) star_preds.push_back(iri);
    }
  }
  if (star_preds.size() > 3) star_preds.resize(3);
  // An entity anchor for the candidate-shaped star: KGQAn's linker always
  // grounds at least one term, so real LC-QuAD candidates enter the join
  // from a selective bound pattern, not a full predicate scan.
  std::string star_anchor;
  if (!star_preds.empty()) {
    for (const auto& [key, facts] : kg.facts) {
      if (!facts.empty() && facts.front().predicate_iri == star_preds[0] &&
          facts.front().object.kind == rdf::TermKind::kIri) {
        star_anchor = facts.front().object.value;
        break;
      }
    }
  }

  struct QuerySpec {
    const char* label;
    std::string text;
  };
  std::vector<QuerySpec> specs = {
      {"count-scan", "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }"},
      {"distinct-pred", "SELECT DISTINCT ?p WHERE { ?s ?p ?o }"},
  };
  if (star_preds.size() >= 2) {
    std::string star = "SELECT (COUNT(?x) AS ?n) WHERE {";
    for (size_t i = 0; i < star_preds.size(); ++i) {
      star += " ?x <" + star_preds[i] + "> ?v" + std::to_string(i) + " .";
    }
    star += " }";
    specs.push_back({"star-hub", std::move(star)});
    if (!star_anchor.empty()) {
      // Candidate-shaped: the anchored pattern is most selective, so the
      // planner enters there and the remaining star edges join a small
      // batch — the shape the engine's generated queries actually have.
      std::string anchored = "SELECT ?x WHERE { ?x <" + star_preds[0] +
                             "> <" + star_anchor + "> .";
      for (size_t i = 1; i < star_preds.size(); ++i) {
        anchored += " ?x <" + star_preds[i] + "> ?v" + std::to_string(i) +
                    " .";
      }
      anchored += " }";
      specs.push_back({"star-anchored", std::move(anchored)});
    }
  }
  if (!chain_pred.empty()) {
    specs.push_back({"chain-2hop",
                     "SELECT (COUNT(?a) AS ?n) WHERE { ?a <" + chain_pred +
                         "> ?b . ?b <" + chain_pred + "> ?c }"});
  }

  sparql::EndpointOptions ep_options;
  ep_options.build_threads = 8;
  sparql::LocalEndpoint ep("mag-eval", std::move(kg.graph), ep_options);
  // Let the joins' intermediate results grow past the default cap so the
  // later steps have real work; identical for both stores.
  ep.mutable_eval_options().max_rows = 4'000'000;

  // The compact-store endpoint over the identical graph (the builder is
  // seeded, so regenerating yields the identical graph).
  double compact_build_ms = 0.0;
  double snapshot_write_ms = 0.0;
  double snapshot_load_ms = 0.0;
  size_t snapshot_bytes = 0;
  std::unique_ptr<sparql::CompactEndpoint> compact_ep;
  {
    rdf::Graph g = benchgen::BuildScholarlyKg(benchgen::KgFlavor::kMag, scale,
                                              42)
                       .graph;
    util::Stopwatch w;
    compact_ep = std::make_unique<sparql::CompactEndpoint>(
        "mag-eval-compact", std::move(g), ep_options);
    compact_build_ms = w.ElapsedMillis();
  }
  compact_ep->mutable_eval_options().max_rows = 4'000'000;
  // Cold-start satellite: persist the store once, then time a pure mmap
  // load of the snapshot against the from-source rebuild above.
  const std::string snap_path = "/tmp/bench_eval_compact.snap";
  {
    util::Stopwatch sw;
    util::Status st = compact_ep->WriteSnapshot(snap_path);
    snapshot_write_ms = sw.ElapsedMillis();
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  {
    util::Stopwatch sw;
    store::CompactStore loaded;
    util::Status st = loaded.LoadSnapshot(snap_path);
    snapshot_load_ms = sw.ElapsedMillis();
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    snapshot_bytes = loaded.index_bytes() + loaded.dict_bytes();
  }
  std::remove(snap_path.c_str());
  std::printf("compact store: build %.1f ms, snapshot write %.1f ms, "
              "mmap load %.2f ms (%.0fx faster than rebuild)\n",
              compact_build_ms, snapshot_write_ms, snapshot_load_ms,
              compact_build_ms /
                  (snapshot_load_ms > 0.0 ? snapshot_load_ms : 0.001));
  const size_t v1_bytes = ep.store().ApproxIndexBytes();
  const size_t compact_bytes = compact_ep->ApproxIndexBytes();
  std::printf("index footprint: v1 %.1f MiB, compact %.1f MiB (%.2fx)\n\n",
              static_cast<double>(v1_bytes) / (1024.0 * 1024.0),
              static_cast<double>(compact_bytes) / (1024.0 * 1024.0),
              static_cast<double>(compact_bytes) /
                  static_cast<double>(v1_bytes));

  const int rule_width = 66;
  bench::PrintRule(rule_width);
  std::printf("%-14s  %10s  %10s  %9s  %10s\n", "query", "v1", "compact",
              "v1/comp", "ref rows");
  bench::PrintRule(rule_width);

  struct Run {
    const char* query;
    const char* store;
    double ms;
    size_t rows;
    long long reference_rows;  // -1: over the reference budget.
  };
  std::vector<Run> runs;
  bool all_identical = true;
  for (const QuerySpec& spec : specs) {
    auto parsed = sparql::ParseQuery(spec.text);
    if (!parsed.ok()) {
      std::printf("query parse failed: %s\n",
                  parsed.status().message().c_str());
      return 1;
    }
    auto reference = reference::ReferenceEvaluate(
        *parsed, ep.store(), ep.text_index(),
        ep.mutable_eval_options().text_candidate_limit, kReferenceBudget);
    if (!reference.ok() &&
        reference.status().code() != util::StatusCode::kOutOfRange) {
      std::printf("reference failed: %s\n",
                  reference.status().message().c_str());
      return 1;
    }
    const long long reference_rows =
        reference.ok() ? static_cast<long long>(reference->NumRows()) : -1;

    sparql::Endpoint* endpoints[2] = {&ep, compact_ep.get()};
    double best_ms[2] = {0, 0};
    size_t rows[2] = {0, 0};
    ResultSet first{std::vector<std::string>{}};
    // Reps alternate between the stores, so a load spike on a busy
    // runner inflates both columns of that rep instead of one.
    for (int rep = 0; rep < kReps; ++rep) {
      for (size_t si = 0; si < 2; ++si) {
        util::Stopwatch w;
        auto rs = endpoints[si]->Query(spec.text);
        double ms = w.ElapsedMillis();
        if (!rs.ok()) {
          std::printf("\nquery failed: %s\n", rs.status().message().c_str());
          return 1;
        }
        rows[si] = rs->is_ask() ? size_t{rs->ask_value()} : rs->NumRows();
        if (rep == 0 && si == 0) {
          if (reference.ok() && !SameRowMultiset(*reference, *rs)) {
            all_identical = false;
          }
          first = std::move(*rs);
        } else if (rep == 0 && !SameResults(first, *rs)) {
          all_identical = false;
        }
        if (rep == 0 || ms < best_ms[si]) best_ms[si] = ms;
      }
    }
    runs.push_back({spec.label, "v1", best_ms[0], rows[0], reference_rows});
    runs.push_back(
        {spec.label, "compact", best_ms[1], rows[1], reference_rows});
    std::printf("%-14s  %7.2f ms  %7.2f ms  %8.2fx  ", spec.label, best_ms[0],
                best_ms[1], best_ms[0] / (best_ms[1] > 0.0 ? best_ms[1] : 1.0));
    if (reference_rows >= 0) {
      std::printf("%10lld\n", reference_rows);
    } else {
      std::printf("%10s\n", "n/a");
    }
  }
  bench::PrintRule(rule_width);
  std::printf("compact identical to v1, v1 equal to the reference: %s\n",
              all_identical ? "yes" : "NO — BUG");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"bench_eval\",\n");
    std::fprintf(out, "  \"scale\": %g,\n  \"triples\": %zu,\n", scale,
                 ep.NumTriples());
    std::fprintf(out, "  \"identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(out, "  \"build_serial_ms\": %.3f,\n", build_serial_ms);
    std::fprintf(out, "  \"build_parallel_ms\": %.3f,\n", build_parallel_ms);
    std::fprintf(out, "  \"store_bytes\": %zu,\n", compact_bytes);
    std::fprintf(out, "  \"v1_store_bytes\": %zu,\n", v1_bytes);
    std::fprintf(out, "  \"compact_build_ms\": %.3f,\n", compact_build_ms);
    std::fprintf(out, "  \"snapshot_write_ms\": %.3f,\n", snapshot_write_ms);
    std::fprintf(out, "  \"snapshot_load_ms\": %.3f,\n", snapshot_load_ms);
    std::fprintf(out, "  \"snapshot_bytes\": %zu,\n", snapshot_bytes);
    std::fprintf(out, "  \"runs\": [\n");
    for (size_t i = 0; i < runs.size(); ++i) {
      std::fprintf(out,
                   "    {\"query\": \"%s\", \"store\": \"%s\", "
                   "\"ms\": %.4f, \"rows\": %zu, \"reference_rows\": %lld}%s\n",
                   runs[i].query, runs[i].store, runs[i].ms, runs[i].rows,
                   runs[i].reference_rows, i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
