// Concurrency battery for columnar evaluation (run under TSan in CI):
// many client threads push queries through one endpoint — alone, under
// deadline storms, and racing live AddNTriples updates — while per-batch
// cancellation and the answer cache's generation discipline are
// exercised.  Every successful concurrent result must equal the
// single-threaded reference evaluation, and a deadline that expires
// mid-scan must be observed at a batch boundary, never by returning a
// truncated "success".

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/kg.h"
#include "core/answer_cache.h"
#include "rdf/graph.h"
#include "sparql/canonical.h"
#include "sparql/endpoint.h"
#include "sparql/evaluator.h"
#include "sparql/parser.h"
#include "sparql/result_set.h"
#include "util/cancel.h"
#include "util/status.h"

namespace kgqan::sparql {
namespace {

bool SameResults(const ResultSet& a, const ResultSet& b) {
  return a.is_ask() == b.is_ask() && a.ask_value() == b.ask_value() &&
         a.columns() == b.columns() && a.rows() == b.rows();
}

// Queries with wide scans (so batches engage) and distinct shapes (so
// cross-wired results would be detected).
std::vector<std::string> BatchHappyQueries() {
  return {
      "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 50",
      "SELECT DISTINCT ?p WHERE { ?s ?p ?o }",
      "SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }",
      "SELECT ?a ?b WHERE { ?a ?p ?b . ?b ?q ?c } LIMIT 25",
      "ASK { ?s ?p ?o }",
  };
}

TEST(EvalVectorizedConcurrencyTest, ConcurrentVectorizedQueriesMatchSerial) {
  benchgen::BuiltKg kg =
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kDbpedia, 0.05, 4321);
  LocalEndpoint ep("vec-conc", std::move(kg.graph));
  // Configuration phase (before any query): batches of an odd width.
  ep.mutable_eval_options().batch_size = 7;

  const std::vector<std::string> queries = BatchHappyQueries();
  std::vector<ResultSet> reference;
  for (const std::string& q : queries) {
    auto parsed = ParseQuery(q);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    auto rs = Evaluate(*parsed, ep.store(), ep.text_index(), EvalOptions{});
    ASSERT_TRUE(rs.ok()) << rs.status();
    reference.push_back(std::move(*rs));
  }

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 20;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        size_t which = (c + i) % queries.size();
        auto rs = ep.Query(queries[which]);
        if (!rs.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!SameResults(reference[which], *rs)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ep.query_count(), kClients * kPerClient);
}

TEST(EvalVectorizedConcurrencyTest, DeadlineStormNeverCorruptsResults) {
  benchgen::BuiltKg kg =
      benchgen::BuildGeneralKg(benchgen::KgFlavor::kYago, 0.05, 86);
  LocalEndpoint ep("vec-storm", std::move(kg.graph));
  // Batch boundary after every work unit.
  ep.mutable_eval_options().batch_size = 1;
  // Slow every batch so short deadlines reliably land mid-scan.
  ep.mutable_eval_options().testing_batch_delay_us = 20;

  const std::string query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 40";
  auto parsed = ParseQuery(query);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto reference =
      Evaluate(*parsed, ep.store(), ep.text_index(), EvalOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status();

  constexpr size_t kClients = 6;
  constexpr size_t kPerClient = 12;
  std::atomic<size_t> ok_mismatches{0};
  std::atomic<size_t> wrong_errors{0};
  std::atomic<size_t> deadline_hits{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = 0; i < kPerClient; ++i) {
        // Alternate storm deadlines (often expiring mid-scan) with
        // unconstrained requests that must always succeed exactly.
        util::StatusOr<ResultSet> rs = util::Status::Internal("unset");
        if ((c + i) % 2 == 0) {
          util::CancelToken token =
              util::CancelToken::WithDeadlineMillis(0.5 + (i % 3));
          util::ScopedCancelToken bind(token);
          rs = ep.Query(query);
        } else {
          rs = ep.Query(query);
        }
        if (rs.ok()) {
          if (!SameResults(*reference, *rs)) ok_mismatches.fetch_add(1);
        } else if (rs.status().code() ==
                   util::StatusCode::kDeadlineExceeded) {
          deadline_hits.fetch_add(1);
        } else {
          wrong_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // A query either completes byte-identically or reports DeadlineExceeded;
  // a truncated result sneaking out as "ok" is the bug this guards.
  EXPECT_EQ(ok_mismatches.load(), 0u);
  EXPECT_EQ(wrong_errors.load(), 0u);
}

// Mid-scan cancellation: with per-batch injected latency, a short deadline
// must be observed at a batch boundary inside the join kernels —
// surfacing as DeadlineExceeded after the exchange was issued — and
// counted as a cancellation.
TEST(EvalVectorizedConcurrencyTest, MidBatchDeadlineCancellationIsObserved) {
  rdf::Graph g;
  for (int i = 0; i < 40; ++i) {
    for (int j = 0; j < 12; ++j) {
      g.AddIris("http://x/s" + std::to_string(i), "http://x/p",
                "http://x/s" + std::to_string((i + j) % 40));
    }
  }
  LocalEndpoint ep("vec-deadline", std::move(g));
  ep.mutable_eval_options().batch_size = 1;
  // Every batch boundary sleeps, so a wildcard join crawls: the 2ms
  // deadline can only be honoured by the per-batch poll.
  ep.mutable_eval_options().testing_batch_delay_us = 200;

  const std::string query =
      "SELECT ?a WHERE { ?a <http://x/p> ?b . ?b <http://x/p> ?c }";
  bool cancelled_mid_batch = false;
  for (int attempt = 0; attempt < 4 && !cancelled_mid_batch; ++attempt) {
    size_t count_before = ep.query_count();
    util::CancelToken token = util::CancelToken::WithDeadlineMillis(2.0);
    util::ScopedCancelToken bind(token);
    auto result = ep.Query(query);
    if (!result.ok() &&
        result.status().code() == util::StatusCode::kDeadlineExceeded &&
        ep.query_count() > count_before) {
      // Counted traffic + DeadlineExceeded = the expiry was observed
      // inside evaluation, between batches.
      cancelled_mid_batch = true;
    }
  }
  EXPECT_TRUE(cancelled_mid_batch)
      << "no run observed the deadline at a batch boundary";
  EXPECT_GT(ep.cancelled_count(), 0u);

  // The same query completes fine without a deadline, and matches an
  // evaluation at the default batch width.
  ep.mutable_eval_options().testing_batch_delay_us = 0;
  auto parsed = ParseQuery(query);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto reference =
      Evaluate(*parsed, ep.store(), ep.text_index(), EvalOptions{});
  ASSERT_TRUE(reference.ok()) << reference.status();
  auto got = ep.Query(query);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_TRUE(SameResults(*reference, *got));
}

TEST(EvalVectorizedConcurrencyTest, RacingUpdatesNeverPolluteAnswerCache) {
  rdf::Graph g;
  for (int i = 0; i < 50; ++i) {
    g.AddIris("http://x/e" + std::to_string(i), "http://x/p",
              "http://x/e" + std::to_string((i + 1) % 50));
  }
  LocalEndpoint ep("vec-update", std::move(g));
  ep.mutable_eval_options().batch_size = 7;
  core::AnswerCache cache(64);

  const std::string query_text =
      "SELECT ?s ?o WHERE { ?s <http://x/p> ?o } LIMIT 30";
  auto parsed = ParseQuery(query_text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  CanonicalForm form = Canonicalize(*parsed);
  ASSERT_TRUE(form.cacheable);

  constexpr size_t kUpdates = 16;
  std::atomic<size_t> failures{0};
  // Writer: live updates whose triples change this very query's answer,
  // bumping the endpoint generation each time.
  std::thread writer([&] {
    for (size_t u = 0; u < kUpdates; ++u) {
      std::string nt = "<http://x/new" + std::to_string(u) +
                       "> <http://x/p> <http://x/e0> .\n";
      auto added = ep.AddNTriples(nt);
      if (!added.ok() || *added != 1) failures.fetch_add(1);
    }
  });
  // Readers: engine discipline — snapshot the generation before executing,
  // and only insert when it is unchanged after, keyed on that snapshot.
  constexpr size_t kReaders = 4;
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        size_t gen_before = ep.generation();
        auto rs = ep.Query(query_text);
        if (!rs.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (ep.generation() != gen_before) continue;  // Moved: never insert.
        std::string identity =
            ep.name() + "#" + std::to_string(gen_before);
        cache.Put(form.key, identity,
                  std::make_shared<const ResultSet>(
                      rs->WithColumns(form.projection_canonical)));
        // A hit under the same identity must echo the inserted rows.
        auto hit = cache.Get(form.key, identity);
        if (hit == nullptr ||
            !SameResults(hit->WithColumns(form.projection_original), *rs)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  ASSERT_EQ(failures.load(), 0u);
  EXPECT_EQ(ep.generation(), kUpdates);

  // Post-race pollution check: whatever the cache holds for the *current*
  // identity must equal a fresh evaluation at the current generation.
  auto fresh = ep.Query(query_text);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  if (auto hit = cache.Get(form.key, ep.cache_identity())) {
    EXPECT_TRUE(
        SameResults(hit->WithColumns(form.projection_original), *fresh));
  }
  // And every stale-generation entry is unreachable through the current
  // identity by construction: a lookup that mixes the key with any older
  // generation string never matches cache_identity().
  EXPECT_NE(ep.cache_identity(), ep.name() + "#0");
}

}  // namespace
}  // namespace kgqan::sparql
