// Bench-side instrumentation of the SPARQL layer: an Endpoint that wraps
// the real one, times every request and classifies it by the shape the
// linker and the BGP generator emit.

#ifndef KGQAN_PERFBENCH_TRACED_ENDPOINT_H_
#define KGQAN_PERFBENCH_TRACED_ENDPOINT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sparql/endpoint.h"

namespace kgqan::perfbench {

// Request shapes of one question, in pipeline order.  kText/kPred/kDesc/
// kDerive/kWave are issued by JitLinker; kSelect/kAsk are candidates.
enum class QueryClass : size_t {
  kText = 0,  // potentialRelevantVertices: <bif:contains> text probe.
  kPred,      // outgoing/incoming predicates of an anchor vertex.
  kDesc,      // description of a cryptic predicate.
  kDerive,    // vertices of an intermediate unknown (path questions).
  kSelect,    // candidate SELECT.
  kAsk,       // candidate ASK.
  kWave,      // batched UNION/VALUES linking wave.
  kCount,
};

inline constexpr size_t kNumClasses = static_cast<size_t>(QueryClass::kCount);

const char* QueryClassName(QueryClass cls);
QueryClass ClassifyQuery(std::string_view sparql);
// Inverse of QueryClassName; false for an unknown name.
bool ParseQueryClass(std::string_view name, QueryClass* cls);
inline bool IsLinkingClass(QueryClass cls) {
  return cls != QueryClass::kSelect && cls != QueryClass::kAsk;
}

// Nanoseconds on the steady clock shared by every bench-side span.
int64_t NowNanos();

// One request seen by the wrapper: a bench-side span.
struct EndpointCall {
  uint64_t trace_id = 0;  // obs::CurrentTrace() of the issuing thread.
  QueryClass cls = QueryClass::kSelect;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  size_t rows = 0;
  bool ok = false;
  std::string sparql;
  uint64_t digest = 0;  // Result digest; only computed when recording.
};

// Forwards every request to `inner` and records an EndpointCall for it.
// The calling thread's trace is unbound around the inner call, so the
// engine's per-question request counters see each request once.
class TracedEndpoint : public sparql::Endpoint {
 public:
  // `record_digests` additionally stores each result's digest (used when
  // writing the replay log).
  TracedEndpoint(sparql::Endpoint* inner, bool record_digests);

  // Calls recorded since the previous Take, in completion order.
  std::vector<EndpointCall> TakeCalls();

  size_t NumTriples() const override { return inner_->NumTriples(); }
  size_t num_store_shards() const override {
    return inner_->num_store_shards();
  }
  void MatchShard(
      size_t shard, rdf::TermId s, rdf::TermId p, rdf::TermId o,
      const std::function<bool(const rdf::Triple&)>& fn) const override {
    inner_->MatchShard(shard, s, p, o, fn);
  }
  rdf::Term StoreTerm(rdf::TermId id) const override {
    return inner_->StoreTerm(id);
  }
  std::optional<rdf::TermId> FindStoreIri(
      std::string_view iri) const override {
    return inner_->FindStoreIri(iri);
  }
  size_t ShardNumTriples(size_t shard) const override {
    return inner_->ShardNumTriples(shard);
  }
  size_t ApproxIndexBytes() const override {
    return inner_->ApproxIndexBytes();
  }

 protected:
  util::StatusOr<sparql::ResultSet> EvaluateQuery(
      std::string_view sparql) override;
  // The benchmark never updates the KG.
  size_t InsertTriples(
      const std::vector<std::array<rdf::Term, 3>>& triples) override {
    (void)triples;
    return 0;
  }

 private:
  sparql::Endpoint* inner_;
  const bool record_digests_;
  std::mutex mutex_;
  std::vector<EndpointCall> calls_;  // Guarded by mutex_.
};

}  // namespace kgqan::perfbench

#endif  // KGQAN_PERFBENCH_TRACED_ENDPOINT_H_
