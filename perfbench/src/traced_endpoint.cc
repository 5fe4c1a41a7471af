#include "traced_endpoint.h"

#include <chrono>
#include <utility>

#include "golden.h"
#include "obs/trace.h"

namespace kgqan::perfbench {

namespace {

constexpr std::array<const char*, kNumClasses> kClassNames = {
    "text", "pred", "desc", "derive", "select", "ask", "wave"};

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

}  // namespace

const char* QueryClassName(QueryClass cls) {
  return kClassNames[static_cast<size_t>(cls)];
}

bool ParseQueryClass(std::string_view name, QueryClass* cls) {
  for (size_t i = 0; i < kNumClasses; ++i) {
    if (name == kClassNames[i]) {
      *cls = static_cast<QueryClass>(i);
      return true;
    }
  }
  return false;
}

// The prefixes are the exact texts JitLinker and BgpGenerator render.
QueryClass ClassifyQuery(std::string_view sparql) {
  if (StartsWith(sparql, "SELECT ?probe")) return QueryClass::kWave;
  if (sparql.find("<bif:contains>") != std::string_view::npos) {
    return QueryClass::kText;
  }
  if (StartsWith(sparql, "SELECT DISTINCT ?p WHERE")) return QueryClass::kPred;
  if (StartsWith(sparql, "SELECT ?d WHERE")) return QueryClass::kDesc;
  if (StartsWith(sparql, "SELECT DISTINCT ?x WHERE")) {
    return QueryClass::kDerive;
  }
  if (StartsWith(sparql, "ASK")) return QueryClass::kAsk;
  return QueryClass::kSelect;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TracedEndpoint::TracedEndpoint(sparql::Endpoint* inner, bool record_digests)
    : sparql::Endpoint(inner->name(), sparql::EndpointOptions{}),
      inner_(inner),
      record_digests_(record_digests) {}

std::vector<EndpointCall> TracedEndpoint::TakeCalls() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(calls_, {});
}

util::StatusOr<sparql::ResultSet> TracedEndpoint::EvaluateQuery(
    std::string_view sparql) {
  EndpointCall call;
  obs::Trace* trace = obs::CurrentTrace();
  call.trace_id = trace != nullptr ? trace->id() : 0;
  call.cls = ClassifyQuery(sparql);
  call.sparql = std::string(sparql);
  util::StatusOr<sparql::ResultSet> rs = [&] {
    obs::ScopedContext unbound(obs::TraceContext{});
    call.start_ns = NowNanos();
    auto result = inner_->Query(sparql);
    call.end_ns = NowNanos();
    return result;
  }();
  call.ok = rs.ok();
  if (rs.ok()) {
    call.rows = rs->is_ask() ? size_t{1} : rs->NumRows();
    if (record_digests_) call.digest = ResultDigest(*rs);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  calls_.push_back(std::move(call));
  return rs;
}

}  // namespace kgqan::perfbench
