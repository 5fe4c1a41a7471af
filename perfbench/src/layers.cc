#include "layers.h"

#include <cstdio>
#include <map>
#include <utility>

#include "report.h"
#include "sparql/parser.h"
#include "stats.h"

namespace kgqan::perfbench {

namespace {

constexpr double kNanosPerMs = 1e6;

double Per(double total, size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace

void LayerAccounting::AddResult(size_t kg, const core::KgqanResult& result) {
  ++questions_;
  const core::PhaseTimings& t = result.response.timings;
  qu_ms_ += t.qu_ms;
  link_ms_ += t.linking_ms;
  exec_ms_ += t.execution_ms;
  round_trips_ += static_cast<double>(result.linking_round_trips);
  generated_ += static_cast<double>(result.queries_generated);
  executed_ += static_cast<double>(result.queries_executed);
  for (const core::CandidateQueryStats& c : result.candidates) {
    if (c.executed && c.rows > 0) productive_ += 1.0;
  }
  PerKg& k = per_kg_[kg];
  ++k.questions;
  k.link_ms += t.linking_ms;
}

void LayerAccounting::AddQuestionCalls(size_t kg,
                                       const std::vector<EndpointCall>& calls) {
  std::array<std::vector<std::pair<int64_t, int64_t>>, kNumClasses> by_class;
  std::vector<std::pair<int64_t, int64_t>> linking;
  std::vector<std::pair<int64_t, int64_t>> exec;
  for (const EndpointCall& c : calls) {
    by_class[static_cast<size_t>(c.cls)].emplace_back(c.start_ns, c.end_ns);
    (IsLinkingClass(c.cls) ? linking : exec).emplace_back(c.start_ns, c.end_ns);
    CountCall(c);
  }
  std::array<double, kNumClasses> wait_ms{};
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    wait_ms[cls] = static_cast<double>(UnionNanos(by_class[cls])) / kNanosPerMs;
    class_wait_ms_[cls] += wait_ms[cls];
  }
  const double linking_ms =
      static_cast<double>(UnionNanos(linking)) / kNanosPerMs;
  linking_wait_ms_ += linking_ms;
  exec_wait_ms_ += static_cast<double>(UnionNanos(exec)) / kNanosPerMs;
  PerKg& k = per_kg_[kg];
  k.text_ms += wait_ms[static_cast<size_t>(QueryClass::kText)];
  k.pred_ms += wait_ms[static_cast<size_t>(QueryClass::kPred)];
  k.linking_wait_ms += linking_ms;
  k.text_n += by_class[static_cast<size_t>(QueryClass::kText)].size();
  k.pred_n += by_class[static_cast<size_t>(QueryClass::kPred)].size();
}

void LayerAccounting::AddInterleavedCalls(
    size_t kg, const std::vector<EndpointCall>& calls) {
  std::map<uint64_t, std::vector<EndpointCall>> by_trace;
  for (const EndpointCall& c : calls) by_trace[c.trace_id].push_back(c);
  for (const auto& [trace_id, group] : by_trace) AddQuestionCalls(kg, group);
}

void LayerAccounting::AddReplayCalls(const std::vector<EndpointCall>& calls) {
  for (const EndpointCall& c : calls) CountCall(c);
}

void LayerAccounting::CountCall(const EndpointCall& call) {
  const size_t cls = static_cast<size_t>(call.cls);
  ++class_calls_[cls];
  class_us_[cls].push_back(static_cast<double>(call.end_ns - call.start_ns) /
                           1e3);
  rows_ += static_cast<double>(call.rows);
  ++calls_;
}

void LayerAccounting::TimeParses(const std::vector<EndpointCall>& calls) {
  for (const EndpointCall& c : calls) {
    const int64_t start = NowNanos();
    auto parsed = sparql::ParseQuery(c.sparql);
    const int64_t end = NowNanos();
    if (parsed.ok()) parse_us_.push_back(static_cast<double>(end - start) / 1e3);
  }
}

void LayerAccounting::Emit(
    Report* report,
    const std::array<size_t, kNumClasses>* replay_counts) const {
  const size_t n = questions_;
  const auto text = static_cast<size_t>(QueryClass::kText);
  const auto pred = static_cast<size_t>(QueryClass::kPred);
  const auto desc = static_cast<size_t>(QueryClass::kDesc);
  const auto derive = static_cast<size_t>(QueryClass::kDerive);
  report->Add("qu.ms", Per(qu_ms_, n), "ms");
  report->Add("link.ms", Per(link_ms_, n), "ms");
  report->Add("link.score_ms", Per(link_ms_ - linking_wait_ms_, n), "ms");
  report->Add("link.text_probe.n", Per(double(class_calls_[text]), n),
              "count");
  report->Add("link.text_probe.ms", Per(class_wait_ms_[text], n), "ms");
  report->Add("link.pred_probe.n", Per(double(class_calls_[pred]), n),
              "count");
  report->Add("link.pred_probe.ms", Per(class_wait_ms_[pred], n), "ms");
  report->Add("link.desc_probe.n", Per(double(class_calls_[desc]), n),
              "count");
  report->Add("link.derive.n", Per(double(class_calls_[derive]), n), "count");
  report->Add("link.round_trips", Per(round_trips_, n), "count");
  report->Add("exec.ms", Per(exec_ms_, n), "ms");
  report->Add("exec.query_ms", Per(exec_wait_ms_, n), "ms");
  report->Add("exec.self_ms", Per(exec_ms_ - exec_wait_ms_, n), "ms");
  report->Add("exec.generated", Per(generated_, n), "count");
  report->Add("exec.executed", Per(executed_, n), "count");
  report->Add("exec.productive_frac",
              executed_ > 0.0 ? productive_ / executed_ : 0.0, "frac");
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const std::string prefix =
        std::string("sparql.") + QueryClassName(static_cast<QueryClass>(cls));
    const double count = replay_counts != nullptr
                             ? static_cast<double>((*replay_counts)[cls])
                             : Per(double(class_calls_[cls]), n);
    report->Add(prefix + ".n", count, "count");
    report->Add(prefix + ".p50_us", Percentile(class_us_[cls], 50.0), "us");
  }
  report->Add("sparql.parse_us", Percentile(parse_us_, 50.0), "us");
  report->Add("sparql.rows", Per(rows_, calls_), "rows");
  for (size_t kg = 0; kg < kKgKeys.size(); ++kg) {
    const PerKg& k = per_kg_[kg];
    const std::string prefix = std::string("link.kg.") + kKgKeys[kg];
    report->Add(prefix + ".ms", Per(k.link_ms, k.questions), "ms");
    report->Add(prefix + ".text_ms", Per(k.text_ms, k.questions), "ms");
    report->Add(prefix + ".pred_ms", Per(k.pred_ms, k.questions), "ms");
    report->Add(prefix + ".score_ms",
                Per(k.link_ms - k.linking_wait_ms, k.questions), "ms");
  }
}

void LayerAccounting::PrintKgTable() const {
  std::fprintf(stderr,
               "linking per KG (ms per question; probe columns are wall time "
               "with >= 1 probe of the class in flight)\n"
               "%-8s %6s %9s %9s %7s %9s %7s %9s %9s\n",
               "kg", "qs", "link", "text", "text.n", "pred", "pred.n",
               "other", "score");
  for (size_t kg = 0; kg < kKgKeys.size(); ++kg) {
    const PerKg& k = per_kg_[kg];
    if (k.questions == 0) continue;
    const double q = static_cast<double>(k.questions);
    std::fprintf(stderr, "%-8s %6zu %9.3f %9.3f %7.2f %9.3f %7.2f %9.3f %9.3f\n",
                 kKgKeys[kg], k.questions, k.link_ms / q, k.text_ms / q,
                 static_cast<double>(k.text_n) / q, k.pred_ms / q,
                 static_cast<double>(k.pred_n) / q,
                 (k.linking_wait_ms - k.text_ms - k.pred_ms) / q,
                 (k.link_ms - k.linking_wait_ms) / q);
  }
}

}  // namespace kgqan::perfbench
