#include "report.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "obs/json_util.h"

namespace kgqan::perfbench {

namespace {

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::Fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
}

void Report::Note(const std::string& key, const std::string& value) {
  SetNote(key, obs::JsonString(value));
}

void Report::Note(const std::string& key, double value) {
  SetNote(key, Number(value));
}

void Report::SetNote(const std::string& key, std::string json) {
  for (auto& [k, v] : notes_) {
    if (k == key) {
      v = std::move(json);
      return;
    }
  }
  notes_.emplace_back(key, std::move(json));
}

void Report::Print(size_t attempted, size_t failed) {
  std::string prov = "{\"provenance\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) prov += ", ";
    prov += obs::JsonString(notes_[i].first) + ": " + notes_[i].second;
  }
  prov += "}}";
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += obs::JsonString(metrics_[i].name) + ": {\"value\": " +
           Number(metrics_[i].value) +
           ", \"unit\": " + obs::JsonString(metrics_[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n%s\n", prov.c_str(), out.c_str());
  std::fflush(stdout);
}

}  // namespace kgqan::perfbench
