#include "golden.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "rdf/term.h"
#include "util/rng.h"

namespace kgqan::perfbench {

namespace {

uint64_t Mix(uint64_t acc, std::string_view part) {
  // FNV-1a over the running value and the part, separated so that
  // ("ab","c") and ("a","bc") differ.
  std::string buf = Hex(acc);
  buf += '\x1f';
  buf += part;
  return util::Fnv1a64(buf);
}

std::string Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

bool Unescape(std::string_view s, std::string* out) {
  out->clear();
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      *out += s[i];
      continue;
    }
    if (++i == s.size()) return false;
    switch (s[i]) {
      case '\\': *out += '\\'; break;
      case 'n': *out += '\n'; break;
      case 't': *out += '\t'; break;
      case 'r': *out += '\r'; break;
      default: return false;
    }
  }
  return true;
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  size_t start = 0;
  while (true) {
    size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return fields;
    start = tab + 1;
  }
}

bool ParseHex(const std::string& s, uint64_t* value) {
  if (s.empty() || s.size() > 16) return false;
  char* end = nullptr;
  *value = std::strtoull(s.c_str(), &end, 16);
  return end == s.c_str() + s.size();
}

bool ParseSize(const std::string& s, size_t* value) {
  if (s.empty() || s.size() > 12) return false;
  char* end = nullptr;
  *value = static_cast<size_t>(std::strtoull(s.c_str(), &end, 10));
  return end == s.c_str() + s.size();
}

// "# <kind> scale=<x>" header shared by both data files.
std::string Header(const char* kind, double scale) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "# kgqan perfbench %s scale=%.6g", kind,
                scale);
  return buf;
}

bool ParseHeader(const std::string& line, const char* kind, double* scale) {
  std::string prefix = std::string("# kgqan perfbench ") + kind + " scale=";
  if (line.compare(0, prefix.size(), prefix) != 0) return false;
  char* end = nullptr;
  *scale = std::strtod(line.c_str() + prefix.size(), &end);
  return *scale > 0.0;
}

}  // namespace

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
  return buf;
}

uint64_t AnswerHash(const core::QaResponse& response) {
  std::vector<std::string> answers;
  answers.reserve(response.answers.size());
  for (const rdf::Term& t : response.answers) {
    answers.push_back(rdf::ToNTriples(t));
  }
  std::sort(answers.begin(), answers.end());
  std::string buf;
  buf += response.understood ? 'u' : '-';
  buf += response.is_boolean ? (response.boolean_answer ? 'T' : 'F') : 's';
  for (const std::string& a : answers) {
    buf += '\x1e';
    buf += a;
  }
  return util::Fnv1a64(buf);
}

uint64_t ResultDigest(const sparql::ResultSet& rs) {
  std::vector<std::string> rows;
  rows.reserve(rs.NumRows());
  for (const sparql::Row& row : rs.rows()) {
    std::string r;
    for (const auto& cell : row) {
      r += cell.has_value() ? rdf::ToNTriples(*cell) : std::string("UNDEF");
      r += '\x1f';
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  uint64_t acc = Mix(0, rs.is_ask() ? (rs.ask_value() ? "ask:1" : "ask:0")
                                    : "select");
  for (const std::string& c : rs.columns()) acc = Mix(acc, c);
  for (const std::string& r : rows) acc = Mix(acc, r);
  return acc;
}

uint64_t PassDigest(const std::vector<std::string>& bench_names,
                    const std::vector<std::vector<uint64_t>>& hashes) {
  uint64_t acc = 0;
  for (size_t b = 0; b < hashes.size(); ++b) {
    for (size_t q = 0; q < hashes[b].size(); ++q) {
      acc = Mix(acc, bench_names[b] + "\x1f" + std::to_string(q) + "\x1f" +
                         Hex(hashes[b][q]));
    }
  }
  return acc;
}

util::Status WriteGolden(const std::string& path,
                         const GoldenAnswers& golden) {
  std::ofstream out(path);
  if (!out) return util::Status::Internal("cannot write " + path);
  out << Header("answers", golden.scale) << "\n";
  for (size_t b = 0; b < golden.hashes.size(); ++b) {
    for (size_t q = 0; q < golden.hashes[b].size(); ++q) {
      out << b << '\t' << q << '\t' << Hex(golden.hashes[b][q]) << '\n';
    }
  }
  return out ? util::Status::Ok() : util::Status::Internal("write failed");
}

util::StatusOr<GoldenAnswers> ReadGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot read " + path);
  GoldenAnswers golden;
  std::string line;
  if (!std::getline(in, line) || !ParseHeader(line, "answers", &golden.scale)) {
    return util::Status::ParseError(path + ": bad header");
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> f = SplitTabs(line);
    size_t b = 0;
    size_t q = 0;
    uint64_t hash = 0;
    if (f.size() != 3 || !ParseSize(f[0], &b) || !ParseSize(f[1], &q) ||
        !ParseHex(f[2], &hash) || b > 64) {
      return util::Status::ParseError(path + ":" + std::to_string(line_no));
    }
    if (golden.hashes.size() <= b) golden.hashes.resize(b + 1);
    if (golden.hashes[b].size() != q) {
      return util::Status::ParseError(path + ": questions out of order");
    }
    golden.hashes[b].push_back(hash);
  }
  return golden;
}

util::Status WriteLog(const std::string& path, const ReplayLog& log) {
  std::ofstream out(path);
  if (!out) return util::Status::Internal("cannot write " + path);
  out << Header("sparql-log", log.scale) << "\n";
  for (const LogEntry& e : log.entries) {
    out << e.kg << '\t' << QueryClassName(e.cls) << '\t' << e.rows << '\t'
        << Hex(e.digest) << '\t' << Escape(e.sparql) << '\n';
  }
  return out ? util::Status::Ok() : util::Status::Internal("write failed");
}

util::StatusOr<ReplayLog> ReadLog(const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::NotFound("cannot read " + path);
  ReplayLog log;
  std::string line;
  if (!std::getline(in, line) ||
      !ParseHeader(line, "sparql-log", &log.scale)) {
    return util::Status::ParseError(path + ": bad header");
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::vector<std::string> f = SplitTabs(line);
    LogEntry e;
    if (f.size() != 5 || !ParseSize(f[0], &e.kg) ||
        !ParseQueryClass(f[1], &e.cls) || !ParseSize(f[2], &e.rows) ||
        !ParseHex(f[3], &e.digest) || !Unescape(f[4], &e.sparql)) {
      return util::Status::ParseError(path + ":" + std::to_string(line_no));
    }
    log.entries.push_back(std::move(e));
  }
  return log;
}

}  // namespace kgqan::perfbench
