#include "serving/request_trace.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/status.h"

namespace cimtpu::serving {

namespace {

/// %.17g round-trips every finite double bit for bit through strtod.
/// Non-finite values are a config error, not a serialization format:
/// "nan"/"inf" would round-trip into a trace no simulator run can have
/// produced (arrivals and deadlines are always finite), so both sides
/// reject them loudly.
void append_number(std::string* out, double value) {
  CIMTPU_CONFIG_CHECK(std::isfinite(value),
                      "request trace values must be finite, got " << value);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

void append_number(std::string* out, std::int64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  out->append(buffer);
}

/// Minimal parser state over one JSONL line.  The grammar is a single flat
/// object of string keys and number values — no nesting, strings, bools —
/// so a hand scanner beats pulling in a JSON dependency.
struct LineScanner {
  const char* cursor;
  const char* line_start;
  std::size_t line_number;

  void skip_spaces() {
    while (*cursor == ' ' || *cursor == '\t') ++cursor;
  }

  [[noreturn]] void fail(const std::string& what) const {
    CIMTPU_CONFIG_CHECK(false, "request trace line "
                                   << line_number << ": " << what
                                   << " (at byte "
                                   << (cursor - line_start) << ")");
    std::abort();  // unreachable: CONFIG_CHECK(false) throws
  }

  void expect(char c) {
    skip_spaces();
    if (*cursor != c) fail(std::string("expected '") + c + "'");
    ++cursor;
  }

  bool consume(char c) {
    skip_spaces();
    if (*cursor != c) return false;
    ++cursor;
    return true;
  }

  std::string key() {
    expect('"');
    const char* begin = cursor;
    while (*cursor != '"' && *cursor != '\0') ++cursor;
    if (*cursor != '"') fail("unterminated key");
    std::string name(begin, cursor);
    ++cursor;
    expect(':');
    return name;
  }

  double number() {
    skip_spaces();
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(cursor, &end);
    if (end == cursor || errno == ERANGE) fail("expected a number");
    // strtod accepts "nan"/"inf"/"infinity": reject them here rather than
    // letting a non-finite arrival time or deadline round-trip into the
    // scheduler, where it would poison every comparison downstream.
    if (!std::isfinite(value)) fail("non-finite number");
    cursor = end;
    return value;
  }
};

Request parse_line(const char* line, std::size_t line_number) {
  LineScanner scan{line, line, line_number};
  Request request;
  scan.expect('{');
  if (!scan.consume('}')) {
    do {
      const std::string key = scan.key();
      const double value = scan.number();
      bool known = false;
      for_each_field<Request>([&](const auto& entry) {
        if (key != entry.name) return;
        auto& member = request.*entry.member;
        member = static_cast<std::decay_t<decltype(member)>>(value);
        known = true;
      });
      if (!known) scan.fail("unknown key \"" + key + "\"");
    } while (scan.consume(','));
    scan.expect('}');
  }
  scan.skip_spaces();
  if (*scan.cursor != '\0') scan.fail("trailing garbage after object");
  return request;
}

}  // namespace

std::string request_trace_jsonl(const std::vector<Request>& requests) {
  std::string out;
  out.reserve(requests.size() * 96);
  for (const Request& request : requests) {
    const char* separator = "{\"";
    for_each_field<Request>([&](const auto& entry) {
      out.append(separator).append(entry.name).append("\": ");
      append_number(&out, request.*entry.member);
      separator = ", \"";
    });
    out += "}\n";
  }
  return out;
}

std::vector<Request> parse_request_trace_jsonl(const std::string& text) {
  std::vector<Request> requests;
  std::size_t line_number = 0;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string::npos) end = text.size();
    ++line_number;
    std::string line = text.substr(begin, end - begin);
    begin = end + 1;
    // Tolerate blank lines and \r\n traces from other platforms.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    bool blank = true;
    for (char c : line) {
      if (c != ' ' && c != '\t') { blank = false; break; }
    }
    if (blank) continue;
    requests.push_back(parse_line(line.c_str(), line_number));
    if (requests.size() > 1) {
      const Request& prev = requests[requests.size() - 2];
      const Request& curr = requests.back();
      CIMTPU_CONFIG_CHECK(
          curr.arrival_time >= prev.arrival_time,
          "request trace line " << line_number
                                << ": arrivals out of order ("
                                << curr.arrival_time << " after "
                                << prev.arrival_time
                                << "); run_serving replays sorted traces");
    }
  }
  return requests;
}

void save_request_trace(const std::string& path,
                        const std::vector<Request>& requests) {
  std::ofstream file(path, std::ios::binary);
  CIMTPU_CONFIG_CHECK(file.good(),
                      "cannot open request trace for writing: " << path);
  const std::string text = request_trace_jsonl(requests);
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  file.flush();
  CIMTPU_CONFIG_CHECK(file.good(),
                      "failed writing request trace: " << path);
}

std::vector<Request> load_request_trace(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  CIMTPU_CONFIG_CHECK(file.good(),
                      "cannot open request trace for reading: " << path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  CIMTPU_CONFIG_CHECK(!file.bad(), "failed reading request trace: " << path);
  return parse_request_trace_jsonl(buffer.str());
}

}  // namespace cimtpu::serving
