#include "trace_report/trace_report.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "common/table.hpp"

namespace d2dhb::trace_report {

namespace {

/// Recursive-descent JSON reader over one document. Depth-capped so a
/// hostile input cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_space();
    JsonValue value;
    switch (peek()) {
      case '{':
        parse_object(value);
        break;
      case '[':
        parse_array(value);
        break;
      case '"':
        value.type = JsonValue::Type::string;
        value.string = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        value.type = JsonValue::Type::boolean;
        value.boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        value.type = JsonValue::Type::boolean;
        value.boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        value.type = JsonValue::Type::null;
        break;
      default:
        value.type = JsonValue::Type::number;
        value.number = parse_number();
        break;
    }
    --depth_;
    return value;
  }

  void parse_object(JsonValue& value) {
    value.type = JsonValue::Type::object;
    expect('{');
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(':');
      value.object.emplace_back(std::move(key), parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(JsonValue& value) {
    value.type = JsonValue::Type::array;
    expect('[');
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      value.array.push_back(parse_value());
      skip_space();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape digit");
            }
          }
          // UTF-8 encode the basic-multilingual-plane code point
          // (surrogate pairs are not reassembled — trace content is
          // ASCII identifiers, this path exists for well-formedness).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    double out = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, out);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("malformed number");
    }
    return out;
  }

  std::string_view text_;
  std::size_t pos_{0};
  int depth_{0};
};

const JsonValue* events_array(const JsonValue& root,
                              std::vector<std::string>* errors) {
  auto err = [&](const std::string& what) {
    if (errors != nullptr) errors->push_back(what);
  };
  if (root.type != JsonValue::Type::object) {
    err("top level is not an object");
    return nullptr;
  }
  const JsonValue* events = root.find("traceEvents");
  if (events == nullptr) {
    err("missing \"traceEvents\"");
    return nullptr;
  }
  if (events->type != JsonValue::Type::array) {
    err("\"traceEvents\" is not an array");
    return nullptr;
  }
  return events;
}

double number_or(const JsonValue& object, std::string_view key,
                 double fallback) {
  const JsonValue* v = object.find(key);
  return v != nullptr && v->type == JsonValue::Type::number ? v->number
                                                            : fallback;
}

/// How many shards the straggler table prints; the rest are summarized
/// by the totals line above it.
constexpr std::size_t kStragglerRows = 12;

/// Nearest-rank percentile over an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::object) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

Trace parse_trace(std::string_view text) {
  CheckResult check = check_trace(text);
  if (!check.ok) {
    throw std::runtime_error("not a well-formed trace: " +
                             check.errors.front());
  }
  const JsonValue root = parse_json(text);
  Trace trace;
  if (const JsonValue* other = root.find("otherData")) {
    trace.workers =
        static_cast<std::size_t>(number_or(*other, "workers", 0.0));
    trace.shards = static_cast<std::size_t>(number_or(*other, "shards", 0.0));
  }
  const JsonValue* events = events_array(root, nullptr);
  for (const JsonValue& e : events->array) {
    const JsonValue* ph = e.find("ph");
    if (ph->string != "X") {
      ++trace.metadata_events;
      continue;
    }
    TraceEvent out;
    out.name = e.find("name")->string;
    out.pid = static_cast<std::int64_t>(number_or(e, "pid", 0.0));
    out.tid = static_cast<std::int64_t>(number_or(e, "tid", 0.0));
    out.ts_us = number_or(e, "ts", 0.0);
    out.dur_us = number_or(e, "dur", 0.0);
    if (const JsonValue* args = e.find("args")) {
      out.shard = static_cast<std::int64_t>(number_or(*args, "shard", -1.0));
      for (const char* key : {"events", "window", "round"}) {
        if (const JsonValue* v = args->find(key)) {
          if (v->type == JsonValue::Type::number && v->number >= 0.0) {
            out.payload = static_cast<std::uint64_t>(v->number);
          }
          break;
        }
      }
    }
    trace.events.push_back(std::move(out));
  }
  return trace;
}

CheckResult check_trace(std::string_view text) {
  CheckResult result;
  auto err = [&result](const std::string& what) {
    result.ok = false;
    if (result.errors.size() < 20) result.errors.push_back(what);
  };
  JsonValue root;
  try {
    root = parse_json(text);
  } catch (const std::runtime_error& e) {
    err(e.what());
    return result;
  }
  std::vector<std::string> shape_errors;
  const JsonValue* events = events_array(root, &shape_errors);
  for (const std::string& e : shape_errors) err(e);
  if (events == nullptr) return result;
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& e = events->array[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (e.type != JsonValue::Type::object) {
      err(at + " is not an object");
      continue;
    }
    const JsonValue* ph = e.find("ph");
    if (ph == nullptr || ph->type != JsonValue::Type::string) {
      err(at + " has no string \"ph\"");
      continue;
    }
    if (ph->string != "X") {
      // Metadata and other phase types pass through unvalidated — the
      // engine only writes M besides X, but foreign tools add more.
      ++result.metadata_events;
      continue;
    }
    const JsonValue* name = e.find("name");
    if (name == nullptr || name->type != JsonValue::Type::string) {
      err(at + " complete event has no string \"name\"");
      continue;
    }
    bool fields_ok = true;
    for (const char* key : {"ts", "dur", "pid", "tid"}) {
      const JsonValue* v = e.find(key);
      if (v == nullptr || v->type != JsonValue::Type::number) {
        err(at + " complete event has no numeric \"" + key + "\"");
        fields_ok = false;
      }
    }
    if (!fields_ok) continue;
    if (e.find("dur")->number < 0.0) {
      err(at + " has negative duration");
      continue;
    }
    ++result.complete_events;
  }
  if (result.ok && result.complete_events == 0) {
    err("trace has no complete (ph:\"X\") events");
  }
  return result;
}

Report analyze(const Trace& trace) {
  Report report;
  report.workers = trace.workers;
  report.shards = trace.shards;
  std::vector<double> waits_us;
  std::vector<double> shard_busy_us;
  std::vector<std::uint64_t> shard_events;
  auto shard_slot = [&](std::int64_t shard) -> std::size_t {
    const auto index = static_cast<std::size_t>(shard);
    if (index >= shard_busy_us.size()) {
      shard_busy_us.resize(index + 1, 0.0);
      shard_events.resize(index + 1, 0);
    }
    return index;
  };
  for (const TraceEvent& e : trace.events) {
    // Worker-side tracks only: pid 2 duplicates execute spans on the
    // shard tracks, counting those would double every phase total.
    if (e.pid != 1) continue;
    if (e.name == "window") {
      ++report.windows;
      report.windowed_ms += e.dur_us / 1000.0;
    } else if (e.name == "execute") {
      report.execute_ms += e.dur_us / 1000.0;
      if (e.shard >= 0) {
        const std::size_t slot = shard_slot(e.shard);
        shard_busy_us[slot] += e.dur_us;
        shard_events[slot] += e.payload;
      }
    } else if (e.name == "barrier-wait") {
      report.barrier_wait_ms += e.dur_us / 1000.0;
      waits_us.push_back(e.dur_us);
    }
  }
  report.barrier_waits = waits_us.size();
  std::sort(waits_us.begin(), waits_us.end());
  report.barrier_p50_us = percentile(waits_us, 0.50);
  report.barrier_p90_us = percentile(waits_us, 0.90);
  report.barrier_p99_us = percentile(waits_us, 0.99);
  report.barrier_max_us = waits_us.empty() ? 0.0 : waits_us.back();
  double busy_total = 0.0;
  double busy_max = 0.0;
  for (std::size_t shard = 0; shard < shard_busy_us.size(); ++shard) {
    busy_total += shard_busy_us[shard];
    busy_max = std::max(busy_max, shard_busy_us[shard]);
    report.stragglers.push_back(
        Report::ShardRow{static_cast<std::int64_t>(shard),
                         shard_busy_us[shard] / 1000.0,
                         shard_events[shard], 0.0});
  }
  if (busy_total > 0.0) {
    for (Report::ShardRow& row : report.stragglers) {
      row.share = row.busy_ms * 1000.0 / busy_total;
    }
    const double mean =
        busy_total / static_cast<double>(shard_busy_us.size());
    report.load_imbalance = busy_max / mean;
  }
  std::stable_sort(report.stragglers.begin(), report.stragglers.end(),
                   [](const Report::ShardRow& a, const Report::ShardRow& b) {
                     return a.busy_ms > b.busy_ms;
                   });
  if (report.workers > 0 && report.windowed_ms > 0.0) {
    report.window_utilization =
        report.execute_ms /
        (report.windowed_ms * static_cast<double>(report.workers));
  }
  return report;
}

void print_report(const Report& report, std::ostream& os) {
  os << "Engine trace: " << report.workers << " worker"
     << (report.workers == 1 ? "" : "s") << ", " << report.shards
     << " shards, " << report.windows << " round"
     << (report.windows == 1 ? "" : "s") << "\n"
     << "  rounds " << Table::num(report.windowed_ms, 1) << " ms\n"
     << "  phases: execute " << Table::num(report.execute_ms, 1)
     << " ms, barrier wait " << Table::num(report.barrier_wait_ms, 1)
     << " ms\n"
     << "  round utilization "
     << Table::num(100.0 * report.window_utilization, 1)
     << "%, load imbalance (max/mean shard busy) "
     << Table::num(report.load_imbalance, 2) << "\n"
     << "  barrier waits (us): p50 " << Table::num(report.barrier_p50_us, 0)
     << ", p90 " << Table::num(report.barrier_p90_us, 0) << ", p99 "
     << Table::num(report.barrier_p99_us, 0) << ", max "
     << Table::num(report.barrier_max_us, 0) << " (" << report.barrier_waits
     << " waits)\n\n";
  Table table{{"Shard", "Busy (ms)", "Events", "Share"}};
  const std::size_t rows = std::min<std::size_t>(report.stragglers.size(),
                                                 kStragglerRows);
  for (std::size_t i = 0; i < rows; ++i) {
    const Report::ShardRow& row = report.stragglers[i];
    table.add_row({std::to_string(row.shard), Table::num(row.busy_ms, 2),
                   std::to_string(row.events),
                   Table::num(100.0 * row.share, 1) + "%"});
  }
  os << "Straggler table (busiest " << rows << " of "
     << report.stragglers.size() << " shards):\n";
  table.print(os);
}

}  // namespace d2dhb::trace_report
