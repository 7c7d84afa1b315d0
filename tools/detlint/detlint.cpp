#include "detlint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace d2dhb::detlint {

namespace {

constexpr const char* kUnorderedIter = "unordered-iter";
constexpr const char* kUnorderedState = "unordered-state";
constexpr const char* kWallClock = "wall-clock";
constexpr const char* kLibcRand = "libc-rand";
constexpr const char* kRandomDevice = "random-device";
constexpr const char* kStdRng = "std-rng";
constexpr const char* kPtrKey = "ptr-key";
constexpr const char* kFloatAccum = "float-accum";
constexpr const char* kAllowNoReason = "allow-no-reason";
constexpr const char* kCrossStrip = "cross-strip-access";
constexpr const char* kArenaEscape = "arena-escape";
constexpr const char* kLaneMix = "lane-mix";

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when the token at `pos` is reached through a member or
/// qualifier (`x.token`, `x->token`, `x::token`) — except the `std::`
/// qualifier, which still names the global hazard.
bool member_qualified(const std::string& s, std::size_t pos) {
  if (pos == 0) return false;
  const char prev = s[pos - 1];
  if (prev == '.' || prev == '>') return true;
  if (prev == ':') {
    return !(pos >= 5 && s.compare(pos - 5, 5, "std::") == 0);
  }
  return false;
}

/// Whole-word occurrence check: `source[pos..]` starts with `token` and
/// neither neighbour is a word character.
bool word_at(const std::string& s, std::size_t pos, const std::string& token) {
  if (s.compare(pos, token.size(), token) != 0) return false;
  if (pos > 0 && is_word(s[pos - 1])) return false;
  const std::size_t end = pos + token.size();
  if (end < s.size() && is_word(s[end])) return false;
  return true;
}

/// All whole-word occurrences of `token` in `s`.
std::vector<std::size_t> word_positions(const std::string& s,
                                        const std::string& token) {
  std::vector<std::size_t> out;
  for (std::size_t pos = s.find(token); pos != std::string::npos;
       pos = s.find(token, pos + 1)) {
    if (word_at(s, pos, token)) out.push_back(pos);
  }
  return out;
}

/// True when the '"' at `quote` opens a raw string literal: preceded by
/// `R` with an optional encoding prefix (u8/u/L/U), and the prefix is
/// not the tail of a longer identifier (`FOOR"..."` is not raw).
bool raw_literal_at(const std::string& s, std::size_t quote) {
  if (quote == 0 || s[quote - 1] != 'R') return false;
  std::size_t begin = quote - 1;  // index of 'R'
  if (begin > 0) {
    if (s[begin - 1] == '8' && begin > 1 && s[begin - 2] == 'u') {
      begin -= 2;
    } else if (s[begin - 1] == 'u' || s[begin - 1] == 'L' ||
               s[begin - 1] == 'U') {
      begin -= 1;
    }
  }
  return begin == 0 || !is_word(s[begin - 1]);
}

/// Strips // and /* */ comments plus string and char literals —
/// including raw strings (`R"delim(...)delim"`) and backslash-newline
/// continued line comments — replacing them with spaces so offsets and
/// line numbers survive.
std::string strip_comments_and_strings(const std::string& source,
                                       std::string* kinds = nullptr) {
  std::string out = source;
  if (kinds != nullptr) kinds->assign(source.size(), 'c');
  const auto mark = [kinds](std::size_t at, char kind) {
    if (kinds != nullptr) (*kinds)[at] = kind;
  };
  enum class State { code, line_comment, block_comment, string, chr };
  State state = State::code;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (state) {
      case State::code:
        if (c == '/' && next == '/') {
          state = State::line_comment;
          out[i] = ' ';
          mark(i, 'm');
        } else if (c == '/' && next == '*') {
          state = State::block_comment;
          out[i] = ' ';
          mark(i, 'm');
        } else if (c == '"' && raw_literal_at(source, i)) {
          // Raw string: everything through `)delim"` is literal text —
          // no escapes, quotes don't close it. A malformed delimiter
          // (too long, or holding a forbidden character) falls back to
          // the ordinary string scanner, like a compiler would reject.
          const std::size_t open = source.find('(', i + 1);
          const bool delim_ok =
              open != std::string::npos && open - i - 1 <= 16 &&
              [&] {
                for (std::size_t j = i + 1; j < open; ++j) {
                  const char d = source[j];
                  if (std::isspace(static_cast<unsigned char>(d)) != 0 ||
                      d == ')' || d == '\\' || d == '"') {
                    return false;
                  }
                }
                return true;
              }();
          if (!delim_ok) {
            state = State::string;
            out[i] = ' ';
            break;
          }
          const std::string terminator =
              ")" + source.substr(i + 1, open - i - 1) + "\"";
          const std::size_t close = source.find(terminator, open + 1);
          const std::size_t stop = close == std::string::npos
                                       ? source.size()
                                       : close + terminator.size();
          for (std::size_t j = i; j < stop; ++j) {
            if (out[j] != '\n') {
              out[j] = ' ';
              mark(j, 's');
            }
          }
          i = stop - 1;  // resume in code state after the literal
        } else if (c == '"') {
          state = State::string;
          out[i] = ' ';
          mark(i, 's');
        } else if (c == '\'') {
          state = State::chr;
          out[i] = ' ';
          mark(i, 's');
        }
        break;
      case State::line_comment:
        if (c == '\n') {
          // A backslash-newline splice keeps the comment going on the
          // next physical line. Consult the original text — the copy's
          // backslash has already been blanked.
          std::size_t b = i;
          while (b > 0 && source[b - 1] == '\r') --b;
          if (!(b > 0 && source[b - 1] == '\\')) state = State::code;
        } else {
          out[i] = ' ';
          mark(i, 'm');
        }
        break;
      case State::block_comment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          mark(i, 'm');
          mark(i + 1, 'm');
          ++i;
          state = State::code;
        } else if (c != '\n') {
          out[i] = ' ';
          mark(i, 'm');
        }
        break;
      case State::string:
        if (c == '\\') {
          out[i] = ' ';
          mark(i, 's');
          if (next != '\n') {
            if (i + 1 < out.size()) {
              out[i + 1] = ' ';
              mark(i + 1, 's');
            }
            ++i;
          }
        } else if (c == '"') {
          out[i] = ' ';
          mark(i, 's');
          state = State::code;
        } else if (c != '\n') {
          out[i] = ' ';
          mark(i, 's');
        }
        break;
      case State::chr:
        if (c == '\\') {
          out[i] = ' ';
          mark(i, 's');
          if (i + 1 < out.size() && next != '\n') {
            out[i + 1] = ' ';
            mark(i + 1, 's');
            ++i;
          }
        } else if (c == '\'') {
          out[i] = ' ';
          mark(i, 's');
          state = State::code;
        } else if (c != '\n') {
          out[i] = ' ';
          mark(i, 's');
        }
        break;
    }
  }
  return out;
}

/// Position of the character after the matching closer for the opener
/// at `open` ('<'/'('/'{'), or npos if unbalanced. '>' handling treats
/// every '>' as a closer, which is right for template argument lists.
std::size_t skip_balanced(const std::string& s, std::size_t open,
                          char open_c, char close_c) {
  int depth = 0;
  for (std::size_t i = open; i < s.size(); ++i) {
    if (s[i] == open_c) {
      ++depth;
    } else if (s[i] == close_c) {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::size_t line_of(const std::vector<std::size_t>& line_starts,
                    std::size_t pos) {
  const auto it =
      std::upper_bound(line_starts.begin(), line_starts.end(), pos);
  return static_cast<std::size_t>(it - line_starts.begin());
}

const std::vector<std::string>& unordered_type_tokens() {
  static const std::vector<std::string> tokens{
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return tokens;
}

struct Suppression {
  std::size_t line;  ///< 1-based line the annotation sits on.
  std::vector<std::string> rules;
  std::vector<bool> rule_used;  ///< Parallel to rules: exempted a finding.
  bool has_reason;
};

/// Parses every `detlint: allow(rule, ...)` annotation in the raw
/// (unstripped) source. An annotation only counts when it opens its
/// comment — `kinds` (the stripper's per-byte code/string/comment map)
/// rejects look-alikes inside string literals, and prose that merely
/// mentions the syntax mid-comment is skipped, so documentation never
/// registers as a (stale) suppression.
std::vector<Suppression> parse_suppressions(
    const std::string& source, const std::vector<std::size_t>& line_starts,
    const std::string& kinds) {
  std::vector<Suppression> out;
  const std::string marker = "detlint: allow(";
  for (std::size_t pos = source.find(marker); pos != std::string::npos;
       pos = source.find(marker, pos + 1)) {
    if (pos >= kinds.size() || kinds[pos] != 'm') continue;
    std::size_t begin = pos;
    while (begin > 0 && kinds[begin - 1] == 'm') --begin;
    bool opens_comment = true;
    for (std::size_t j = begin; j < pos; ++j) {
      const char c = source[j];
      if (c != '/' && c != '*' && c != '!' &&
          std::isspace(static_cast<unsigned char>(c)) == 0) {
        opens_comment = false;
        break;
      }
    }
    if (!opens_comment) continue;
    const std::size_t open = pos + marker.size() - 1;
    const std::size_t close = source.find(')', open);
    if (close == std::string::npos) continue;
    Suppression s;
    s.line = line_of(line_starts, pos);
    std::string list = source.substr(open + 1, close - open - 1);
    std::stringstream ss(list);
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      const std::size_t b = rule.find_first_not_of(" \t");
      const std::size_t e = rule.find_last_not_of(" \t");
      if (b != std::string::npos) s.rules.push_back(rule.substr(b, e - b + 1));
    }
    // A justification is any non-trivial text after the closing paren
    // on the same line, e.g. "): hot-path lookups, never iterated".
    std::size_t tail = close + 1;
    std::size_t eol = source.find('\n', close);
    if (eol == std::string::npos) eol = source.size();
    std::string reason = source.substr(tail, eol - tail);
    std::size_t letters = 0;
    for (const char c : reason) {
      if (std::isalnum(static_cast<unsigned char>(c)) != 0) ++letters;
    }
    s.has_reason = letters >= 3;
    s.rule_used.assign(s.rules.size(), false);
    out.push_back(std::move(s));
  }
  return out;
}

struct ScanState {
  const std::string* raw;
  std::string code;  ///< Comment/string-stripped copy.
  std::vector<std::size_t> line_starts;
  std::vector<bool> comment_only;  ///< Per line: no code, some raw text.
  std::vector<Suppression> suppressions;
  std::vector<std::string> unordered_names;
  std::vector<Finding> findings;
  std::string path;
};

bool line_is_blank(const std::string& s,
                   const std::vector<std::size_t>& line_starts,
                   std::size_t line) {
  const std::size_t begin = line_starts[line - 1];
  const std::size_t end =
      line < line_starts.size() ? line_starts[line] : s.size();
  for (std::size_t i = begin; i < end; ++i) {
    if (!std::isspace(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// A finding at `line` is suppressed by an annotation on the same line
/// or in the contiguous comment block directly above it. A match marks
/// the annotation's rule as used (for --prune-allowlist staleness).
bool suppressed(ScanState& st, std::size_t line, const std::string& rule) {
  auto allows = [&](std::size_t l) {
    bool hit = false;
    for (Suppression& s : st.suppressions) {
      if (s.line != l) continue;
      for (std::size_t r = 0; r < s.rules.size(); ++r) {
        if (s.rules[r] == rule || s.rules[r] == "*") {
          s.rule_used[r] = true;
          hit = true;
        }
      }
    }
    return hit;
  };
  if (allows(line)) return true;
  for (std::size_t l = line; l-- > 1;) {
    if (!st.comment_only[l - 1]) break;  // hit a code line: stop
    if (allows(l)) return true;
  }
  return false;
}

void report(ScanState& st, std::size_t line, const char* rule,
            std::string message) {
  if (suppressed(st, line, rule)) return;
  st.findings.push_back(Finding{st.path, line, rule, std::move(message)});
}

/// Collects identifiers declared with an unordered container type and
/// reports each declaration site (rule unordered-state).
void scan_unordered_declarations(ScanState& st) {
  for (const std::string& token : unordered_type_tokens()) {
    for (const std::size_t pos : word_positions(st.code, token)) {
      std::size_t after = pos + token.size();
      while (after < st.code.size() &&
             std::isspace(static_cast<unsigned char>(st.code[after]))) {
        ++after;
      }
      if (after >= st.code.size() || st.code[after] != '<') continue;
      const std::size_t end = skip_balanced(st.code, after, '<', '>');
      if (end == std::string::npos) continue;
      // Skip qualifiers / declarators between the type and the name.
      std::size_t p = end;
      while (p < st.code.size() &&
             (std::isspace(static_cast<unsigned char>(st.code[p])) ||
              st.code[p] == '&' || st.code[p] == '*')) {
        ++p;
      }
      std::size_t name_end = p;
      while (name_end < st.code.size() && is_word(st.code[name_end])) {
        ++name_end;
      }
      if (name_end == p) continue;  // not a declaration (e.g. ::iterator)
      const std::string name = st.code.substr(p, name_end - p);
      if (name == "const" || name == "mutable" || name == "static") continue;
      st.unordered_names.push_back(name);
      report(st, line_of(st.line_starts, pos), kUnorderedState,
             "declaration of std::" + token + " '" + name +
                 "' in sim code; prove its iteration order never reaches "
                 "sim-visible state or convert to a sorted/dense structure");
    }
  }
  std::sort(st.unordered_names.begin(), st.unordered_names.end());
  st.unordered_names.erase(
      std::unique(st.unordered_names.begin(), st.unordered_names.end()),
      st.unordered_names.end());
}

bool mentions_unordered(const ScanState& st, const std::string& expr) {
  for (const std::string& token : unordered_type_tokens()) {
    if (!word_positions(expr, token).empty()) return true;
  }
  for (const std::string& name : st.unordered_names) {
    if (!word_positions(expr, name).empty()) return true;
  }
  return false;
}

/// Flags range-for and iterator loops whose range is an unordered
/// container, plus `+=` accumulation inside such loop bodies.
void scan_unordered_loops(ScanState& st) {
  for (const std::size_t pos : word_positions(st.code, "for")) {
    std::size_t open = pos + 3;
    while (open < st.code.size() &&
           std::isspace(static_cast<unsigned char>(st.code[open]))) {
      ++open;
    }
    if (open >= st.code.size() || st.code[open] != '(') continue;
    const std::size_t close = skip_balanced(st.code, open, '(', ')');
    if (close == std::string::npos) continue;
    const std::string head = st.code.substr(open + 1, close - open - 2);

    bool hazardous = false;
    // Range-for: a ':' that is not part of '::'.
    std::size_t colon = std::string::npos;
    for (std::size_t i = 0; i < head.size(); ++i) {
      if (head[i] != ':') continue;
      if (i + 1 < head.size() && head[i + 1] == ':') {
        ++i;
        continue;
      }
      if (i > 0 && head[i - 1] == ':') continue;
      colon = i;
      break;
    }
    if (colon != std::string::npos) {
      hazardous = mentions_unordered(st, head.substr(colon + 1));
    } else if (head.find(".begin()") != std::string::npos ||
               head.find(".cbegin()") != std::string::npos) {
      // Iterator loop: `for (auto it = m.begin(); ...)`.
      hazardous = mentions_unordered(st, head);
    }
    if (!hazardous) continue;

    const std::size_t line = line_of(st.line_starts, pos);
    report(st, line, kUnorderedIter,
           "loop iterates an unordered container; iteration order is "
           "hash-bucket layout, not a deterministic order");

    // Secondary check: accumulation inside the loop body compounds the
    // hazard (reduction order changes the float result bit pattern).
    std::size_t body = close;
    while (body < st.code.size() &&
           std::isspace(static_cast<unsigned char>(st.code[body]))) {
      ++body;
    }
    std::size_t body_end;
    if (body < st.code.size() && st.code[body] == '{') {
      body_end = skip_balanced(st.code, body, '{', '}');
      if (body_end == std::string::npos) body_end = st.code.size();
    } else {
      body_end = st.code.find(';', body);
      if (body_end == std::string::npos) body_end = st.code.size();
    }
    for (std::size_t i = body; i + 1 < body_end; ++i) {
      if (st.code[i] != '+' || st.code[i + 1] != '=') continue;
      // An allow on the loop header covers accumulations in its body —
      // the loop is the unit being justified.
      if (suppressed(st, line, kFloatAccum)) continue;
      report(st, line_of(st.line_starts, i), kFloatAccum,
             "accumulation inside unordered iteration; reduction order "
             "(and any float rounding) depends on hash-bucket layout");
    }
  }
}

void scan_token_rules(ScanState& st) {
  struct TokenRule {
    const char* token;
    const char* rule;
    const char* message;
  };
  static const TokenRule kTokenRules[] = {
      {"system_clock", kWallClock,
       "wall-clock read in sim code; use sim::Simulator::now()"},
      {"steady_clock", kWallClock,
       "wall-clock read in sim code; use sim::Simulator::now()"},
      {"high_resolution_clock", kWallClock,
       "wall-clock read in sim code; use sim::Simulator::now()"},
      {"gettimeofday", kWallClock,
       "wall-clock read in sim code; use sim::Simulator::now()"},
      {"clock_gettime", kWallClock,
       "wall-clock read in sim code; use sim::Simulator::now()"},
      {"timespec_get", kWallClock,
       "wall-clock read in sim code; use sim::Simulator::now()"},
      {"localtime", kWallClock, "wall-clock/calendar read in sim code"},
      {"gmtime", kWallClock, "wall-clock/calendar read in sim code"},
      {"rand", kLibcRand,
       "libc rand() bypasses the seeded common/rng discipline"},
      {"srand", kLibcRand,
       "libc srand() bypasses the seeded common/rng discipline"},
      {"random_device", kRandomDevice,
       "std::random_device draws hardware entropy; runs are never "
       "reproducible"},
      {"mt19937", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"mt19937_64", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"minstd_rand", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"minstd_rand0", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"default_random_engine", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"ranlux24", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"ranlux48", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
      {"knuth_b", kStdRng,
       "std RNG engine bypasses common/rng; use d2dhb::Rng with an "
       "explicit seed"},
  };
  for (const TokenRule& tr : kTokenRules) {
    const std::string token = tr.token;
    const bool call_like = token == "rand" || token == "srand";
    for (const std::size_t pos : word_positions(st.code, token)) {
      if (call_like) {
        // Require a call: `rand (`... and reject member/qualified uses
        // like `rng.rand(` — only the libc globals are the hazard.
        std::size_t after = pos + token.size();
        while (after < st.code.size() &&
               std::isspace(static_cast<unsigned char>(st.code[after]))) {
          ++after;
        }
        if (after >= st.code.size() || st.code[after] != '(') continue;
        if (member_qualified(st.code, pos)) continue;
      }
      report(st, line_of(st.line_starts, pos), tr.rule, tr.message);
    }
  }

  // time(...) and clock() calls — token + '(' with no qualifier.
  for (const char* fn : {"time", "clock"}) {
    for (const std::size_t pos : word_positions(st.code, fn)) {
      if (member_qualified(st.code, pos)) continue;
      std::size_t after = pos + std::string(fn).size();
      while (after < st.code.size() &&
             std::isspace(static_cast<unsigned char>(st.code[after]))) {
        ++after;
      }
      if (after >= st.code.size() || st.code[after] != '(') continue;
      const std::size_t close = skip_balanced(st.code, after, '(', ')');
      if (close == std::string::npos) continue;
      std::string args = st.code.substr(after + 1, close - after - 2);
      args.erase(std::remove_if(args.begin(), args.end(),
                                [](char c) {
                                  return std::isspace(
                                             static_cast<unsigned char>(c)) !=
                                         0;
                                }),
                 args.end());
      if (std::string(fn) == "clock" && !args.empty()) continue;
      if (std::string(fn) == "time" && !args.empty() && args != "0" &&
          args != "NULL" && args != "nullptr" && args[0] != '&') {
        continue;  // something else named `time` taking a real argument
      }
      report(st, line_of(st.line_starts, pos), kWallClock,
             std::string(fn) + "() reads the wall clock; sim code must "
                               "use sim::Simulator::now()");
    }
  }
}

/// std::map / std::set keyed on a pointer type.
void scan_pointer_keys(ScanState& st) {
  for (const char* container : {"map", "set", "multimap", "multiset"}) {
    for (const std::size_t pos : word_positions(st.code, container)) {
      std::size_t after = pos + std::string(container).size();
      if (after >= st.code.size() || st.code[after] != '<') continue;
      // First template argument at depth 1, up to ',' or the closer.
      int depth = 0;
      std::size_t arg_begin = after + 1;
      std::size_t arg_end = std::string::npos;
      for (std::size_t i = after; i < st.code.size(); ++i) {
        const char c = st.code[i];
        if (c == '<' || c == '(') {
          ++depth;
        } else if (c == '>' || c == ')') {
          if (--depth == 0) {
            arg_end = i;
            break;
          }
        } else if (c == ',' && depth == 1) {
          arg_end = i;
          break;
        }
      }
      if (arg_end == std::string::npos) continue;
      std::string arg = st.code.substr(arg_begin, arg_end - arg_begin);
      while (!arg.empty() &&
             std::isspace(static_cast<unsigned char>(arg.back()))) {
        arg.pop_back();
      }
      if (arg.empty() || arg.back() != '*') continue;
      report(st, line_of(st.line_starts, pos), kPtrKey,
             "ordered container keyed on a pointer; iteration order is "
             "allocation-address order, which varies run to run");
    }
  }
}

/// True when the token at `pos` is reached through `.` or `->` — a
/// member call on some object, as opposed to a `::` qualifier (its own
/// declaration / out-of-line definition) or a free function.
bool member_dot_qualified(const std::string& s, std::size_t pos) {
  if (pos == 0) return false;
  if (s[pos - 1] == '.') return true;
  return s[pos - 1] == '>' && pos >= 2 && s[pos - 2] == '-';
}

/// Start of the enclosing statement: just past the previous ';', '{',
/// or '}' (or the start of the file).
std::size_t statement_begin(const std::string& s, std::size_t pos) {
  std::size_t b = pos;
  while (b > 0) {
    const char c = s[b - 1];
    if (c == ';' || c == '{' || c == '}') break;
    --b;
  }
  return b;
}

/// Position after `token` at `pos`, whitespace skipped.
std::size_t after_token(const std::string& s, std::size_t pos,
                        std::size_t token_size) {
  std::size_t after = pos + token_size;
  while (after < s.size() &&
         std::isspace(static_cast<unsigned char>(s[after])) != 0) {
    ++after;
  }
  return after;
}

/// Top-level comma split of a call's argument list: `open` is the '('.
/// Depth counts ()/{}/[] only — '<' is ambiguous with less-than, and
/// none of the scanned call shapes nest commas inside bare template
/// argument lists. Empty when the parens are unbalanced.
std::vector<std::string> call_arguments(const std::string& s,
                                        std::size_t open) {
  const std::size_t close = skip_balanced(s, open, '(', ')');
  if (close == std::string::npos) return {};
  std::vector<std::string> args;
  int depth = 0;
  std::size_t begin = open + 1;
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    const char c = s[i];
    if (c == '(' || c == '{' || c == '[') {
      ++depth;
    } else if (c == ')' || c == '}' || c == ']') {
      --depth;
    } else if (c == ',' && depth == 0) {
      args.push_back(s.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  args.push_back(s.substr(begin, close - 1 - begin));
  return args;
}

std::string without_spaces(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) out += c;
  }
  return out;
}

/// cross-strip-access: substrate code must act on its own strip (the
/// active ShardGuard lane) only — kernels are independent and nothing
/// crosses between them. Member calls on kernel() — the executor's
/// direct shard handle — and any set_scheduling_shard() override are
/// flagged; the engine/simulator internals that legitimately own them
/// are exempted by the src/sim allowlist entries.
void scan_cross_strip(ScanState& st) {
  for (const std::size_t pos : word_positions(st.code, "kernel")) {
    if (!member_dot_qualified(st.code, pos)) continue;
    const std::size_t after =
        after_token(st.code, pos, std::string("kernel").size());
    if (after >= st.code.size() || st.code[after] != '(') continue;
    report(st, line_of(st.line_starts, pos), kCrossStrip,
           "direct kernel() access reaches into a shard's private state; "
           "stay on the active strip");
  }
  for (const std::size_t pos :
       word_positions(st.code, "set_scheduling_shard")) {
    const std::size_t after =
        after_token(st.code, pos, std::string("set_scheduling_shard").size());
    if (after >= st.code.size() || st.code[after] != '(') continue;
    report(st, line_of(st.line_starts, pos), kCrossStrip,
           "set_scheduling_shard() overrides the ShardGuard lane; use a "
           "scoped ShardGuard, never a bare override");
  }
}

/// arena-escape: `arena.create<T>()` / `arena.adopt()` hand out a
/// borrow tied to the strip arena's lifetime. Storing it in a `static`
/// or returning it straight out of the creating function are the two
/// lexically visible escape shapes.
void scan_arena_escape(ScanState& st) {
  for (const char* token : {"create", "adopt"}) {
    const bool is_create = std::string(token) == "create";
    const std::size_t token_size = std::string(token).size();
    for (const std::size_t pos : word_positions(st.code, token)) {
      if (!member_dot_qualified(st.code, pos)) continue;
      const std::size_t after = after_token(st.code, pos, token_size);
      if (after >= st.code.size() ||
          st.code[after] != (is_create ? '<' : '(')) {
        continue;
      }
      const std::size_t stmt = statement_begin(st.code, pos);
      const std::string head = st.code.substr(stmt, pos - stmt);
      const bool is_static = !word_positions(head, "static").empty();
      const bool is_return = !word_positions(head, "return").empty();
      if (!is_static && !is_return) continue;
      report(st, line_of(st.line_starts, pos), kArenaEscape,
             std::string("arena ") + token + "() borrow " +
                 (is_static ? "stored in a static — it outlives the "
                              "strip arena that owns the object"
                            : "returned from the creating scope — the "
                              "borrow must not outlive or leave its "
                              "strip's arena scope"));
    }
  }
}

/// lane-mix: laned substrates (strided seq lanes, per-strip rng/stat
/// lanes) must be indexed by the executing shard, never a hard-coded
/// strip number; set_seq_lane re-striding belongs to the executor.
void scan_lane_mix(ScanState& st) {
  for (const std::size_t pos : word_positions(st.code, "set_seq_lane")) {
    const std::size_t after =
        after_token(st.code, pos, std::string("set_seq_lane").size());
    if (after >= st.code.size() || st.code[after] != '(') continue;
    report(st, line_of(st.line_starts, pos), kLaneMix,
           "set_seq_lane() re-strides a kernel's sequence lane; only "
           "the executor may assign lanes, at world construction");
  }
  // `*lanes[...]` / `*lanes_[...]` subscripted by an integer literal.
  for (std::size_t i = 0; i < st.code.size();) {
    if (!is_word(st.code[i]) || (i > 0 && is_word(st.code[i - 1]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < st.code.size() && is_word(st.code[end])) ++end;
    const std::string ident = st.code.substr(i, end - i);
    const bool laned =
        (ident.size() >= 5 &&
         ident.compare(ident.size() - 5, 5, "lanes") == 0) ||
        (ident.size() >= 6 &&
         ident.compare(ident.size() - 6, 6, "lanes_") == 0);
    if (laned) {
      std::size_t open = end;
      while (open < st.code.size() &&
             std::isspace(static_cast<unsigned char>(st.code[open])) != 0) {
        ++open;
      }
      if (open < st.code.size() && st.code[open] == '[') {
        const std::size_t close = skip_balanced(st.code, open, '[', ']');
        if (close != std::string::npos) {
          const std::string index = without_spaces(
              st.code.substr(open + 1, close - 1 - open - 1));
          const bool literal =
              !index.empty() &&
              std::all_of(index.begin(), index.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c)) != 0;
              });
          if (literal) {
            report(st, line_of(st.line_starts, i), kLaneMix,
                   "laned substrate indexed by a hard-coded strip; "
                   "index by the executing shard "
                   "(sim.current_shard() / the ShardGuard lane)");
          }
        }
      }
    }
    i = end;
  }
  // Member `.lane(<integer literal>)` accessors.
  for (const std::size_t pos : word_positions(st.code, "lane")) {
    if (!member_dot_qualified(st.code, pos)) continue;
    const std::size_t after = after_token(st.code, pos, 4);
    if (after >= st.code.size() || st.code[after] != '(') continue;
    const std::vector<std::string> args = call_arguments(st.code, after);
    if (args.size() != 1) continue;
    const std::string arg = without_spaces(args[0]);
    const bool literal = !arg.empty() &&
                         std::all_of(arg.begin(), arg.end(), [](char c) {
                           return std::isdigit(static_cast<unsigned char>(c)) !=
                                  0;
                         });
    if (!literal) continue;
    report(st, line_of(st.line_starts, pos), kLaneMix,
           "lane() fetched for a hard-coded strip; fetch the executing "
           "shard's lane instead");
  }
}

void scan_bare_allows(ScanState& st) {
  for (const Suppression& s : st.suppressions) {
    if (s.has_reason) continue;
    st.findings.push_back(Finding{
        st.path, s.line, kAllowNoReason,
        "detlint suppression without a justification; write "
        "`// detlint: allow(rule): <why this is safe>`"});
  }
}

bool allowlisted(const Options& options, const std::string& path,
                 const std::string& rule, Usage* usage) {
  // Match against the full path and every '/'-suffix, so relative
  // allowlist entries work however the scanner was invoked.
  std::vector<std::string> candidates{path};
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] == '/') candidates.push_back(path.substr(i + 1));
  }
  if (usage != nullptr && usage->allowlist_used.size() <
                              options.allowlist.size()) {
    usage->allowlist_used.resize(options.allowlist.size(), false);
  }
  bool hit = false;
  for (std::size_t e = 0; e < options.allowlist.size(); ++e) {
    const AllowEntry& entry = options.allowlist[e];
    if (entry.rule != "*" && entry.rule != rule) continue;
    for (const std::string& c : candidates) {
      if (glob_match(entry.path_glob, c)) {
        // Keep matching so duplicate entries all get usage credit.
        if (usage != nullptr) usage->allowlist_used[e] = true;
        hit = true;
        break;
      }
    }
    if (hit && usage == nullptr) return true;
  }
  return hit;
}

}  // namespace

bool glob_match(const std::string& glob, const std::string& text) {
  // Iterative glob with '*' backtracking; '?' matches one char.
  std::size_t g = 0, t = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (g < glob.size() && (glob[g] == '?' || glob[g] == text[t])) {
      ++g;
      ++t;
    } else if (g < glob.size() && glob[g] == '*') {
      star = g++;
      mark = t;
    } else if (star != std::string::npos) {
      g = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') ++g;
  return g == glob.size();
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules{
      {kUnorderedIter,
       "loop over an unordered container (order = hash-bucket layout)"},
      {kUnorderedState,
       "unordered container declared in sim code (justify or convert)"},
      {kWallClock, "wall-clock read (use sim::Simulator::now())"},
      {kLibcRand, "libc rand()/srand() (use seeded common/rng)"},
      {kRandomDevice, "std::random_device (hardware entropy)"},
      {kStdRng, "std RNG engine construction (use d2dhb::Rng)"},
      {kPtrKey, "ordered container keyed on a pointer (address order)"},
      {kFloatAccum, "accumulation inside unordered iteration"},
      {kAllowNoReason, "suppression without an inline justification"},
      {kCrossStrip,
       "another strip's kernel() touched directly (stay on the active "
       "strip)"},
      {kArenaEscape,
       "arena create<>/adopt() borrow escapes its strip's arena scope"},
      {kLaneMix,
       "laned substrate used from the wrong strip (hard-coded lane "
       "index / set_seq_lane outside the executor)"},
  };
  return kRules;
}

std::vector<StaleAllow> Usage::stale(const Options& options) const {
  std::vector<StaleAllow> out;
  for (std::size_t e = 0; e < options.allowlist.size(); ++e) {
    if (e < allowlist_used.size() && allowlist_used[e]) continue;
    const AllowEntry& entry = options.allowlist[e];
    out.push_back(StaleAllow{
        entry.source.empty() ? "<allowlist>" : entry.source, entry.line,
        entry.rule, "allowlist entry `" + entry.rule + " " +
                        entry.path_glob + "` matched no finding"});
  }
  out.insert(out.end(), stale_inline.begin(), stale_inline.end());
  return out;
}

std::string Finding::to_string() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

Options load_allowlist(const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) {
    throw std::runtime_error("detlint: cannot read allowlist " +
                             file.string());
  }
  Options options;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::stringstream ss(line);
    std::string rule, glob, extra;
    if (!(ss >> rule)) continue;  // blank / comment-only
    if (!(ss >> glob) || (ss >> extra)) {
      throw std::runtime_error("detlint: " + file.string() + ":" +
                               std::to_string(lineno) +
                               ": expected `<rule-id> <path-glob>`");
    }
    if (rule != "*") {
      const auto& table = rules();
      const bool known =
          std::any_of(table.begin(), table.end(),
                      [&](const RuleInfo& r) { return r.id == rule; });
      if (!known) {
        throw std::runtime_error("detlint: " + file.string() + ":" +
                                 std::to_string(lineno) + ": unknown rule '" +
                                 rule + "'");
      }
    }
    options.allowlist.push_back(AllowEntry{rule, glob, file.string(), lineno});
  }
  return options;
}

std::vector<Finding> scan_source(const std::string& path_label,
                                 const std::string& source,
                                 const Options& options, Usage* usage) {
  ScanState st;
  st.raw = &source;
  st.path = path_label;
  std::string kinds;
  st.code = strip_comments_and_strings(source, &kinds);

  st.line_starts.push_back(0);
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\n') st.line_starts.push_back(i + 1);
  }
  const std::size_t n_lines = st.line_starts.size();
  st.comment_only.resize(n_lines);
  for (std::size_t l = 1; l <= n_lines; ++l) {
    st.comment_only[l - 1] =
        line_is_blank(st.code, st.line_starts, l) &&
        !line_is_blank(source, st.line_starts, l);
  }
  st.suppressions = parse_suppressions(source, st.line_starts, kinds);

  scan_unordered_declarations(st);
  scan_unordered_loops(st);
  scan_token_rules(st);
  scan_pointer_keys(st);
  scan_cross_strip(st);
  scan_arena_escape(st);
  scan_lane_mix(st);
  scan_bare_allows(st);

  if (usage != nullptr) {
    for (const Suppression& s : st.suppressions) {
      for (std::size_t r = 0; r < s.rules.size(); ++r) {
        if (s.rule_used[r]) continue;
        usage->stale_inline.push_back(StaleAllow{
            path_label, s.line, s.rules[r],
            "inline allow(" + s.rules[r] + ") exempted no finding"});
      }
    }
  }

  std::vector<Finding> findings;
  for (Finding& f : st.findings) {
    if (!allowlisted(options, path_label, f.rule, usage)) {
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> scan_file(const std::filesystem::path& file,
                               const Options& options, Usage* usage) {
  std::ifstream in(file, std::ios::binary);
  if (!in) {
    throw std::runtime_error("detlint: cannot read " + file.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return scan_source(file.generic_string(), buffer.str(), options, usage);
}

std::vector<Finding> scan_paths(
    const std::vector<std::filesystem::path>& roots, const Options& options,
    Usage* usage) {
  std::vector<std::filesystem::path> files;
  const auto is_cpp = [](const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" ||
           ext == ".h" || ext == ".hh";
  };
  for (const std::filesystem::path& root : roots) {
    if (std::filesystem::is_directory(root)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(root)) {
        if (entry.is_regular_file() && is_cpp(entry.path())) {
          files.push_back(entry.path());
        }
      }
    } else {
      files.push_back(root);
    }
  }
  std::sort(files.begin(), files.end());  // deterministic report order
  if (usage != nullptr) {
    usage->allowlist_used.resize(options.allowlist.size(), false);
  }
  std::vector<Finding> findings;
  for (const std::filesystem::path& file : files) {
    std::vector<Finding> f = scan_file(file, options, usage);
    findings.insert(findings.end(), std::make_move_iterator(f.begin()),
                    std::make_move_iterator(f.end()));
  }
  return findings;
}

}  // namespace d2dhb::detlint
