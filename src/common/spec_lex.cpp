#include "common/spec_lex.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace esg::lex {

std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

void Where::fail(const std::string& why) const {
  std::string msg(grammar);
  if (line > 0) msg += " line " + std::to_string(line);
  if (!clause.empty()) {
    if (!msg.empty()) msg += ' ';
    msg += "'" + std::string(clause) + "'";
  }
  throw std::invalid_argument(msg.empty() ? why : msg + ": " + why);
}

void Field::bad_number() const {
  at.fail("malformed number for '" + std::string(key) + "': '" +
          std::string(value) + "'");
}

void Field::out_of(const Range& range) const {
  // Every bounded range has a finite lower end.
  const std::string bound =
      std::isfinite(range.hi)
          ? std::string("in ") + (range.lo_open ? "(" : "[") +
                fmt_g(range.lo) + ", " + fmt_g(range.hi) + "]"
          : (range.lo_open ? "> " : ">= ") + fmt_g(range.lo);
  at.fail(std::string(key) + " must be " + bound);
}

void Field::bad_integer(std::uint64_t lo, std::uint64_t hi) const {
  at.fail(std::string(key) + " must be an integer in [" + std::to_string(lo) +
          ", " + std::to_string(hi) + "], got '" + std::string(value) + "'");
}

void Field::bad_on_off() const {
  at.fail("malformed boolean for '" + std::string(key) + "': '" +
          std::string(value) + "' (on|off)");
}

void Fields::add(const Where& at, std::string_view list) {
  at_ = at;
  for (const std::string_view piece : split(list, ',')) {
    const std::string_view item = trim(piece);
    if (item.empty()) continue;
    const auto [key, tail] = split_first(item, '=');
    const std::string_view value = trim(tail.value_or(""));
    if (key.empty() || value.empty()) {
      at.fail("expected key=value, got '" + std::string(item) + "'");
    }
    const auto same_key = [&](const Field& f) { return f.key == key; };
    if (std::any_of(items_.begin(), items_.end(), same_key)) {
      at.fail("duplicate key '" + std::string(key) + "'");
    }
    items_.push_back(Field{key, value, at});
  }
}

std::optional<Field> Fields::take(std::string_view key) {
  const auto it = std::find_if(items_.begin(), items_.end(),
                               [&](const Field& f) { return f.key == key; });
  if (it == items_.end()) return std::nullopt;
  const Field field = *it;
  items_.erase(it);
  return field;
}

Field Fields::need(std::string_view key) {
  std::optional<Field> field = take(key);
  if (!field) at_.fail("missing key '" + std::string(key) + "'");
  return *field;
}

void Fields::finish() const {
  if (!items_.empty()) {
    const Field& first = items_.front();
    first.at.fail("unknown key '" + std::string(first.key) + "'");
  }
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> pieces;
  for (std::size_t pos = 0;;) {
    const std::size_t cut = s.find(sep, pos);
    pieces.push_back(s.substr(pos, cut - pos));
    if (cut == std::string_view::npos) return pieces;
    pos = cut + 1;
  }
}

Split split_first(std::string_view s, char sep) {
  const std::size_t cut = s.find(sep);
  if (cut == std::string_view::npos) return {trim(s), std::nullopt};
  return {trim(s.substr(0, cut)), s.substr(cut + 1)};
}

std::vector<Where> clauses(std::string_view grammar, std::string_view text) {
  std::vector<Where> out;
  std::size_t line = 1;
  for (std::size_t pos = 0; pos <= text.size();) {
    const std::size_t cut =
        std::min(text.find_first_of(";\n", pos), text.size());
    const std::string_view clause = trim(text.substr(pos, cut - pos));
    if (!clause.empty() && clause.front() != '#') {
      out.push_back(Where{grammar, clause, line});
    }
    if (cut < text.size() && text[cut] == '\n') ++line;
    pos = cut + 1;
  }
  return out;
}

std::string load_text(std::string_view grammar, std::string_view arg) {
  if (arg.empty() || arg.front() != '@') return std::string(arg);
  const std::string path(arg.substr(1));
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::invalid_argument(std::string(grammar) + " file '" + path +
                                "' is unreadable");
  }
  const std::string raw{std::istreambuf_iterator<char>(file),
                        std::istreambuf_iterator<char>()};
  std::string text;
  text.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (raw[i] != '\r') {
      text += raw[i];
    } else if (i + 1 == raw.size() || raw[i + 1] != '\n') {
      text += '\n';
    }
  }
  return text;
}

}  // namespace esg::lex
