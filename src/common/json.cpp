#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace esg::json {

namespace {

/// Keys an object holds before duplicate checks switch from a scan to a
/// hash set, which keeps a hostile object with millions of keys linear.
constexpr std::size_t kScannedKeys = 16;

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xc0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xe0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  } else {
    out += static_cast<char>(0xf0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    out += static_cast<char>(0x80 | (code & 0x3f));
  }
}

}  // namespace

const Value* Value::find(std::string_view key) const {
  for (const Member& member : members) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

bool Reader::Level::add_key(const std::string& key) {
  if (keys.size() < kScannedKeys) {
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) return false;
    keys.push_back(key);
    return true;
  }
  if (many.empty()) many.insert(keys.begin(), keys.end());
  return many.insert(key).second;
}

Reader::Reader(std::string_view text, std::string_view label)
    : text_(text), label_(label) {}

void Reader::fail(std::string_view what) const {
  const std::string_view seen = text_.substr(0, std::min(pos_, text_.size()));
  const auto line = 1 + std::count(seen.begin(), seen.end(), '\n');
  throw std::invalid_argument(label_ + ": " + std::string(what) + " at line " +
                              std::to_string(line) + ", byte " +
                              std::to_string(seen.size()));
}

char Reader::peek() {
  while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

void Reader::enter(char open) {
  if (peek() != open) fail(std::string("expected '") + open + "'");
  if (depth_ == kMaxDepth) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
  ++pos_;
  if (depth_ == levels_.size()) levels_.emplace_back();
  Level& level = levels_[depth_++];
  level.close = open == '[' ? ']' : '}';
  level.started = false;
  level.keys.clear();
  if (!level.many.empty()) level.many.clear();
}

bool Reader::next() {
  Level& level = levels_[depth_ - 1];
  const char c = peek();
  if (c == level.close) {
    ++pos_;
    --depth_;
    return false;
  }
  if (level.started) {
    if (c != ',') fail(std::string("expected ',' or '") + level.close + "'");
    ++pos_;
  }
  level.started = true;
  return true;
}

std::string Reader::key() {
  if (peek() != '"') fail("expected a member key");
  std::string out;
  string(out);
  if (!levels_[depth_ - 1].add_key(out)) {
    fail("duplicate object key '" + out + "'");
  }
  if (peek() != ':') fail("expected ':'");
  ++pos_;
  return out;
}

Value Reader::value() {
  Value out;
  switch (const char c = peek()) {
    case '[':
      out.kind = Value::Kind::kArray;
      enter('[');
      while (next()) out.items.push_back(value());
      break;
    case '{':
      out.kind = Value::Kind::kObject;
      enter('{');
      while (next()) {
        std::string name = key();
        out.members.emplace_back(std::move(name), value());
      }
      break;
    default:
      out.kind = scalar(out.text, out.number);
      out.boolean = c == 't';  // scalar() read the literal true
  }
  return out;
}

Value::Kind Reader::scalar(std::string& text, double& number) {
  text.clear();
  number = 0.0;
  switch (const char c = peek()) {
    case '[':
    case '{':
      skip();
      return c == '[' ? Value::Kind::kArray : Value::Kind::kObject;
    case '"':
      string(text);
      return Value::Kind::kString;
    case 't':
      literal("true");
      return Value::Kind::kBool;
    case 'f':
      literal("false");
      return Value::Kind::kBool;
    case 'n':
      literal("null");
      return Value::Kind::kNull;
    default: {
      const std::size_t start = pos_;
      number = this->number();
      text.assign(text_.substr(start, pos_ - start));
      return Value::Kind::kNumber;
    }
  }
}

void Reader::skip() {
  const char c = peek();
  if (c != '[' && c != '{') {
    double number = 0.0;
    (void)scalar(skipped_, number);
    return;
  }
  enter(c);
  while (next()) {
    if (c == '{') (void)key();
    skip();
  }
}

void Reader::finish() {
  if (peek() != '\0' || pos_ != text_.size()) {
    fail("trailing bytes after the document");
  }
}

void Reader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) fail("expected a value");
  pos_ += word.size();
}

double Reader::number() {
  const std::size_t start = pos_;
  const auto at = [&](char c) {
    return pos_ < text_.size() && text_[pos_] == c;
  };
  const auto at_digit = [&] {
    return pos_ < text_.size() && is_digit(text_[pos_]);
  };
  const auto digits = [&] {
    if (!at_digit()) {
      fail(pos_ == start ? "expected a value" : "malformed number");
    }
    while (at_digit()) ++pos_;
  };
  if (at('-')) ++pos_;
  if (at('0')) {
    ++pos_;  // no leading zeros: "01" stops after the 0
  } else {
    digits();
  }
  if (at('.')) {
    ++pos_;
    digits();
  }
  if (at('e') || at('E')) {
    ++pos_;
    if (at('+') || at('-')) ++pos_;
    digits();
  }
  const std::string_view token = text_.substr(start, pos_ - start);
  double value = 0.0;
  const auto [stop, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  (void)stop;  // the grammar above admits only tokens from_chars reads whole
  if (ec == std::errc::result_out_of_range) {
    // from_chars leaves `value` alone here; strtod rounds an underflow to
    // a signed zero and an overflow to an infinity.
    value = std::strtod(std::string(token).c_str(), nullptr);
  }
  if (!std::isfinite(value)) {
    pos_ = start;
    fail("number '" + std::string(token) + "' is out of range");
  }
  return value;
}

unsigned Reader::hex4() {
  unsigned code = 0;
  const std::string_view digits = text_.substr(pos_, 4);
  const char* end = digits.data() + digits.size();
  const auto [stop, ec] = std::from_chars(digits.data(), end, code, 16);
  if (ec != std::errc{} || stop != end || digits.size() != 4) {
    fail("bad \\u escape");
  }
  pos_ += 4;
  return code;
}

void Reader::string(std::string& out) {
  ++pos_;  // the opening quote, which the caller has peeked
  out.clear();
  for (;;) {
    const std::size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    out.append(text_.substr(run, pos_ - run));
    if (pos_ == text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return;
    }
    if (c != '\\') fail("control byte in a string");
    if (++pos_ == text_.size()) fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        unsigned code = hex4();
        if (code >= 0xdc00 && code <= 0xdfff) fail("unpaired surrogate");
        if (code >= 0xd800 && code <= 0xdbff) {
          if (text_.substr(pos_, 2) != "\\u") fail("unpaired surrogate");
          pos_ += 2;
          const unsigned low = hex4();
          if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
          code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
        }
        append_utf8(out, code);
        break;
      }
      default:
        --pos_;
        fail("bad escape");
    }
  }
}

Value parse(std::string_view text, std::string_view label) {
  Reader reader(text, label);
  Value out = reader.value();
  reader.finish();
  return out;
}

std::string escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  escape_to(out, raw);
  return out;
}

void escape_to(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the bytes copied as they are
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto c = static_cast<unsigned char>(raw[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(raw.substr(run, i - run));
    run = i + 1;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += static_cast<char>(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    }
  }
  out.append(raw.substr(run));
}

}  // namespace esg::json
