// One JSON reader and one string escaper for every JSON document the repo
// reads back or writes by hand (DESIGN.md §17).
//
// parse(text, label) builds a whole document as a Value. Reader is a cursor
// that walks a document one container at a time, so a caller can stream a
// large array and build only the element at the cursor.
//
// The grammar is RFC 8259's, checked strictly; object keys must be unique
// at every depth, and nesting deeper than kMaxDepth is an error rather
// than a stack overflow. Every error is a std::invalid_argument naming the
// label, the line and the byte offset:
//
//   trace_reader: duplicate object key 'ph' at line 3, byte 118
//
// A number is checked once: the whole token must follow the grammar and
// read to a finite double. It keeps its source text, and its value is
// std::from_chars of that text, the correctly rounded conversion the
// determinism contract in obs/analysis/dataset.hpp assumes. A token that
// from_chars finds out of range is read by strtod instead, so an underflow
// reads as a signed zero ("1e-400" as 0, "-1e-400" as -0) and an overflow
// is an error.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

namespace esg::json {

/// Deepest nesting of arrays and objects a document may have. The repo's
/// own artefacts nest at most about 5 levels.
inline constexpr std::size_t kMaxDepth = 128;

struct Value;
using Member = std::pair<std::string, Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;         ///< kBool
  double number = 0.0;          ///< kNumber: the value of `text`
  std::string text;             ///< kString: decoded; kNumber: source text
  std::vector<Value> items;     ///< kArray, in document order
  std::vector<Member> members;  ///< kObject, in document order, unique keys

  /// The member named `key`; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// A cursor over one document. Walk a container with enter() and next():
///
///   reader.enter('[');
///   while (reader.next()) use(reader.value());
///
/// and an object the same way, reading each member's key() before its
/// value. value() reads whatever value is at the cursor in one piece.
class Reader {
 public:
  /// `text` must outlive the reader; `label` prefixes every error.
  Reader(std::string_view text, std::string_view label);

  /// The next byte after whitespace, without consuming it; '\0' at the end.
  [[nodiscard]] char peek();
  /// Enters the container at the cursor, which must open with `open`
  /// ('[' or '{').
  void enter(char open);
  /// Steps to the next element of the innermost entered container. True
  /// when one follows; false once the closing bracket is consumed, which
  /// leaves the container.
  [[nodiscard]] bool next();
  /// The key of the object member at the cursor, through its ':'. A key
  /// the object already had is an error.
  [[nodiscard]] std::string key();
  /// The whole value at the cursor.
  [[nodiscard]] Value value();
  /// The value at the cursor, checked as value() checks it, but kept only
  /// as the Value's `text` and `number`, in storage the caller reuses: a
  /// string's decoded bytes, or a number's source text and value. Other
  /// values leave `text` empty and `number` 0; arrays and objects are not
  /// built. Returns the value's kind.
  Value::Kind scalar(std::string& text, double& number);
  /// Checks the value at the cursor as value() does and drops it.
  void skip();
  /// Requires that nothing but whitespace is left.
  void finish();
  /// Throws std::invalid_argument: "<label>: <what> at line L, byte B".
  [[noreturn]] void fail(std::string_view what) const;

 private:
  /// One entered container. Levels past depth_ are kept for reuse, so
  /// walking a long array of small objects stops allocating key storage.
  struct Level {
    char close = ']';
    bool started = false;  ///< an element was read; the next needs a ','
    std::vector<std::string> keys;          ///< first keys, scanned
    std::unordered_set<std::string> many;   ///< every key, once there are many
    [[nodiscard]] bool add_key(const std::string& key);
  };

  /// Decodes the string at the cursor into `out`, replacing its bytes.
  void string(std::string& out);
  /// The value of the number token at the cursor.
  [[nodiscard]] double number();
  void literal(std::string_view word);
  [[nodiscard]] unsigned hex4();

  std::string_view text_;
  std::string label_;
  std::size_t pos_ = 0;
  std::vector<Level> levels_;
  std::size_t depth_ = 0;
  std::string skipped_;  ///< skip()'s strings, decoded only to check them
};

/// The whole of `text` as one document. Throws std::invalid_argument.
[[nodiscard]] Value parse(std::string_view text, std::string_view label);

/// `raw` as the inside of a JSON string literal: '"' and '\' escaped, LF and
/// tab as \n and \t, other bytes below 0x20 as \u00XX; every other byte is
/// copied, so UTF-8 passes through.
[[nodiscard]] std::string escape(std::string_view raw);
/// Appends escape(raw) to `out`; runs that need no escape are appended in
/// place.
void escape_to(std::string& out, std::string_view raw);

}  // namespace esg::json
