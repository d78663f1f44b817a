// The shared JSON reader and escaper (DESIGN.md §17): strict RFC 8259
// grammar, document-order members with unique keys, located errors, the
// depth limit, and the cursor walk the trace reader streams with.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace esg::json {
namespace {

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

std::string parse_error(std::string_view text) {
  return error_of([&] { (void)parse(text, "doc"); });
}

TEST(Json, DecodesEveryEscape) {
  EXPECT_EQ(parse(R"("a\"b\\c\/d\be\ff\ng\rh\ti")", "doc").text,
            "a\"b\\c/d\be\ff\ng\rh\ti");
  EXPECT_EQ(parse(R"("\u0041\u00e9\u20AC")", "doc").text,
            "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(parse(R"("\u0001")", "doc").text, std::string("\x01"));
  // A surrogate pair is one code point, four UTF-8 bytes.
  EXPECT_EQ(parse(R"("\ud83d\ude00")", "doc").text, "\xf0\x9f\x98\x80");
  // Raw UTF-8 passes through untouched.
  EXPECT_EQ(parse("\"\xc3\xa9\"", "doc").text, "\xc3\xa9");

  for (const char* bad : {R"("\x")", R"("\u12")", R"("\u12g4")", R"("\ud83d")",
                          R"("\ud83dx")", R"("\ude00")", R"("\ud83dA")",
                          "\"a\x01\"", "\"a\n\"", "\"abc", "\"\\"}) {
    EXPECT_NE(parse_error(bad), "") << bad;
  }
}

TEST(Json, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  const std::string escaped = escape(all);
  EXPECT_EQ(parse("\"" + escaped + "\"", "doc").text, all);
  EXPECT_EQ(escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(escape(std::string("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(escape("req 7 (app 3)"), "req 7 (app 3)");
}

TEST(Json, ReadsLiteralsAndNumbers) {
  EXPECT_EQ(parse("true", "doc").kind, Value::Kind::kBool);
  EXPECT_TRUE(parse("true", "doc").boolean);
  EXPECT_FALSE(parse(" false ", "doc").boolean);
  EXPECT_EQ(parse("null", "doc").kind, Value::Kind::kNull);
  for (const char* bad : {"tru", "True", "nul", "falsey", "nan", "inf", "+1",
                          "01", "1.", ".5", "1e", "1e+", "-", "0x10", "1e400",
                          "-1e400"}) {
    EXPECT_NE(parse_error(bad), "") << bad;
  }
  const Value n = parse("-12.50e1", "doc");
  EXPECT_EQ(n.kind, Value::Kind::kNumber);
  EXPECT_EQ(n.text, "-12.50e1");  // the source text is kept
  EXPECT_EQ(n.number, -125.0);
  EXPECT_EQ(parse("0", "doc").number, 0.0);
  EXPECT_EQ(parse("1E-2", "doc").number, 0.01);
  EXPECT_EQ(parse("1e-400", "doc").number, 0.0);  // underflow is finite
  // An underflow keeps its sign, a denormal reads as itself, and a token
  // that rounds to 0 reads as 0 through strtod.
  const double minus_zero = parse("-1e-400", "doc").number;
  EXPECT_EQ(minus_zero, 0.0);
  EXPECT_TRUE(std::signbit(minus_zero));
  EXPECT_EQ(parse("4.9e-324", "doc").number,
            std::numeric_limits<double>::denorm_min());
  const double rounded_to_zero = parse("2e-324", "doc").number;
  EXPECT_EQ(rounded_to_zero, 0.0);
  EXPECT_FALSE(std::signbit(rounded_to_zero));
}

TEST(Json, ScalarAndSkipCheckWhatValueChecks) {
  const auto first_of = [](std::string_view doc, int how) {
    return error_of([&] {
      Reader reader(doc, "doc");
      reader.enter('[');
      if (!reader.next()) return;
      std::string text;
      double number = 0.0;
      if (how == 0) (void)reader.value();
      if (how == 1) (void)reader.scalar(text, number);
      if (how == 2) reader.skip();
      reader.finish();
    });
  };
  const std::vector<std::string> docs = {
      R"(["a\u00e9"])", "[-12.5e1]", "[true]", "[null]", R"([{"a":[1,{}]}])",
      R"([{"a":1,"a":2}])", R"(["\x"])", "[1e400]", "[01]", "[tru]",
      R"([[1,2,{"k":"v"}]])", "[" + std::string(200, '[')};
  for (const std::string& doc : docs) {
    const std::string want = first_of(doc, 0);
    EXPECT_EQ(first_of(doc, 1), want) << doc;
    EXPECT_EQ(first_of(doc, 2), want) << doc;
  }
  // scalar keeps what value() would hold as text and number.
  for (const char* doc : {R"("a\u00e9")", "-12.50e1", "true", "null",
                          R"({"a":"b"})", "[3]"}) {
    const Value v = parse(doc, "doc");
    Reader reader(doc, "doc");
    std::string text = "stale";
    double number = 9.0;
    EXPECT_EQ(reader.scalar(text, number), v.kind) << doc;
    EXPECT_EQ(text, v.text) << doc;
    EXPECT_EQ(number, v.number) << doc;
  }
}

TEST(Json, KeepsMembersInDocumentOrder) {
  const Value v = parse(R"({"b": 1, "a": [true, null, "x"], "c": {}})", "doc");
  ASSERT_EQ(v.kind, Value::Kind::kObject);
  ASSERT_EQ(v.members.size(), 3u);
  EXPECT_EQ(v.members[0].first, "b");
  EXPECT_EQ(v.members[1].first, "a");
  EXPECT_EQ(v.members[2].first, "c");
  const Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[2].text, "x");
  EXPECT_EQ(v.find("d"), nullptr);
  EXPECT_EQ(a->find("b"), nullptr);  // not an object
}

TEST(Json, RejectsDuplicateKeysAtEveryDepth) {
  EXPECT_NE(parse_error(R"({"a":1,"a":2})").find("duplicate object key 'a'"),
            std::string::npos);
  EXPECT_NE(parse_error(R"([{"x":{"y":[{"k":1,"k":1}]}}])")
                .find("duplicate object key 'k'"),
            std::string::npos);
  // Escapes are decoded before the comparison.
  EXPECT_NE(parse_error(R"({"a":1,"\u0061":2})").find("duplicate object key"),
            std::string::npos);
  // The same key in sibling objects is fine.
  EXPECT_NO_THROW((void)parse(R"([{"a":1},{"a":2}])", "doc"));
  // Past the scanned keys the check is hashed; it still catches a repeat of
  // the first key and lets distinct keys through.
  std::string many = "{";
  for (int i = 0; i < 100; ++i) many += "\"k" + std::to_string(i) + "\":0,";
  EXPECT_NO_THROW((void)parse(many + "\"last\":0}", "doc"));
  EXPECT_NE(parse_error(many + "\"k0\":1}").find("duplicate object key 'k0'"),
            std::string::npos);
}

TEST(Json, RejectsTrailingBytesAndBadFraming) {
  for (const char* bad : {"", " ", "{} x", "[1] [2]", "[1,]", "[,1]", "[1 2]",
                          "{\"a\":1,}", "{\"a\" 1}", "{a:1}", "{\"a\":}",
                          "[", "{", "]", "1 2", "\"a\" \"b\"",
                          "\v1", "\f1"}) {
    EXPECT_NE(parse_error(bad), "") << bad;
  }
  EXPECT_NO_THROW((void)parse(" \t\r\n[ 1 , {} ]\r\n ", "doc"));
  EXPECT_NE(parse_error(std::string("[1]\0", 4)), "");
}

TEST(Json, ErrorsNameLabelLineAndByte) {
  const std::string what =
      error_of([] { (void)parse("[\n  1,\n  2 x\n]", "bench.json"); });
  EXPECT_EQ(what, "bench.json: expected ',' or ']' at line 3, byte 11");
  EXPECT_EQ(error_of([] { (void)parse("{\"a\":1,\"a\":2}", "t"); }),
            "t: duplicate object key 'a' at line 1, byte 10");
  EXPECT_EQ(error_of([] { (void)parse("", "t"); }),
            "t: expected a value at line 1, byte 0");
}

TEST(Json, DepthLimitThrowsInsteadOfOverflowingTheStack) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)parse(nested(kMaxDepth), "doc"));
  EXPECT_NE(parse_error(nested(kMaxDepth + 1)).find("nesting deeper than"),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(100000, '[')), "");
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_NE(parse_error(objects).find("nesting deeper than"),
            std::string::npos);
}

TEST(Json, CursorWalksAnArrayOneElementAtATime) {
  Reader reader(R"( [ {"n": 1}, 2, [3], "four" ] )", "doc");
  std::vector<Value::Kind> kinds;
  reader.enter('[');
  while (reader.next()) kinds.push_back(reader.value().kind);
  reader.finish();
  EXPECT_EQ(kinds, (std::vector<Value::Kind>{
                       Value::Kind::kObject, Value::Kind::kNumber,
                       Value::Kind::kArray, Value::Kind::kString}));

  Reader empty("[]", "doc");
  empty.enter('[');
  EXPECT_FALSE(empty.next());
  empty.finish();

  Reader trailing("[1,]", "doc");
  trailing.enter('[');
  ASSERT_TRUE(trailing.next());
  (void)trailing.value();
  ASSERT_TRUE(trailing.next());
  EXPECT_THROW((void)trailing.value(), std::invalid_argument);
}

TEST(Json, CursorWalksAnObjectAndItsNestedArray) {
  Reader reader(R"({"meta": {"a": 1}, "events": [1, 2, 3], "tail": null})",
                "doc");
  std::vector<std::string> keys;
  double sum = 0.0;
  reader.enter('{');
  while (reader.next()) {
    keys.push_back(reader.key());
    if (keys.back() == "events") {
      reader.enter('[');
      while (reader.next()) sum += reader.value().number;
    } else {
      (void)reader.value();
    }
  }
  reader.finish();
  EXPECT_EQ(keys, (std::vector<std::string>{"meta", "events", "tail"}));
  EXPECT_EQ(sum, 6.0);

  Reader dup(R"({"a": 1, "a": 2})", "doc");
  dup.enter('{');
  ASSERT_TRUE(dup.next());
  EXPECT_EQ(dup.key(), "a");
  (void)dup.value();
  ASSERT_TRUE(dup.next());
  EXPECT_THROW((void)dup.key(), std::invalid_argument);

  Reader wrong("[1]", "doc");
  EXPECT_THROW(wrong.enter('{'), std::invalid_argument);
  EXPECT_EQ(wrong.peek(), '[');
}

}  // namespace
}  // namespace esg::json
