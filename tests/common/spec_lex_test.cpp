// The shared lexer (DESIGN.md §16): per-field primitives, checked
// conversions with located errors, the key=value and clause splitters, and
// the @file loader.
#include "common/spec_lex.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

namespace esg::lex {
namespace {

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(SpecLex, TrimStripsSpacesTabsAndCarriageReturns) {
  EXPECT_EQ(trim("  a b \t\r"), "a b");
  EXPECT_EQ(trim("\r\tx"), "x");
  EXPECT_EQ(trim(" \t\r "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("a\n"), "a\n");  // newlines separate clauses instead
}

TEST(SpecLex, NumbersAreFiniteAndSpanTheWholeToken) {
  EXPECT_EQ(to_number("0.25"), 0.25);
  EXPECT_EQ(to_number("1e3"), 1000.0);
  EXPECT_EQ(to_number("1e308"), 1e308);
  EXPECT_TRUE(std::signbit(*to_number("-0")));
  for (const char* bad : {"", " 1", "1 ", "+1", "1x", "0x10", "nan", "inf",
                          "-inf", "1e400", "1,5"}) {
    EXPECT_FALSE(to_number(bad).has_value()) << bad;
  }
}

TEST(SpecLex, IntegersAreExactAndBounded) {
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(to_integer("0", 0, 10), 0u);
  EXPECT_EQ(to_integer("10", 0, 10), 10u);
  EXPECT_FALSE(to_integer("11", 0, 10).has_value());
  EXPECT_FALSE(to_integer("0", 1, 10).has_value());
  // Digit strings convert exactly, past the 2^53 a double holds.
  EXPECT_EQ(to_integer("9007199254740993", 0, kMax64), 9007199254740993u);
  EXPECT_EQ(to_integer("18446744073709551615", 0, kMax64), kMax64);
  EXPECT_FALSE(to_integer("18446744073709551616", 0, kMax64).has_value());
  // Integral numbers in other spellings convert as they always did.
  EXPECT_EQ(to_integer("1e3", 0, kMaxId), 1000u);
  EXPECT_EQ(to_integer("2.0", 0, kMaxId), 2u);
  EXPECT_EQ(to_integer("-0", 0, kMaxId), 0u);
  EXPECT_EQ(to_integer("4294967294", 0, kMaxId), kMaxId);
  for (const char* bad : {"4294967295", "4294967296", "2.5", "-1", "1e30",
                          "1e20", "4.9e-324", "nan", "", " 1", "0x10"}) {
    EXPECT_FALSE(to_integer(bad, 0, kMaxId).has_value()) << bad;
  }
}

TEST(SpecLex, OnOffAcceptsThreeSpellingsEach) {
  for (const char* on : {"on", "true", "1"}) EXPECT_EQ(to_on_off(on), true);
  for (const char* off : {"off", "false", "0"}) {
    EXPECT_EQ(to_on_off(off), false);
  }
  EXPECT_FALSE(to_on_off("yes").has_value());
  EXPECT_FALSE(to_on_off("ON").has_value());
}

TEST(SpecLex, FmtGMatchesPrintf) {
  EXPECT_EQ(fmt_g(2000.0), "2000");
  EXPECT_EQ(fmt_g(0.05), "0.05");
  EXPECT_EQ(fmt_g(1234567.0), "1.23457e+06");
  EXPECT_EQ(fmt_g(-0.0), "-0");
}

TEST(SpecLex, RangesRenderIntoErrors) {
  const auto range_error = [](const Range& r, const char* v) {
    return error_of([&] { (void)Field{"k", v}.number(r); });
  };
  EXPECT_EQ(range_error(kNonNegative, "-1"), "k must be >= 0");
  EXPECT_EQ(range_error(kPositive, "0"), "k must be > 0");
  EXPECT_EQ(range_error(kProbability, "1.5"), "k must be in [0, 1]");
  EXPECT_EQ(range_error(kFraction, "0"), "k must be in (0, 1]");
  EXPECT_EQ(range_error(Range{1.0}, "0.5"), "k must be >= 1");
  EXPECT_TRUE(kNonNegative.contains(-0.0));
  EXPECT_FALSE(kPositive.contains(-0.0));
}

TEST(SpecLex, ErrorsNameGrammarLineClauseAndKey) {
  const Where at{"fault-spec", "dispatch:prob=2", 2};
  EXPECT_EQ(error_of([&] { (void)Field{"prob", "2", at}.number(kProbability); }),
            "fault-spec line 2 'dispatch:prob=2': prob must be in [0, 1]");
  EXPECT_EQ(error_of([&] { (void)Field{"prob", "x", at}.number(); }),
            "fault-spec line 2 'dispatch:prob=2': malformed number for "
            "'prob': 'x'");
  EXPECT_EQ(error_of([] { (void)Field{"--nodes", "2.5"}.integer(1, 9); }),
            "--nodes must be an integer in [1, 9], got '2.5'");
  EXPECT_EQ(error_of([] { (void)Field{"shed", "maybe"}.on_off(); }),
            "malformed boolean for 'shed': 'maybe' (on|off)");
  EXPECT_EQ(error_of([] { Where{"elastic-spec", "queue"}.fail("why"); }),
            "elastic-spec 'queue': why");
  EXPECT_EQ(error_of([] { Where{"tenant-spec"}.fail("why"); }),
            "tenant-spec: why");
}

TEST(SpecLex, FieldsTrimSkipEmptiesAndRejectRepeats) {
  const Where at{"g", "c", 1};
  Fields kv(at, " a = 1 ,, b=x ,");
  EXPECT_EQ(kv.need("b").value, "x");
  const std::optional<Field> a = kv.take("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->value, "1");
  EXPECT_FALSE(kv.take("a").has_value());  // consumed
  EXPECT_NO_THROW(kv.finish());

  EXPECT_NE(error_of([&] { Fields{at, "a=1,a=2"}; }).find("duplicate key 'a'"),
            std::string::npos);
  for (const char* bad : {"a", "=1", "a=", " = "}) {
    EXPECT_NE(error_of([&] { Fields{at, bad}; }).find("expected key=value"),
              std::string::npos)
        << bad;
  }
  Fields left(at, "a=1,b=2");
  (void)left.take("a");
  EXPECT_EQ(error_of([&] { left.finish(); }), "g line 1 'c': unknown key 'b'");
  EXPECT_EQ(error_of([&] { (void)left.need("z"); }),
            "g line 1 'c': missing key 'z'");
}

TEST(SpecLex, RepeatsAreRejectedAcrossAddedLists) {
  Fields kv;
  kv.add(Where{"g", "a=1", 1}, "a=1");
  EXPECT_EQ(error_of([&] { kv.add(Where{"g", "a=2", 2}, "a=2"); }),
            "g line 2 'a=2': duplicate key 'a'");
}

TEST(SpecLex, SplitKeepsEmptyPieces) {
  EXPECT_EQ(split("a,,b", ','),
            (std::vector<std::string_view>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
  EXPECT_EQ(split("7,", ','), (std::vector<std::string_view>{"7", ""}));
  const Split s = split_first(" ewma : alpha=1:x", ':');
  EXPECT_EQ(s.head, "ewma");
  EXPECT_EQ(s.tail, " alpha=1:x");
  EXPECT_FALSE(split_first("queue", ':').tail.has_value());
}

TEST(SpecLex, ClausesSplitOnSemicolonsAndNewlinesWithLineNumbers) {
  const std::vector<Where> got =
      clauses("g", "# header\n a ; b\r\n\n#c;d\n  e  ;");
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0].clause, "a");
  EXPECT_EQ(got[0].line, 2u);
  EXPECT_EQ(got[1].clause, "b");
  EXPECT_EQ(got[1].line, 2u);
  EXPECT_EQ(got[2].clause, "d");  // a '#' comment ends at the next ';'
  EXPECT_EQ(got[2].line, 4u);
  EXPECT_EQ(got[3].clause, "e");
  EXPECT_EQ(got[3].line, 5u);
  EXPECT_EQ(got[3].grammar, "g");
  EXPECT_TRUE(clauses("g", " ;\n; ").empty());
}

TEST(SpecLex, LoadTextReadsFilesWithAnyLineEnd) {
  EXPECT_EQ(load_text("g", "inline;text"), "inline;text");
  const std::string path = ::testing::TempDir() + "/spec_lex_load.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "a\r\nb\rc\n";
  }
  EXPECT_EQ(load_text("g", "@" + path), "a\nb\nc\n");
  std::remove(path.c_str());
  EXPECT_EQ(error_of([&] { (void)load_text("g", "@" + path); }),
            "g file '" + path + "' is unreadable");
}

}  // namespace
}  // namespace esg::lex
