#include "fault/fault_spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace esg::fault {
namespace {

TEST(FaultSpec, DefaultIsInert) {
  EXPECT_TRUE(FaultSpec{}.inert());
  EXPECT_TRUE(parse_fault_spec("").inert());
}

TEST(FaultSpec, ParsesCrashClause) {
  const FaultSpec spec = parse_fault_spec("crash:invoker=3,at=2000,down=1500");
  ASSERT_EQ(spec.crashes.size(), 1u);
  EXPECT_EQ(spec.crashes[0].invoker, InvokerId(3));
  EXPECT_DOUBLE_EQ(spec.crashes[0].at_ms, 2000.0);
  EXPECT_DOUBLE_EQ(spec.crashes[0].down_ms, 1500.0);
  EXPECT_FALSE(spec.inert());
}

TEST(FaultSpec, ParsesDispatchWithOptionalFunction) {
  const FaultSpec any = parse_fault_spec("dispatch:prob=0.05");
  ASSERT_EQ(any.dispatch.size(), 1u);
  EXPECT_DOUBLE_EQ(any.dispatch[0].prob, 0.05);
  EXPECT_FALSE(any.dispatch[0].function.has_value());

  const FaultSpec one = parse_fault_spec("dispatch:prob=0.5,function=2");
  ASSERT_EQ(one.dispatch.size(), 1u);
  ASSERT_TRUE(one.dispatch[0].function.has_value());
  EXPECT_EQ(*one.dispatch[0].function, FunctionId(2));
}

TEST(FaultSpec, ParsesColdStartAndSlowdown) {
  const FaultSpec spec = parse_fault_spec(
      "coldstart:prob=0.2,function=1;slow:invoker=1,at=500,for=4000,factor=3");
  ASSERT_EQ(spec.cold_start.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.cold_start[0].prob, 0.2);
  ASSERT_EQ(spec.slowdowns.size(), 1u);
  EXPECT_EQ(spec.slowdowns[0].invoker, InvokerId(1));
  EXPECT_DOUBLE_EQ(spec.slowdowns[0].at_ms, 500.0);
  EXPECT_DOUBLE_EQ(spec.slowdowns[0].duration_ms, 4000.0);
  EXPECT_DOUBLE_EQ(spec.slowdowns[0].factor, 3.0);
}

TEST(FaultSpec, NewlinesCommentsAndWhitespace) {
  const FaultSpec spec = parse_fault_spec(
      "# a comment line\n"
      " dispatch : prob = 0.1 \n"
      "\n"
      "coldstart:prob=0.2");
  EXPECT_EQ(spec.dispatch.size(), 1u);
  EXPECT_EQ(spec.cold_start.size(), 1u);
}

TEST(FaultSpec, ZeroRateSpecsAreInert) {
  EXPECT_TRUE(parse_fault_spec("dispatch:prob=0").inert());
  EXPECT_TRUE(parse_fault_spec("coldstart:prob=0;dispatch:prob=0").inert());
  // factor=1 slows nothing down.
  EXPECT_TRUE(
      parse_fault_spec("slow:invoker=0,at=0,for=100,factor=1").inert());
  // Any crash makes the spec active regardless of probabilities.
  EXPECT_FALSE(
      parse_fault_spec("dispatch:prob=0;crash:invoker=0,at=1,down=1").inert());
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(parse_fault_spec("nonsense"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("explode:prob=0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:prob"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:prob=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:prob=nan"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:rate=0.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:prob=0.5,prob=0.6"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash:invoker=1,at=10"),  // down missing
               std::invalid_argument);
}

TEST(FaultSpec, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse_fault_spec("dispatch:prob=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:prob=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash:invoker=1,at=-5,down=10"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("crash:invoker=1.5,at=0,down=10"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("slow:invoker=0,at=0,for=10,factor=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("dispatch:prob=0.5,function=-1"),
               std::invalid_argument);
}

TEST(FaultSpec, ToStringRoundTrips) {
  const char* text =
      "crash:invoker=3,at=2000,down=1500;dispatch:prob=0.05;"
      "coldstart:prob=0.2,function=1;slow:invoker=1,at=500,for=4000,factor=3";
  const FaultSpec spec = parse_fault_spec(text);
  const std::string rendered = to_string(spec);
  EXPECT_EQ(rendered, text);
  EXPECT_EQ(to_string(parse_fault_spec(rendered)), rendered);
}

TEST(FaultSpec, LoadInlineOrFromFile) {
  EXPECT_EQ(load_fault_spec("dispatch:prob=0.3").dispatch.size(), 1u);

  const std::string path =
      ::testing::TempDir() + "/fault_spec_test_input.txt";
  {
    std::ofstream out(path);
    out << "# resilience scenario\ncrash:invoker=2,at=100,down=50\n";
  }
  const FaultSpec from_file = load_fault_spec("@" + path);
  ASSERT_EQ(from_file.crashes.size(), 1u);
  EXPECT_EQ(from_file.crashes[0].invoker, InvokerId(2));
  std::remove(path.c_str());

  EXPECT_THROW(load_fault_spec("@/no/such/fault/spec/file"),
               std::invalid_argument);
}

TEST(FaultSpec, FileWithCrlfLineEndsAndCommentLines) {
  const std::string path = ::testing::TempDir() + "/fault_spec_crlf.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "# resilience scenario\r\n"
           "dispatch:prob=0.1\r\n"
           "   # indented comment\r\n"
           "crash:invoker=2,at=100,down=50\r\n";
  }
  const FaultSpec spec = load_fault_spec("@" + path);
  ASSERT_EQ(spec.dispatch.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.dispatch[0].prob, 0.1);
  ASSERT_EQ(spec.crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.crashes[0].down_ms, 50.0);
  std::remove(path.c_str());
}

TEST(FaultSpec, ErrorsNameTheFileLineAndClause) {
  try {
    (void)parse_fault_spec("# header\r\ndispatch:prob=0.1\r\ncoldstart:prob=2");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "fault-spec line 3 'coldstart:prob=2': prob must be in [0, 1]");
  }
}

}  // namespace
}  // namespace esg::fault
