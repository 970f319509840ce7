// JSON document model: parsing (valid + malformed), escapes, numbers and
// their bit-exact round trip, round-trip stability, and accessor error
// behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "../json_mutants.hpp"
#include "io/json.hpp"

namespace mio = maps::io;
using mio::JsonValue;

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(mio::json_parse("null").is_null());
  EXPECT_EQ(mio::json_parse("true").as_bool(), true);
  EXPECT_EQ(mio::json_parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(mio::json_parse("3.25").as_number(), 3.25);
  EXPECT_DOUBLE_EQ(mio::json_parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(mio::json_parse("6.02e23").as_number(), 6.02e23);
  EXPECT_DOUBLE_EQ(mio::json_parse("1E-3").as_number(), 1e-3);
  EXPECT_EQ(mio::json_parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructure) {
  const auto v = mio::json_parse(R"({
    "name": "bend",
    "grid": [64, 64],
    "options": {"pml": 12, "direct": true},
    "empty_arr": [],
    "empty_obj": {}
  })");
  EXPECT_EQ(v.at("name").as_string(), "bend");
  EXPECT_EQ(v.at("grid").size(), 2u);
  EXPECT_EQ(v.at("grid").at(1).as_int(), 64);
  EXPECT_EQ(v.at("options").at("pml").as_int(), 12);
  EXPECT_TRUE(v.at("options").at("direct").as_bool());
  EXPECT_EQ(v.at("empty_arr").size(), 0u);
  EXPECT_EQ(v.at("empty_obj").size(), 0u);
}

TEST(Json, StringEscapes) {
  const auto v = mio::json_parse(R"("a\"b\\c\nd\teAé")");
  EXPECT_EQ(v.as_string(), "a\"b\\c\nd\teA\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.", "1e",
        "\"unterminated", "{\"a\":1,}", "[1 2]", "nullx", "{\"a\":1} extra",
        "\"bad\\q\"", "\"\\u12G4\"", "{\"dup\":1,\"dup\":2}", "\"\\ud800\""}) {
    EXPECT_THROW(mio::json_parse(bad), maps::MapsError) << "input: " << bad;
  }
}

TEST(Json, NestingIsCappedAtMaxDepth) {
  const auto nested = [](int depth, char open, char close) {
    std::string s;
    for (int k = 0; k < depth; ++k) s += open == '[' ? "[" : "{\"k\":";
    s += "1";
    s.append(static_cast<std::size_t>(depth), close);
    return s;
  };
  const auto deepest = mio::json_parse(nested(mio::kMaxJsonDepth, '[', ']'));
  EXPECT_EQ(deepest.size(), 1u);
  EXPECT_NO_THROW(mio::json_parse(nested(mio::kMaxJsonDepth, '{', '}')));
  EXPECT_THROW(mio::json_parse(nested(mio::kMaxJsonDepth + 1, '[', ']')),
               maps::MapsError);
  EXPECT_THROW(mio::json_parse(nested(mio::kMaxJsonDepth + 1, '{', '}')),
               maps::MapsError);
  // The capped parser still accepts wide documents at any depth below it.
  EXPECT_EQ(mio::json_parse("[[1,[2]],[3],{\"a\":[4]}]").size(), 3u);
}

TEST(Json, DeepBracketFloodThrowsInsteadOfOverflowingTheStack) {
  const std::string flood(200 * 1024, '[');
  try {
    mio::json_parse(flood);
    FAIL() << "expected a nesting error";
  } catch (const maps::MapsError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos) << e.what();
  }
}

TEST(Json, ErrorMessagesCarryPosition) {
  try {
    mio::json_parse("{\n  \"a\": ?\n}");
    FAIL() << "expected parse error";
  } catch (const maps::MapsError& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos) << e.what();
  }
}

TEST(Json, AccessorsEnforceTypes) {
  const auto v = mio::json_parse(R"({"n": 1.5, "s": "x", "a": [1]})");
  EXPECT_THROW(v.at("n").as_string(), maps::MapsError);
  EXPECT_THROW(v.at("s").as_number(), maps::MapsError);
  EXPECT_THROW(v.at("n").as_int(), maps::MapsError);  // non-integral
  EXPECT_THROW(v.at("missing"), maps::MapsError);
  EXPECT_THROW(v.at("a").at(3), maps::MapsError);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_TRUE(v.has("n"));
}

TEST(Json, RoundTripIsStable) {
  const std::string src =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":-3,"d":[[]]},"e":"q\"z"})";
  const auto v1 = mio::json_parse(src);
  const auto v2 = mio::json_parse(v1.dump(0));
  const auto v3 = mio::json_parse(v2.dump(4));
  EXPECT_TRUE(v1 == v2);
  EXPECT_TRUE(v2 == v3);
}

TEST(Json, IntegersSerializeWithoutDecimals) {
  JsonValue v;
  v["n"] = 42;
  v["x"] = 1.5;
  const std::string s = v.dump(0);
  EXPECT_NE(s.find("\"n\":42"), std::string::npos) << s;
  EXPECT_NE(s.find("\"x\":1.5"), std::string::npos) << s;
  // Integral values keep their integer spelling, not the shorter 1e+05; the
  // sign of zero survives.
  EXPECT_EQ(JsonValue(100000.0).dump(), "100000");
  EXPECT_EQ(JsonValue(-0.0).dump(), "-0");
  EXPECT_EQ(JsonValue(0.1).dump(), "0.1");
}

TEST(Json, NumbersRoundTripBitExactlyThroughWriterAndDump) {
  // Signed zeros, the extremes, 2^53 and 1e15 neighbourhoods, then seeded
  // values below.
  std::vector<double> values = {0.0,         -0.0,        DBL_MAX,    -DBL_MAX,
                                DBL_MIN,     5e-324,      -5e-324,    0x1p53 - 1,
                                0x1p53,      0x1p53 + 2,  -0x1p53 - 2, 1e15 - 1,
                                1e15,        1e15 + 1,    -1e15 - 1,  0.1};
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::uniform_int_distribution<std::uint64_t> bits;
  for (int k = 0; k < 2000; ++k) {
    // A surrogate field value: a float tensor entry times a double scale.
    values.push_back(static_cast<double>(unit(rng)) * 0.37);
    // A full-precision normal and a subnormal, from raw bits.
    const std::uint64_t b = bits(rng);
    const double normal = std::bit_cast<double>((b & 0x800fffffffffffffULL) |
                                                ((b % 2046 + 1) << 52));
    values.push_back(normal);
    values.push_back(std::bit_cast<double>(b & 0x800fffffffffffffULL));
  }

  std::string written;
  mio::JsonWriter w(written);
  w.begin_array();
  for (const double v : values) w.value(v);
  w.end_array();
  mio::JsonArray arr(values.begin(), values.end());
  const std::string dumped = JsonValue(arr).dump();
  EXPECT_EQ(written, dumped);

  const auto back = mio::json_parse(written);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double got = back.at(i).as_number();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(values[i]))
        << "value " << i << ": wrote " << JsonValue(values[i]).dump() << ", read "
        << JsonValue(got).dump();
  }
}

TEST(Json, NonFiniteNumbersAreWrittenAsNull) {
  mio::JsonArray arr{JsonValue(std::nan("")), JsonValue(HUGE_VAL), JsonValue(-HUGE_VAL)};
  EXPECT_EQ(JsonValue(arr).dump(), "[null,null,null]");
  std::string written;
  mio::JsonWriter(written).value(-HUGE_VAL);
  EXPECT_EQ(written, "null");
}

TEST(Json, NumbersOutOfRange) {
  // Overflow has no finite value; underflow reads as a signed zero. The
  // direction comes from the whole spelling, not the exponent's sign alone.
  EXPECT_THROW(mio::json_parse("[1e400]"), maps::MapsError);
  EXPECT_THROW(mio::json_parse("[-1e400]"), maps::MapsError);
  EXPECT_THROW(mio::json_parse("[1.8e308]"), maps::MapsError);
  EXPECT_THROW(mio::json_parse("[1e99999999999999999999]"), maps::MapsError);
  const std::string huge_digits = "1" + std::string(400, '0');
  EXPECT_THROW(mio::json_parse(huge_digits + "e-50"), maps::MapsError);

  const auto tiny = mio::json_parse("[1e-400, -1e-400, 1e-99999999999999999999]");
  for (std::size_t i = 0; i < tiny.size(); ++i) {
    EXPECT_EQ(tiny.at(i).as_number(), 0.0);
    EXPECT_EQ(std::signbit(tiny.at(i).as_number()), i == 1);
  }
  EXPECT_EQ(mio::json_parse("0." + std::string(400, '0') + "1e50").as_number(), 0.0);
  EXPECT_EQ(mio::json_parse("0.0e99999").as_number(), 0.0);
  EXPECT_EQ(mio::json_parse("5e-324").as_number(), 5e-324);
}

TEST(Json, MutationBuildsObjects) {
  JsonValue v;  // starts null
  v["outer"]["inner"] = 3;
  v["list"] = mio::JsonArray{JsonValue(1), JsonValue(2)};
  EXPECT_EQ(v.at("outer").at("inner").as_int(), 3);
  EXPECT_EQ(v.at("list").size(), 2u);
  // operator[] on a non-object scalar is an error.
  JsonValue s("str");
  EXPECT_THROW(s["k"], maps::MapsError);
}

TEST(Json, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/maps_json_test.json";
  JsonValue v;
  v["hello"] = "world";
  v["pi"] = 3.14159;
  mio::json_save(v, path);
  const auto back = mio::json_load(path);
  EXPECT_TRUE(v == back);
  EXPECT_THROW(mio::json_load(path + ".does_not_exist"), maps::MapsError);
}

TEST(Json, SaveReportsAFailedFinalFlush) {
  // A short document sits in the stream's buffer until close: a save that
  // checked the stream before that returned normally on a full disk.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  JsonValue v;
  v["hello"] = "world";
  EXPECT_THROW(mio::json_save(v, "/dev/full"), maps::MapsError);
}

TEST(Json, DeterministicKeyOrder) {
  const auto v = mio::json_parse(R"({"zebra":1,"alpha":2})");
  const std::string s = v.dump(0);
  EXPECT_LT(s.find("alpha"), s.find("zebra"));
}

TEST(JsonFuzz, MutantsParseOrThrowMapsErrorAndRoundTrip) {
  // Every mutant is either a document or a MapsError, never another
  // exception or a signal; a parsed one dumps to text that parses back to
  // an equal value and dumps to the same text again.
  std::size_t parsed = 0, rejected = 0;
  std::uint64_t seed = 1;
  for (const std::string& doc : maps::test::json_seed_documents()) {
    for (const std::string& m : maps::test::json_mutants(doc, 2500, seed++)) {
      JsonValue v;
      try {
        v = mio::json_parse(m);
      } catch (const maps::MapsError&) {
        ++rejected;
        continue;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-MapsError " << e.what() << " on: " << m;
        continue;
      }
      ++parsed;
      const std::string text = v.dump();
      JsonValue back;
      ASSERT_NO_THROW(back = mio::json_parse(text)) << m;
      EXPECT_TRUE(back == v) << m;
      EXPECT_EQ(back.dump(), text) << m;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}
