// JSON document model: parsing (valid + malformed), escapes, numbers,
// round-trip stability, and accessor error behaviour.
#include <gtest/gtest.h>

#include <string>

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

TEST(Json, DeterministicKeyOrder) {
  const auto v = mio::json_parse(R"({"zebra":1,"alpha":2})");
  const std::string s = v.dump(0);
  EXPECT_LT(s.find("alpha"), s.find("zebra"));
}
