#include "support/json.h"

#include <gtest/gtest.h>

#include "support/error.h"

namespace gks::json {
namespace {

TEST(JsonWriter, NestedDocumentWithCommaManagement) {
  Writer w;
  w.begin_object()
      .key("type").value("job")
      .key("count").value(3)
      .key("rate").value(0.5)
      .key("done").value(false)
      .key("targets").begin_array().value("aa").value("bb").end_array()
      .key("nested").begin_object().key("x").null().end_object()
      .end_object();
  EXPECT_EQ(w.str(),
            R"({"type":"job","count":3,"rate":0.5,"done":false,)"
            R"("targets":["aa","bb"],"nested":{"x":null}})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  Writer w;
  w.begin_object().key("k\"ey").value("a\\b\n\t\x01z").end_object();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"a\\\\b\\n\\t\\u0001z\"}");
}

TEST(JsonParse, RoundTripsWriterOutput) {
  Writer w;
  w.begin_object()
      .key("name").value("sweep-1")
      .key("begin").value("340282366920938463463374607431768211455")
      .key("priority").value(-2)
      .key("weight").value(1.5)
      .key("found").begin_array()
      .begin_object().key("digest").value("ab\"cd").end_object()
      .end_array()
      .end_object();
  const Value v = parse(w.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("name").as_string(), "sweep-1");
  // u128 values travel as strings, never as numbers.
  EXPECT_EQ(v.at("begin").as_string(),
            "340282366920938463463374607431768211455");
  EXPECT_EQ(v.at("priority").as_number(), -2);
  EXPECT_EQ(v.at("weight").as_number(), 1.5);
  ASSERT_EQ(v.at("found").as_array().size(), 1u);
  EXPECT_EQ(v.at("found").as_array()[0].at("digest").as_string(), "ab\"cd");
}

TEST(JsonParse, AcceptsWhitespaceAndLiterals) {
  const Value v = parse("  { \"a\" : [ true , false , null , 1e3 ] }\n");
  const auto& arr = v.at("a").as_array();
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_TRUE(arr[0].as_bool());
  EXPECT_FALSE(arr[1].as_bool());
  EXPECT_EQ(arr[2].type(), Value::Type::kNull);
  EXPECT_EQ(arr[3].as_number(), 1000.0);
}

TEST(JsonParse, DecodesEscapes) {
  const Value v = parse(R"({"s":"a\"b\\c\ndAé"})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\\c\ndA\xc3\xa9");
}

TEST(JsonParse, FindAndDefaults) {
  const Value v = parse(R"({"a":"x","n":2})");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.string_or("a", "d"), "x");
  EXPECT_EQ(v.string_or("missing", "d"), "d");
  EXPECT_EQ(v.number_or("n", 9), 2);
  EXPECT_EQ(v.number_or("missing", 9), 9);
  EXPECT_THROW(v.at("missing"), InvalidArgument);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(parse(""), InvalidArgument);
  EXPECT_THROW(parse("{"), InvalidArgument);
  EXPECT_THROW(parse("{\"a\":}"), InvalidArgument);
  EXPECT_THROW(parse("[1,]"), InvalidArgument);
  EXPECT_THROW(parse("\"unterminated"), InvalidArgument);
  EXPECT_THROW(parse("tru"), InvalidArgument);
  EXPECT_THROW(parse("{} garbage"), InvalidArgument);
  EXPECT_THROW(parse("nan"), InvalidArgument);
}

TEST(JsonParse, WrongTypeAccessThrows) {
  const Value v = parse(R"({"a":1})");
  EXPECT_THROW(v.at("a").as_string(), InvalidArgument);
  EXPECT_THROW(v.at("a").as_array(), InvalidArgument);
  EXPECT_THROW(v.as_array(), InvalidArgument);
}

TEST(JsonParse, RejectsNestingPastTheDepthCap) {
  // 100k nested '[' is ~100 KB — far below the frame cap — and used to
  // recurse the parser off the stack.
  EXPECT_THROW(parse(std::string(100000, '[')), Error);
  EXPECT_THROW(parse(std::string(100000, '[') + std::string(100000, ']')),
               Error);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(parse(objects), Error);

  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const Value deepest = parse(nested(kMaxDepth));
  EXPECT_TRUE(deepest.is_array());
  EXPECT_THROW(parse(nested(kMaxDepth + 1)), InvalidArgument);
  // The cap counts open scopes, not total ones: siblings do not add up.
  std::string wide = "[";
  for (std::size_t i = 0; i < 2 * kMaxDepth; ++i) {
    if (i > 0) wide += ',';
    wide += nested(kMaxDepth - 1);
  }
  wide += "]";
  EXPECT_EQ(parse(wide).as_array().size(), 2 * kMaxDepth);
}

}  // namespace
}  // namespace gks::json
