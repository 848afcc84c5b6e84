/**
 * @file
 * Unit tests for the dependency-free JSON writer/parser: round trips
 * through dump() + parse(), escaping, 64-bit integer exactness, and
 * strict rejection of malformed documents.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "stats/json.hh"

namespace emissary::stats
{
namespace
{

TEST(JsonValue, ScalarDump)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(std::uint64_t{42}).dump(), "42");
    EXPECT_EQ(JsonValue(std::int64_t{-7}).dump(), "-7");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonValue, DoubleDumpRoundTrippable)
{
    // Doubles must parse back to the identical bits.
    for (const double v : {0.0, 1.5, -2.25, 0.1, 1.0 / 3.0, 1e300,
                           5e-324, 3.0}) {
        const JsonValue parsed = JsonValue::parse(JsonValue(v).dump());
        EXPECT_DOUBLE_EQ(parsed.asDouble(), v) << JsonValue(v).dump();
    }
    // Whole doubles keep a marker so they stay doubles on re-parse.
    EXPECT_EQ(JsonValue(3.0).dump(), "3.0");
}

TEST(JsonValue, Escaping)
{
    EXPECT_EQ(JsonValue::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(JsonValue::escape("\n\t\r"), "\\n\\t\\r");
    EXPECT_EQ(JsonValue::escape(std::string(1, '\x01')), "\\u0001");
    // UTF-8 passes through untouched.
    EXPECT_EQ(JsonValue::escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(JsonValue, Uint64Exactness)
{
    // Counters near 2^64 would lose precision through a double; the
    // writer and parser must keep them bit-exact.
    const std::uint64_t big =
        std::numeric_limits<std::uint64_t>::max();
    const JsonValue parsed =
        JsonValue::parse(JsonValue(big).dump());
    EXPECT_EQ(parsed.type(), JsonValue::Type::Uint);
    EXPECT_EQ(parsed.asUint(), big);

    const std::int64_t low =
        std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(JsonValue::parse(JsonValue(low).dump()).asInt(), low);
}

TEST(JsonValue, ObjectPreservesInsertionOrder)
{
    JsonValue obj = JsonValue::object();
    obj.set("zebra", JsonValue(1u));
    obj.set("alpha", JsonValue(2u));
    EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
    obj.set("zebra", JsonValue(9u));  // Replace keeps the slot.
    EXPECT_EQ(obj.dump(), "{\"zebra\":9,\"alpha\":2}");
}

TEST(JsonValue, NestedRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("name", JsonValue("EMISSARY(N=2,P=1/32)"));
    doc.set("enabled", JsonValue(true));
    doc.set("nothing", JsonValue());
    JsonValue arr = JsonValue::array();
    arr.push(JsonValue(std::uint64_t{1}));
    arr.push(JsonValue(-2));
    arr.push(JsonValue(0.5));
    doc.set("mix", std::move(arr));
    JsonValue inner = JsonValue::object();
    inner.set("l2.inst_misses", JsonValue(std::uint64_t{12045}));
    doc.set("counters", std::move(inner));

    // Compact and pretty forms both parse back to the same document.
    EXPECT_EQ(JsonValue::parse(doc.dump()), doc);
    EXPECT_EQ(JsonValue::parse(doc.dump(2)), doc);
}

TEST(JsonValue, ParseAccepts)
{
    EXPECT_EQ(JsonValue::parse(" [ ] ").size(), 0u);
    EXPECT_EQ(JsonValue::parse("{}").type(),
              JsonValue::Type::Object);
    EXPECT_EQ(JsonValue::parse("\"\\u0041\"").asString(), "A");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(JsonValue::parse("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
    EXPECT_EQ(JsonValue::parse("-0").asInt(), 0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("1e2").asDouble(), 100.0);
}

TEST(JsonValue, ParseRejectsMalformed)
{
    for (const char *bad :
         {"", "tru", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "01",
          "+1", "1 2", "\"unterminated", "\"bad\\q\"", "nan",
          "[1] trailing", "{\"a\":1,}", "'single'"}) {
        EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument)
            << bad;
    }
}

TEST(JsonValue, ParseRejectsRunawayNesting)
{
    std::string deep(300, '[');
    deep += std::string(300, ']');
    EXPECT_THROW(JsonValue::parse(deep), std::invalid_argument);
}

TEST(JsonValue, TypeErrorsThrow)
{
    EXPECT_THROW(JsonValue(-1).asUint(), std::domain_error);
    EXPECT_THROW(JsonValue("x").asUint(), std::domain_error);
    EXPECT_THROW(JsonValue(1u).asString(), std::domain_error);
    EXPECT_THROW(JsonValue::array().at(0), std::out_of_range);
    EXPECT_EQ(JsonValue(1u).find("key"), nullptr);
}

TEST(JsonValue, WriteJsonFile)
{
    const std::string path =
        ::testing::TempDir() + "test_json_write.json";
    JsonValue doc = JsonValue::object();
    doc.set("answer", JsonValue(42u));
    writeJsonFile(path, doc);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(JsonValue::parse(text.str()), doc);
    EXPECT_EQ(text.str().back(), '\n');

    // Artifact paths routinely point into directories that do not
    // exist yet (EMISSARY_BENCH_JSON, the service cache): the
    // writer creates the parents.
    const std::string nested = ::testing::TempDir() +
                               "/test_json_parents/a/b/c.json";
    writeJsonFile(nested, doc);
    std::ifstream nested_in(nested);
    ASSERT_TRUE(nested_in.good());
    std::ostringstream nested_text;
    nested_text << nested_in.rdbuf();
    EXPECT_EQ(JsonValue::parse(nested_text.str()), doc);

    // When a parent cannot be created (a regular file sits in the
    // way), the error names the directory instead of failing on the
    // open with no context.
    const std::string obstacle =
        ::testing::TempDir() + "/test_json_obstacle";
    { std::ofstream block(obstacle); block << "not a directory"; }
    try {
        writeJsonFile(obstacle + "/x.json", doc);
        FAIL() << "expected writeJsonFile to throw";
    } catch (const std::runtime_error &error) {
        EXPECT_NE(std::string(error.what())
                      .find("cannot create directory"),
                  std::string::npos)
            << error.what();
    }
}

} // namespace
} // namespace emissary::stats
