/**
 * @file
 * Unit tests for running summaries, table rendering and the
 * bench-artifact JSON writer.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "stats/json.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "support/logging.hh"

namespace cherivoke {
namespace stats {
namespace {

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Summary, SingleSample)
{
    Summary s;
    s.add(5.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 5.0);
    EXPECT_EQ(s.max(), 5.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, KnownMoments)
{
    Summary s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    // Sample variance with n-1 = 7: sum sq dev = 32 -> 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.total(), 40.0, 1e-12);
}

TEST(Geomean, MatchesHandComputation)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(Geomean, EmptyReturnsZero)
{
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Geomean, RejectsNonPositive)
{
    EXPECT_THROW(geomean({1.0, 0.0}), PanicError);
    EXPECT_THROW(geomean({-1.0}), PanicError);
}

TEST(Mean, Basic)
{
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(TextTable, RendersHeaderAndRows)
{
    TextTable t({"bench", "time", "mem"});
    t.addRow({"astar", "1.02", "1.10"});
    t.addRow({"xalancbmk", "1.51", "1.35"});
    const std::string out = t.render();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("xalancbmk"), std::string::npos);
    EXPECT_NE(out.find("1.51"), std::string::npos);
    // Header underline present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, RejectsWrongArity)
{
    TextTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(TextTable, NumberFormatters)
{
    EXPECT_EQ(TextTable::num(1.2345, 2), "1.23");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
    EXPECT_EQ(TextTable::percent(0.047, 1), "4.7%");
    EXPECT_EQ(TextTable::percent(0.25, 0), "25%");
}

TEST(TextTable, ColumnsAligned)
{
    TextTable t({"name", "v"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    const std::string out = t.render();
    // Every line has the same length (aligned columns).
    size_t prev = std::string::npos;
    size_t start = 0;
    while (start < out.size()) {
        const size_t nl = out.find('\n', start);
        const size_t len = nl - start;
        if (prev != std::string::npos) {
            EXPECT_EQ(len, prev);
        }
        prev = len;
        start = nl + 1;
    }
}

/** Each JsonWriter test writes into its own scratch directory. */
class JsonWriterTest : public ::testing::Test
{
  protected:
    using Layout = JsonWriter::Layout;

    void
    SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("cherivoke_json_" + std::to_string(::getpid()));
        std::filesystem::create_directories(dir_);
        path_ = (dir_ / "BENCH_test.json").string();
    }

    void
    TearDown() override
    {
        std::filesystem::remove_all(dir_);
    }

    std::string
    written() const
    {
        std::ifstream in(path_);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    std::filesystem::path dir_;
    std::string path_;
};

TEST_F(JsonWriterTest, NestedBlockAndInlineContainers)
{
    JsonWriter json(path_);
    json.field("bench", "demo");
    json.beginArray("rows", Layout::Block);
    json.beginObject(Layout::Inline);
    json.field("n", 1u);
    json.field("ok", true);
    json.end();
    json.beginObject(Layout::Inline);
    json.field("n", uint64_t{2});
    json.beginArray("cells", Layout::Block);
    json.beginObject(Layout::Inline);
    json.field("x", 0.5);
    json.end();
    json.end();
    json.end();
    json.end();
    json.beginObject("summary", Layout::Block);
    json.field("ok", false);
    json.beginObject("inner", Layout::Inline);
    json.field("a", size_t{1});
    json.field("b", std::string("c"));
    json.end();
    json.end();
    json.beginArray("names", Layout::Inline);
    json.value("a");
    json.value("b");
    json.end();
    json.close();
    EXPECT_EQ(written(),
              "{\n"
              "  \"bench\": \"demo\",\n"
              "  \"rows\": [\n"
              "    {\"n\": 1, \"ok\": true},\n"
              "    {\"n\": 2, \"cells\": [\n"
              "      {\"x\": 0.5}\n"
              "    ]}\n"
              "  ],\n"
              "  \"summary\": {\n"
              "    \"ok\": false,\n"
              "    \"inner\": {\"a\": 1, \"b\": \"c\"}\n"
              "  },\n"
              "  \"names\": [\"a\", \"b\"]\n"
              "}\n");
}

TEST_F(JsonWriterTest, EmptyContainers)
{
    JsonWriter json(path_);
    json.beginArray("block_array", Layout::Block);
    json.end();
    json.beginObject("block_object", Layout::Block);
    json.end();
    json.beginArray("inline_array", Layout::Inline);
    json.end();
    json.beginObject("inline_object", Layout::Inline);
    json.end();
    json.close();
    EXPECT_EQ(written(), "{\n"
                         "  \"block_array\": [],\n"
                         "  \"block_object\": {},\n"
                         "  \"inline_array\": [],\n"
                         "  \"inline_object\": {}\n"
                         "}\n");

    JsonWriter empty(path_);
    empty.close();
    EXPECT_EQ(written(), "{}\n");
}

TEST_F(JsonWriterTest, EscapesStringsAndKeys)
{
    JsonWriter json(path_);
    json.field("k\"ey", "quote\" back\\ nl\n tab\t bell\x07 us\x1f");
    json.close();
    EXPECT_EQ(written(),
              "{\n"
              "  \"k\\\"ey\": \"quote\\\" back\\\\ nl\\u000a "
              "tab\\u0009 bell\\u0007 us\\u001f\"\n"
              "}\n");
}

TEST_F(JsonWriterTest, UnsignedIntegersExact)
{
    JsonWriter json(path_);
    json.field("max", std::numeric_limits<uint64_t>::max());
    json.field("u32", std::numeric_limits<uint32_t>::max());
    json.field("zero", 0u);
    json.close();
    EXPECT_EQ(written(), "{\n"
                         "  \"max\": 18446744073709551615,\n"
                         "  \"u32\": 4294967295,\n"
                         "  \"zero\": 0\n"
                         "}\n");
}

TEST_F(JsonWriterTest, DoublesSixOrSeventeenDigits)
{
    JsonWriter json(path_);
    json.field("third", 1.0 / 3.0);
    json.field("third17", 1.0 / 3.0, 17);
    json.field("big", 2.5e6);
    json.field("small", 1.25e-7);
    json.field("whole", 42.0);
    json.field("inf", std::numeric_limits<double>::infinity());
    json.field("nan", std::nan(""));
    json.close();
    EXPECT_EQ(written(), "{\n"
                         "  \"third\": 0.333333,\n"
                         "  \"third17\": 0.33333333333333331,\n"
                         "  \"big\": 2.5e+06,\n"
                         "  \"small\": 1.25e-07,\n"
                         "  \"whole\": 42,\n"
                         "  \"inf\": null,\n"
                         "  \"nan\": null\n"
                         "}\n");
}

TEST_F(JsonWriterTest, DirectoryPathIsFatal)
{
    const std::string dir = dir_.string();
    try {
        JsonWriter json(dir);
        FAIL() << "opening a directory for writing must fail";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(dir), std::string::npos)
            << err.what();
    }
}

TEST_F(JsonWriterTest, FailedFlushIsFatal)
{
    // /dev/full accepts the open and the buffered writes; the flush
    // at close() reports ENOSPC.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    JsonWriter json("/dev/full");
    json.field("ok", true);
    EXPECT_THROW(json.close(), FatalError);
}

TEST_F(JsonWriterTest, MisuseIsAPanic)
{
    JsonWriter json(path_);
    json.beginArray("rows", Layout::Block);
    EXPECT_THROW(json.field("key_in_array", true), PanicError);
    EXPECT_THROW(json.close(), PanicError);
    json.end();
    EXPECT_THROW(json.value("element_in_object"), PanicError);
    json.close();
    EXPECT_THROW(json.end(), PanicError);
}

} // namespace
} // namespace stats
} // namespace cherivoke
