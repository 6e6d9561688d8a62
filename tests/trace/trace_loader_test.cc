#include "trace/trace_loader.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/text.h"
#include "topo/fat_tree.h"
#include "trace/yahoo_like.h"

namespace nu::trace {
namespace {

TEST(ParseTraceCsvTest, HeaderWithDemand) {
  const auto records = ParseTraceCsv(
      "src_ip,dst_ip,demand_mbps,duration_s\n"
      "10.0.0.1,10.0.0.2,25.5,3.0\n"
      "10.0.0.3,10.0.0.4,1.0,60.0\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].src_ip, "10.0.0.1");
  EXPECT_DOUBLE_EQ(records[0].demand, 25.5);
  EXPECT_DOUBLE_EQ(records[1].duration, 60.0);
}

TEST(ParseTraceCsvTest, HeaderWithBytesDerivesDemand) {
  // 1 MB over 8 seconds = 1e6 * 8 bits / 1e6 / 8 s = 1 Mbps.
  const auto records = ParseTraceCsv(
      "src_ip,dst_ip,bytes,duration_s\n"
      "a,b,1000000,8\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NEAR(records[0].demand, 1.0, 1e-9);
}

TEST(ParseTraceCsvTest, HeaderlessPositional) {
  const auto records = ParseTraceCsv("a,b,10,5\nc,d,20,1\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].demand, 10.0);
}

TEST(ParseTraceCsvTest, SkipsDegenerateRecords) {
  const auto records = ParseTraceCsv(
      "src_ip,dst_ip,demand_mbps,duration_s\n"
      "a,a,10,5\n"      // self loop
      "a,b,0,5\n"       // zero demand
      "a,b,10,0\n"      // zero duration
      "a,b,10,5\n");    // valid
  ASSERT_EQ(records.size(), 1u);
}

TEST(ParseTraceCsvTest, SkipsComments) {
  const auto records = ParseTraceCsv("# comment line\na,b,10,5\n");
  EXPECT_EQ(records.size(), 1u);
}

TEST(ParseTraceCsvTest, MalformedInputThrowsCorruptInput) {
  // Each must throw, not abort, read a prefix ("7x" as 7) or keep a record
  // with a non-finite demand or duration.
  for (const char* text : {
           "a,b,abc,5\n",
           "a,b,7x,5\n",
           "a,b,,5\n",
           "a,b,nan,5\n",
           "a,b,inf,5\n",
           "a,b,-inf,5\n",
           "a,b,10,nan\n",
           "a,b,10,inf\n",
           "a,b,10\n",                                  // short row
           "a,b,10,5\nc,d\n",                           // short later row
           "src_ip,dst_ip,demand_mbps\na,b,10\n",       // no duration_s
           "src_ip,dst_ip,duration_s\na,b,5\n",         // no demand/bytes
           "src_ip,demand_mbps,duration_s\na,10,5\n",   // no dst_ip
           "src_ip,dst_ip,bytes,duration_s\na,b,1e308,1e-300\n",
       }) {
    SCOPED_TRACE(text);
    EXPECT_THROW((void)ParseTraceCsv(text), CorruptInput);
  }
  try {
    (void)ParseTraceCsv("# comment\na,b,10,5\n\nc,d,x,5\n");
    ADD_FAILURE() << "expected CorruptInput";
  } catch (const CorruptInput& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)LoadTraceFile(::testing::TempDir() +
                                   "/no_such_dir/no_such_trace.csv"),
               CorruptInput);
}

TEST(ParseTraceCsvTest, SpacesAfterCommasKeepTheirRecords) {
  const auto records = ParseTraceCsv("a, b, 10, 5\nc, d, 2.5 ,1\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].src_ip, "a");
  EXPECT_EQ(records[0].dst_ip, " b");
  EXPECT_DOUBLE_EQ(records[0].demand, 10.0);
  EXPECT_DOUBLE_EQ(records[0].duration, 5.0);
  EXPECT_DOUBLE_EQ(records[1].demand, 2.5);
  EXPECT_DOUBLE_EQ(records[1].duration, 1.0);
}

TEST(WriteTraceCsvTest, RoundTripsThroughLoader) {
  std::vector<TraceRecord> records{
      {"10.0.0.1", "10.0.0.2", 25.5, 3.0},
      {"10.0.0.3", "10.0.0.4", 1.25, 60.0},
  };
  std::ostringstream out;
  WriteTraceCsv(out, records);
  const auto parsed = ParseTraceCsv(out.str());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].src_ip, "10.0.0.1");
  EXPECT_DOUBLE_EQ(parsed[0].demand, 25.5);
  EXPECT_DOUBLE_EQ(parsed[1].duration, 60.0);
}

TEST(SampleTraceTest, ExportsGeneratorWorkload) {
  const topo::FatTree ft(
      topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  trace::YahooLikeGenerator gen(ft.hosts(), Rng(42));
  const auto records = SampleTrace(gen, 50);
  ASSERT_EQ(records.size(), 50u);
  for (const TraceRecord& rec : records) {
    EXPECT_NE(rec.src_ip, rec.dst_ip);
    EXPECT_GT(rec.demand, 0.0);
    EXPECT_GT(rec.duration, 0.0);
  }
  // Exported workload replays cleanly.
  std::ostringstream out;
  WriteTraceCsv(out, records);
  const auto parsed = ParseTraceCsv(out.str());
  EXPECT_EQ(parsed.size(), 50u);
  TraceReplayGenerator replay(parsed, ft.hosts());
  const FlowSpec spec = replay.Next();
  EXPECT_NE(spec.src, spec.dst);
}

TEST(TraceReplayGeneratorTest, CyclesAndMapsHosts) {
  const topo::FatTree ft(
      topo::FatTreeConfig{.k = 4, .link_capacity = 1000.0});
  std::vector<TraceRecord> records{
      {"1.1.1.1", "2.2.2.2", 10.0, 2.0},
      {"3.3.3.3", "4.4.4.4", 20.0, 4.0},
  };
  TraceReplayGenerator gen(records, ft.hosts());
  EXPECT_EQ(gen.record_count(), 2u);
  const FlowSpec first = gen.Next();
  const FlowSpec second = gen.Next();
  const FlowSpec third = gen.Next();  // wraps to record 0
  EXPECT_DOUBLE_EQ(first.demand, 10.0);
  EXPECT_DOUBLE_EQ(second.demand, 20.0);
  EXPECT_EQ(third.src, first.src);
  EXPECT_NE(first.src, first.dst);
}

}  // namespace
}  // namespace nu::trace
