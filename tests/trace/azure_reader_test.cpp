#include "trace/azure_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace horse::trace {
namespace {

TEST(AzureReaderTest, ParsesDataRows) {
  std::istringstream csv(
      "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
      "o1,a1,f1,http,5,0,2\n"
      "o1,a1,f2,timer,1,1,1\n");
  const auto rows = AzureTraceReader::parse(csv);
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0].function, "f1");
  EXPECT_EQ((*rows)[0].trigger, "http");
  EXPECT_EQ((*rows)[0].per_minute, (std::vector<std::uint32_t>{5, 0, 2}));
  EXPECT_EQ((*rows)[1].per_minute, (std::vector<std::uint32_t>{1, 1, 1}));
}

TEST(AzureReaderTest, WorksWithoutHeader) {
  std::istringstream csv("o1,a1,f1,queue,3,4\n");
  const auto rows = AzureTraceReader::parse(csv);
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0].per_minute, (std::vector<std::uint32_t>{3, 4}));
}

TEST(AzureReaderTest, SkipsEmptyLines) {
  std::istringstream csv("o1,a1,f1,http,1\n\n\no2,a2,f2,http,2\n");
  const auto rows = AzureTraceReader::parse(csv);
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(AzureReaderTest, RejectsShortRows) {
  std::istringstream csv("o1,a1,f1\n");
  const auto rows = AzureTraceReader::parse(csv);
  EXPECT_FALSE(rows.has_value());
  EXPECT_EQ(rows.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(AzureReaderTest, RejectsNonNumericCounts) {
  std::istringstream csv("o1,a1,f1,http,abc\n");
  const auto rows = AzureTraceReader::parse(csv);
  EXPECT_FALSE(rows.has_value());
}

TEST(AzureReaderTest, ExpandProducesOneArrivalPerInvocation) {
  std::istringstream csv("o1,a1,f1,http,5,3\n");
  const auto rows = AzureTraceReader::parse(csv);
  ASSERT_TRUE(rows.has_value());
  const auto schedule = AzureTraceReader::expand(*rows, 42);
  EXPECT_EQ(schedule.size(), 8u);
}

TEST(AzureReaderTest, ExpandPlacesArrivalsInCorrectMinute) {
  std::istringstream csv("o1,a1,f1,http,2,0,3\n");
  const auto rows = AzureTraceReader::parse(csv);
  const auto schedule = AzureTraceReader::expand(*rows, 42);
  int in_first = 0;
  int in_third = 0;
  for (const auto& arrival : schedule.arrivals()) {
    if (arrival.time < 60 * util::kSecond) {
      ++in_first;
    } else if (arrival.time >= 120 * util::kSecond &&
               arrival.time < 180 * util::kSecond) {
      ++in_third;
    } else {
      ADD_FAILURE() << "arrival in empty minute: " << arrival.time;
    }
  }
  EXPECT_EQ(in_first, 2);
  EXPECT_EQ(in_third, 3);
}

TEST(AzureReaderTest, ExpandIsSortedAndDeterministic) {
  std::istringstream csv("o1,a1,f1,http,50\n");
  const auto rows = AzureTraceReader::parse(csv);
  const auto a = AzureTraceReader::expand(*rows, 7);
  const auto b = AzureTraceReader::expand(*rows, 7);
  ASSERT_EQ(a.size(), b.size());
  util::Nanos prev = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.arrivals()[i].time, b.arrivals()[i].time);
    EXPECT_GE(a.arrivals()[i].time, prev);
    prev = a.arrivals()[i].time;
  }
}

TEST(ScheduleTest, WindowShiftsAndFilters) {
  ArrivalSchedule schedule({{10, 0}, {20, 1}, {30, 0}, {40, 1}});
  const auto window = schedule.window(15, 35);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window.arrivals()[0].time, 5);   // 20 - 15
  EXPECT_EQ(window.arrivals()[1].time, 15);  // 30 - 15
  EXPECT_TRUE(schedule.window(100, 200).empty());  // wholly past the end
}

TEST(ScheduleTest, DurationIsLastArrival) {
  ArrivalSchedule schedule({{10, 0}, {99, 0}});
  EXPECT_EQ(schedule.duration(), 99);
  ArrivalSchedule empty;
  EXPECT_EQ(empty.duration(), 0);
  EXPECT_TRUE(empty.empty());
}

TEST(ScheduleTest, ConstructorSortsArrivals) {
  ArrivalSchedule schedule({{30, 0}, {10, 1}, {20, 2}});
  EXPECT_EQ(schedule.arrivals()[0].time, 10);
  EXPECT_EQ(schedule.arrivals()[2].time, 30);
}

}  // namespace
}  // namespace horse::trace
