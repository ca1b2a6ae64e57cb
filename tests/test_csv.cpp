#include "util/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

namespace starcdn::util {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  // Per-test file: ctest runs each test in its own process, in parallel.
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("starcdn_csv_test.") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv"))
          .string();
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvTest, RoundTripSimple) {
  {
    CsvWriter w(path_);
    w.row({"a", "b", "c"});
    w.row({"1", "2", "3"});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST_F(CsvTest, QuotingRoundTrip) {
  {
    CsvWriter w(path_);
    w.row({"with,comma", "with\"quote", "plain"});
  }
  const auto rows = read_csv(path_);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "with,comma");
  EXPECT_EQ(rows[0][1], "with\"quote");
  EXPECT_EQ(rows[0][2], "plain");
}

TEST(Csv, ParseLineBasics) {
  EXPECT_EQ(parse_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(parse_csv_line(""), (std::vector<std::string>{""}));
  EXPECT_EQ(parse_csv_line("a,,c"), (std::vector<std::string>{"a", "", "c"}));
}

TEST(Csv, ParseQuotedFields) {
  EXPECT_EQ(parse_csv_line(R"("a,b",c)"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(parse_csv_line(R"("he said ""hi""",x)"),
            (std::vector<std::string>{"he said \"hi\"", "x"}));
}

TEST(Csv, ParseStripsCarriageReturn) {
  EXPECT_EQ(parse_csv_line("a,b\r"), (std::vector<std::string>{"a", "b"}));
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW((void)read_csv("/nonexistent/starcdn.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace starcdn::util
