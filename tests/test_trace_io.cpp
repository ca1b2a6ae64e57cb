#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace starcdn::trace {
namespace {

LocationTrace sample_trace() {
  LocationTrace t;
  t.location = 3;
  t.location_name = "Vienna";
  for (int i = 0; i < 500; ++i) {
    t.requests.push_back(
        {i * 0.25, static_cast<ObjectId>(i % 37), 1000u + i, 3});
  }
  return t;
}

/// Offset of the first block's u32 count: magic + u64 total.
constexpr std::streamoff kFirstCountAt = 16;

class TraceIoTest : public ::testing::Test {
 protected:
  // Per-test file: ctest runs each test in its own process, in parallel.
  std::string path(const char* ext) const {
    return (std::filesystem::temp_directory_path() /
            (std::string("starcdn_trace_test.") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             "." + ext))
        .string();
  }
  void TearDown() override {
    std::remove(path("bin").c_str());
    std::remove(path("csv").c_str());
  }

  /// Write `trace` in blocks of `chunk` requests.
  void write(const LocationTrace& trace, std::size_t chunk) const {
    VectorStream stream(trace.requests, chunk);
    write_binary_stream(stream, path("bin"));
  }

  /// Drain the binary file and return the runtime_error message it raises
  /// (empty when it reads cleanly).
  std::string read_error() const {
    try {
      const auto stream = open_binary_stream(path("bin"));
      (void)collect(*stream);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }

  void write_csv_text(const std::string& text) const {
    std::ofstream out(path("csv"));
    out << text;
  }
  std::string csv_error() const {
    try {
      (void)read_csv_trace(path("csv"));
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(TraceIoTest, BinaryRoundTrip) {
  const auto original = sample_trace();
  write(original, 64);
  const auto stream = open_binary_stream(path("bin"));
  ASSERT_EQ(stream->size_hint(), original.requests.size());
  const auto loaded = collect(*stream);
  ASSERT_EQ(loaded.size(), original.requests.size());
  Bytes loaded_bytes = 0;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].timestamp_s, original.requests[i].timestamp_s);
    EXPECT_EQ(loaded[i].object, original.requests[i].object);
    EXPECT_EQ(loaded[i].size, original.requests[i].size);
    EXPECT_EQ(loaded[i].location, original.requests[i].location);
    loaded_bytes += loaded[i].size;
  }
  EXPECT_EQ(loaded_bytes, original.total_bytes());
}

TEST_F(TraceIoTest, CsvRoundTrip) {
  const auto original = sample_trace();
  write_csv(original, path("csv"));
  const auto loaded = read_csv_trace(path("csv"));
  ASSERT_EQ(loaded.requests.size(), original.requests.size());
  EXPECT_EQ(loaded.requests[7].object, original.requests[7].object);
  EXPECT_EQ(loaded.requests[7].size, original.requests[7].size);
  EXPECT_EQ(loaded.location, 3);
}

TEST_F(TraceIoTest, EmptyTraceRoundTrip) {
  write(LocationTrace{}, 64);
  // Header (magic + u64 total) and the terminating zero block only.
  EXPECT_EQ(std::filesystem::file_size(path("bin")), 8u + 8u + 4u);
  const auto stream = open_binary_stream(path("bin"));
  EXPECT_EQ(stream->size_hint(), 0u);
  RequestBlock block;
  EXPECT_FALSE(stream->next(block));
  EXPECT_TRUE(block.empty());
  EXPECT_FALSE(stream->next(block));  // end of stream is sticky
}

TEST_F(TraceIoTest, BadMagicRejected) {
  {
    std::ofstream out(path("bin"), std::ios::binary);
    out << "NOTATRACEFILE....";
  }
  EXPECT_THROW((void)open_binary_stream(path("bin")), std::runtime_error);
}

TEST_F(TraceIoTest, TruncatedFileRejected) {
  // Blocks of 200, 200 and 100 requests (26 bytes each on disk).
  write(sample_trace(), 200);
  const auto full = std::filesystem::file_size(path("bin"));
  // Cut inside block 0's columns, inside block 1's count, inside block 1's
  // columns, and inside the terminating zero count.
  const std::uint64_t block1 = kFirstCountAt + 4 + 200 * 26;
  for (const auto& [size, block] :
       {std::pair<std::uint64_t, const char*>{64, "block 0"},
        {block1 + 2, "block 1"},
        {block1 + 4 + 1000, "block 1"},
        {full - 1, "block 3"}}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    write(sample_trace(), 200);
    std::filesystem::resize_file(path("bin"), size);
    const std::string error = read_error();
    EXPECT_NE(error.find(path("bin")), std::string::npos) << error;
    EXPECT_NE(error.find(block), std::string::npos) << error;
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  }
  // A header cut short fails at open.
  std::filesystem::resize_file(path("bin"), 12);
  EXPECT_THROW((void)open_binary_stream(path("bin")), std::runtime_error);
}

TEST_F(TraceIoTest, HugeBlockCountRejectedBeforeAllocation) {
  // Splice an absurd u32 count over block 0's: sizing the columns to it
  // would ask for ~100 GB. The count must be bounded by the bytes left in
  // the file first, and reported like truncation — not as bad_alloc.
  for (const std::uint32_t count : {0xFFFF'FFFFu, 501u}) {
    SCOPED_TRACE("count=" + std::to_string(count));
    write(sample_trace(), 500);
    {
      std::fstream f(path("bin"),
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(kFirstCountAt);
      f.write(reinterpret_cast<const char*>(&count), sizeof count);
    }
    const auto stream = open_binary_stream(path("bin"));
    RequestBlock block;
    try {
      (void)stream->next(block);
      ADD_FAILURE() << "corrupt count accepted";
    } catch (const std::runtime_error& e) {
      const std::string error = e.what();
      EXPECT_NE(error.find(path("bin")), std::string::npos) << error;
      EXPECT_NE(error.find("block 0"), std::string::npos) << error;
      EXPECT_NE(error.find(std::to_string(count)), std::string::npos)
          << error;
    }
  }
}

TEST_F(TraceIoTest, CsvShortRowNamesPathAndLine) {
  write_csv_text(
      "timestamp_s,object,size,location\n"
      "0.5,7,1000,2\n"
      "1.0,8\n");
  const std::string error = csv_error();
  EXPECT_NE(error.find(path("csv") + ":3:3"), std::string::npos) << error;
  EXPECT_NE(error.find("expected 4 fields"), std::string::npos) << error;
}

TEST_F(TraceIoTest, CsvNonNumericFieldNamesPathLineAndColumn) {
  write_csv_text(
      "timestamp_s,object,size,location\n"
      "\n"
      "0.5,7,1000,2\n"
      "1.0,8,12kb,2\n");
  const std::string error = csv_error();
  EXPECT_NE(error.find(path("csv") + ":4:3"), std::string::npos) << error;
  EXPECT_NE(error.find("size '12kb'"), std::string::npos) << error;

  write_csv_text("timestamp_s,object,size,location\nsoon,7,1000,2\n");
  EXPECT_NE(csv_error().find(":2:1: timestamp_s 'soon'"), std::string::npos)
      << csv_error();
}

TEST_F(TraceIoTest, CsvLocationMustFitU16) {
  write_csv_text(
      "timestamp_s,object,size,location\n"
      "0.5,7,1000,65535\n"
      "1.0,8,1000,65536\n");
  const std::string error = csv_error();
  EXPECT_NE(error.find(path("csv") + ":3:4"), std::string::npos) << error;
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST_F(TraceIoTest, CsvNonFiniteTimestampRejected) {
  // A NaN would break the strict weak order merge_by_time sorts by.
  write_csv_text(
      "timestamp_s,object,size,location\n"
      "5,7,1000,0\n"
      "nan,8,1000,0\n");
  std::string error = csv_error();
  EXPECT_NE(error.find(path("csv") + ":3:1"), std::string::npos) << error;
  EXPECT_NE(error.find("timestamp_s 'nan' is not finite"), std::string::npos)
      << error;

  write_csv_text("timestamp_s,object,size,location\ninf,7,1000,0\n");
  error = csv_error();
  EXPECT_NE(error.find(":2:1: timestamp_s 'inf' is not finite"),
            std::string::npos)
      << error;
}

TEST_F(TraceIoTest, CsvTimestampGoingBackRejected) {
  write_csv_text(
      "timestamp_s,object,size,location\n"
      "5,7,1000,0\n"
      "5,8,1000,0\n"
      "1,9,1000,0\n");
  const std::string error = csv_error();
  EXPECT_NE(error.find(path("csv") + ":4:1"), std::string::npos) << error;
  EXPECT_NE(error.find("timestamp_s '1' precedes the previous row's '5'"),
            std::string::npos)
      << error;
}

TEST_F(TraceIoTest, CsvSecondLocationRejected) {
  write_csv_text(
      "timestamp_s,object,size,location\n"
      "1,7,1000,0\n"
      "2,8,1000,0\n"
      "3,9,1000,3\n");
  const std::string error = csv_error();
  EXPECT_NE(error.find(path("csv") + ":4:4"), std::string::npos) << error;
  EXPECT_NE(error.find("location '3' differs from the first row's 0"),
            std::string::npos)
      << error;
}

TEST(TraceIo, MissingFilesThrow) {
  EXPECT_THROW((void)open_binary_stream("/nonexistent/trace.bin"),
               std::runtime_error);
  const std::vector<Request> none;
  VectorStream empty(none);
  EXPECT_THROW(write_binary_stream(empty, "/nonexistent/dir/trace.bin"),
               std::runtime_error);
  EXPECT_THROW((void)read_csv_trace("/nonexistent/trace.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace starcdn::trace
