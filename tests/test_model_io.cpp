// Traffic-model persistence round trip: a loaded model must generate the
// exact trace the original would (the "published models" artifact of §4.1).
#include "trace/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "trace/workload.h"
#include "util/geo.h"

namespace starcdn::trace {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto p = default_params(TrafficClass::kVideo);
    p.object_count = 8'000;
    p.requests_per_weight = 3'000;
    p.duration_s = util::kHour.value();
    const WorkloadModel w(util::paper_cities(), p);
    gen_ = new SpaceGen(SpaceGen::fit(w.generate()));
  }
  static void TearDownTestSuite() {
    delete gen_;
    gen_ = nullptr;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  // Per-test file: ctest runs each test in its own process, in parallel.
  std::string path_ =
      (std::filesystem::temp_directory_path() /
       (std::string("starcdn_models_test.") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin"))
          .string();
  static SpaceGen* gen_;
};

SpaceGen* ModelIoTest::gen_ = nullptr;

TEST_F(ModelIoTest, RoundTripPreservesModelStatistics) {
  save_models(*gen_, path_);
  const SpaceGen loaded = load_models(path_);

  EXPECT_EQ(loaded.gpd().object_count(), gen_->gpd().object_count());
  EXPECT_EQ(loaded.gpd().locations(), gen_->gpd().locations());
  EXPECT_EQ(loaded.location_names(), gen_->location_names());
  ASSERT_EQ(loaded.pfds().size(), gen_->pfds().size());
  for (std::size_t i = 0; i < loaded.pfds().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.pfds()[i].request_rate_per_s(),
                     gen_->pfds()[i].request_rate_per_s());
    EXPECT_EQ(loaded.pfds()[i].max_finite_stack_distance(),
              gen_->pfds()[i].max_finite_stack_distance());
    EXPECT_EQ(loaded.pfds()[i].observed_reuses(),
              gen_->pfds()[i].observed_reuses());
  }
}

TEST_F(ModelIoTest, LoadedModelGeneratesIdenticalTrace) {
  save_models(*gen_, path_);
  const SpaceGen loaded = load_models(path_);

  SpaceGenConfig cfg;
  cfg.target_requests_per_location = 2'000;
  const auto a = gen_->generate(cfg);
  const auto b = loaded.generate(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].requests.size(), b[i].requests.size()) << "location " << i;
    for (std::size_t k = 0; k < a[i].requests.size(); ++k) {
      ASSERT_EQ(a[i].requests[k].object, b[i].requests[k].object);
      ASSERT_EQ(a[i].requests[k].size, b[i].requests[k].size);
      ASSERT_EQ(a[i].requests[k].timestamp_s, b[i].requests[k].timestamp_s);
    }
  }
}

TEST_F(ModelIoTest, BadMagicRejected) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "NOTAMODELFILE";
  }
  EXPECT_THROW((void)load_models(path_), std::runtime_error);
}

TEST_F(ModelIoTest, TruncatedFileRejected) {
  save_models(*gen_, path_);
  std::filesystem::resize_file(path_, 200);
  EXPECT_THROW((void)load_models(path_), std::runtime_error);
}

TEST(ModelIo, MissingFileThrows) {
  EXPECT_THROW((void)load_models("/nonexistent/models.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace starcdn::trace
