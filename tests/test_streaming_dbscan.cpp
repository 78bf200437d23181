// The union-find consumer the fused passes write into: its own argument
// checks. Its labels and degrees are checked where the passes fill it
// (test_fused, test_neighbor_table's host fused batch).
#include "dbscan/streaming_dbscan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace hdbscan {
namespace {

TEST(StreamingDbscan, RejectsMinptsBelowOne) {
  EXPECT_THROW(StreamingDbscan(10, 0), std::invalid_argument);
  EXPECT_THROW(StreamingDbscan(10, -3), std::invalid_argument);
}

TEST(StreamingDbscan, SecondFinalizeThrows) {
  StreamingDbscan done(4, 1);
  (void)done.finalize();
  EXPECT_THROW((void)done.finalize(), std::logic_error);
}

}  // namespace
}  // namespace hdbscan
