// Tests for the bench binaries' shared helpers (bench/bench_common):
// MetricsJson writes each key once, in first-set order, with the value
// most recently set.

#include <gtest/gtest.h>

#include <string>

#include "bench/bench_common.h"

namespace bw::bench {
namespace {

TEST(MetricsJsonTest, SetReplacesAnExistingKeyInPlace) {
  MetricsJson json;
  json.Set("bench", "service_throughput");
  json.Set("pool_shards", 4.0);
  json.Set("qps", 100.0);
  json.Set("pool_shards", 8.0);
  json.Set("bench", "other");
  EXPECT_EQ(json.ToString(),
            "{\n"
            "  \"bench\": \"other\",\n"
            "  \"pool_shards\": 8,\n"
            "  \"qps\": 100\n"
            "}\n");
}

}  // namespace
}  // namespace bw::bench
