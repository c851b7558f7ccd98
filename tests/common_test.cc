#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "common/flat_counter.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"
#include "common/statusor.h"

namespace mpcqp {
namespace {

// ---------- Status / StatusOr ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllConstructorsProduceDistinctCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnimplementedError("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> v = std::vector<int>{1, 2, 3};
  const std::vector<int> moved = std::move(v).value();
  EXPECT_EQ(moved.size(), 3u);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  MPCQP_ASSIGN_OR_RETURN(*out, Half(x));
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseAssignOrReturn(7, &out).code(), StatusCode::kInvalidArgument);
}

// ---------- HashFunction ----------

TEST(HashTest, Deterministic) {
  const HashFunction h(7);
  EXPECT_EQ(h.Hash(123), h.Hash(123));
  const HashFunction h2(7);
  EXPECT_EQ(h.Hash(123), h2.Hash(123));
}

TEST(HashTest, SeedsDiffer) {
  const HashFunction a(1);
  const HashFunction b(2);
  int differ = 0;
  for (uint64_t v = 0; v < 100; ++v) {
    if (a.Hash(v) != b.Hash(v)) ++differ;
  }
  EXPECT_GE(differ, 99);
}

TEST(HashTest, BucketInRange) {
  const HashFunction h(3);
  for (uint64_t v = 0; v < 1000; ++v) {
    const int b = h.Bucket(v, 7);
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 7);
  }
}

TEST(HashTest, BucketsRoughlyUniform) {
  const HashFunction h(11);
  const int buckets = 10;
  std::vector<int> counts(buckets, 0);
  const int n = 100000;
  for (int v = 0; v < n; ++v) ++counts[h.Bucket(v, buckets)];
  for (int c : counts) {
    EXPECT_GT(c, n / buckets / 2);
    EXPECT_LT(c, n / buckets * 2);
  }
}

TEST(HashTest, HashSpanSensitiveToEveryPosition) {
  const HashFunction h(5);
  const uint64_t a[] = {1, 2, 3};
  const uint64_t b[] = {1, 2, 4};
  const uint64_t c[] = {0, 2, 3};
  EXPECT_NE(h.HashSpan(a, 3), h.HashSpan(b, 3));
  EXPECT_NE(h.HashSpan(a, 3), h.HashSpan(c, 3));
  EXPECT_EQ(h.HashSpan(a, 3), h.HashSpan(a, 3));
}

// The batched span APIs feed the vectorized exchange route pass; they must
// agree element-for-element with the scalar calls.
TEST(HashTest, HashManyMatchesScalarHash) {
  const HashFunction h(13);
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 1000; ++v) values.push_back(v * 2654435761u + 17);
  std::vector<uint64_t> batched(values.size());
  h.HashMany(values.data(), static_cast<int64_t>(values.size()),
             batched.data());
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(batched[i], h.Hash(values[i])) << "index " << i;
  }
}

TEST(HashTest, BucketManyMatchesScalarBucket) {
  const HashFunction h(17);
  const int buckets[] = {1, 2, 7, 64, 1000};
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 1000; ++v) values.push_back(v * 11400714819323198485ull);
  std::vector<int32_t> batched(values.size());
  for (const int p : buckets) {
    h.BucketMany(values.data(), static_cast<int64_t>(values.size()), p,
                 batched.data());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(batched[i], h.Bucket(values[i], p))
          << "index " << i << " buckets " << p;
    }
  }
}

// Edge cases the vectorized rewrite introduced: empty batches, batches
// smaller than one SIMD lane, non-multiple-of-lane tails, and the
// degenerate single-bucket reduce must all match the scalar calls (and
// must not touch memory past the requested count).
TEST(HashTest, HashManyEdgeCountsMatchScalar) {
  const HashFunction h(23);
  const uint64_t values[] = {0,  ~uint64_t{0}, 1ull << 63, 5, 6,
                             7,  8,            9,          10, 11};
  for (int64_t count : {0, 1, 2, 3, 5, 7, 9}) {
    std::vector<uint64_t> out(10, 0xfeed);
    h.HashMany(values, count, out.data());
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(i)], h.Hash(values[i]))
          << "count " << count << " index " << i;
    }
    for (size_t i = static_cast<size_t>(count); i < out.size(); ++i) {
      ASSERT_EQ(out[i], 0xfeedu) << "wrote past count " << count;
    }
  }
}

TEST(HashTest, BucketManyEdgeCountsAndSingleBucket) {
  const HashFunction h(29);
  const uint64_t values[] = {0,  ~uint64_t{0}, 1ull << 63, 5, 6,
                             7,  8,            9,          10, 11};
  for (int64_t count : {0, 1, 2, 3, 5, 7, 9}) {
    for (int buckets : {1, 3, 1024}) {
      std::vector<int32_t> out(10, -42);
      h.BucketMany(values, count, buckets, out.data());
      for (int64_t i = 0; i < count; ++i) {
        ASSERT_EQ(out[static_cast<size_t>(i)], h.Bucket(values[i], buckets))
            << "count " << count << " buckets " << buckets << " index " << i;
        if (buckets == 1) {
          ASSERT_EQ(out[static_cast<size_t>(i)], 0);
        }
      }
      for (size_t i = static_cast<size_t>(count); i < out.size(); ++i) {
        ASSERT_EQ(out[i], -42) << "wrote past count " << count;
      }
    }
  }
}

TEST(HashFamilyTest, MembersIndependent) {
  const HashFamily family(99, 3);
  ASSERT_EQ(family.size(), 3);
  int collisions = 0;
  for (uint64_t v = 0; v < 200; ++v) {
    if (family.at(0).Bucket(v, 16) == family.at(1).Bucket(v, 16)) {
      ++collisions;
    }
  }
  // Expect ~1/16 agreement, far below half.
  EXPECT_LT(collisions, 50);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(13), 13u);
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(3);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

// ---------- FlatCounter::MaxCount ----------

TEST(FlatCounterMaxCountTest, EmptyCounterIsZero) {
  EXPECT_EQ(FlatCounter().MaxCount(), 0);
  EXPECT_EQ(FlatCounter(1000).MaxCount(), 0);
}

TEST(FlatCounterMaxCountTest, SurvivesRehashAndMergeFrom) {
  FlatCounter counter;  // 16 slots: the loop below grows it several times.
  counter.Add(0, 40);
  counter.Add(UINT64_MAX, 7);
  EXPECT_EQ(counter.MaxCount(), 40);
  for (uint64_t k = 1; k <= 1000; ++k) counter.Add(k, 3);
  EXPECT_EQ(counter.num_keys(), 1002);
  EXPECT_EQ(counter.MaxCount(), 40);
  counter.Reserve(100000);  // An explicit rehash to a larger table.
  EXPECT_EQ(counter.MaxCount(), 40);

  // The merged maximum is a sum no single input held.
  FlatCounter other;
  for (uint64_t k = 500; k < 3000; ++k) other.Add(k, 2);
  other.Add(UINT64_MAX, 50);
  EXPECT_EQ(other.MaxCount(), 50);
  counter.MergeFrom(other);
  EXPECT_EQ(counter.num_keys(), 3001);
  EXPECT_EQ(counter.MaxCount(), 57);
  EXPECT_EQ(counter.Get(UINT64_MAX), 57);
}

}  // namespace
}  // namespace mpcqp
