// Tests for src/support and src/parallel: contracts, RNG determinism, tables,
// thread pool and parallel_for semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "support/contracts.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"
#include "support/table.hpp"

namespace radiocast {
namespace {

TEST(Contracts, ExpectsThrowsContractViolation) {
  EXPECT_THROW(RC_EXPECTS(1 == 2), ContractViolation);
  EXPECT_NO_THROW(RC_EXPECTS(1 == 1));
}

TEST(Contracts, MessageNamesExpressionAndLocation) {
  try {
    RC_EXPECTS_MSG(false, "extra context");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
    EXPECT_NE(what.find("test_support.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsuresAndAssertThrow) {
  EXPECT_THROW(RC_ENSURES(false), ContractViolation);
  EXPECT_THROW(RC_ASSERT(false), ContractViolation);
  EXPECT_THROW(RC_ASSERT_MSG(false, "m"), ContractViolation);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  std::vector<int> buckets(8, 0);
  const int trials = 80000;
  for (int i = 0; i < trials; ++i) ++buckets[r.below(8)];
  for (const int b : buckets) {
    EXPECT_NEAR(b, trials / 8, trials / 40);  // within 20% of expectation
  }
}

TEST(Rng, BetweenInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.between(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto w = v;
  r.shuffle(w);
  EXPECT_NE(v, w);  // astronomically unlikely to be equal
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
}

// jump(k) lands exactly where k next() calls do, across the polynomial's
// degree (255/256/257) and far past it, and jumps compose additively.
TEST(Rng, JumpMatchesStepping) {
  // 1048579 = 2^20 + 3.
  const std::uint64_t ks[] = {0, 1, 2, 255, 256, 257, 1048579, 33550336};
  for (const std::uint64_t seed : {1u, 42u, 0x9d2c5680u}) {
    Rng stepped(seed);
    std::uint64_t steps = 0;
    for (const std::uint64_t k : ks) {
      for (; steps < k; ++steps) stepped.next();
      Rng jumped(seed);
      jumped.jump(k);
      EXPECT_TRUE(jumped == stepped) << "seed " << seed << " k " << k;
      EXPECT_EQ(Rng(jumped).next(), Rng(stepped).next());
    }
    const std::pair<std::uint64_t, std::uint64_t> splits[] = {
        {3, 5}, {256, 1}, {1u << 20, 12345}, {0, 7}};
    for (const auto& [a, b] : splits) {
      Rng twice(seed), once(seed);
      twice.jump(a);
      twice.jump(b);
      once.jump(a + b);
      EXPECT_TRUE(twice == once) << a << " + " << b;
    }
  }
}

// The hoisted integer threshold decides every draw exactly as
// `uniform() < p` does, including the draws straddling the threshold.
TEST(Rng, BernoulliThresholdMatchesUniform) {
  const double below_half = std::nextafter(0.5, 0.0);
  for (const double p : {0.0, 0x1.0p-53, below_half, 0.5, 10.0 / 8000, 1.0}) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(17), b(17);
    for (int i = 0; i < 1000000; ++i) {
      const bool by_uniform = a.uniform() < p;
      const bool by_threshold = (b.next() >> 11) < t;
      ASSERT_EQ(by_uniform, by_threshold) << "p " << p << " draw " << i;
    }
    for (const std::uint64_t k : {t, t - 1}) {
      if (k >= (std::uint64_t{1} << 53)) continue;  // t - 1 at p = 0
      const std::uint64_t x = (k << 11) | 0x7ff;
      EXPECT_EQ(Rng::unit(x) < p, (x >> 11) < t) << "p " << p << " k " << k;
    }
  }
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), std::uint64_t{1} << 53);
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "n"});
  t.row().add("path").add(16);
  t.row().add("grid").add(25);
  const auto s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| path"), std::string::npos);
  EXPECT_NE(s.find("| 25"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  TextTable t({"a", "b"});
  t.row().add(1).add(2.5, 1);
  EXPECT_EQ(t.csv(), "a,b\n1,2.5\n");
}

TEST(Table, ArityMismatchFailsFast) {
  TextTable t({"a", "b"});
  t.row().add("only-one");
  EXPECT_THROW((void)t.str(), ContractViolation);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  EXPECT_GE(sw.seconds(), 0.0);
  EXPECT_GE(sw.millis(), sw.seconds());
}

TEST(ThreadPool, RunsAllTasks) {
  par::ThreadPool pool(4);
  std::atomic<int> count{0};
  par::parallel_for(pool, 100, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  par::ThreadPool pool(2);
  EXPECT_THROW(par::parallel_for(pool, 8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // Pool remains usable after an exception.
  std::atomic<int> count{0};
  par::parallel_for(pool, 8, [&count](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
  par::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  par::parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  par::ThreadPool pool(4);
  const auto out =
      par::parallel_map(pool, 257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

// A fan-out issued from inside a task on the same pool finishes (the caller
// runs whatever no idle worker picks up), results keep index order, and an
// inner exception reaches only the call whose body threw.
TEST(ParallelFor, NestedOnSamePoolCompletes) {
  par::ThreadPool pool(2);
  const auto sums = par::parallel_map(pool, 16, [&](std::size_t i) {
    std::vector<std::size_t> inner(100);
    par::parallel_for(pool, inner.size(),
                      [&](std::size_t j) { inner[j] = i * 1000 + j; });
    return std::accumulate(inner.begin(), inner.end(), std::size_t{0});
  });
  ASSERT_EQ(sums.size(), 16u);
  for (std::size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], i * 1000 * 100 + 99 * 100 / 2) << i;
  }

  const auto caught = par::parallel_map(pool, 8, [&](std::size_t i) {
    try {
      par::parallel_for(pool, 50, [&](std::size_t j) {
        if (i % 2 == 1 && j == 17) throw std::runtime_error("inner");
      });
      return 0;
    } catch (const std::runtime_error&) {
      return 1;
    }
  });
  for (std::size_t i = 0; i < caught.size(); ++i) {
    EXPECT_EQ(caught[i], static_cast<int>(i % 2)) << i;
  }

  const auto nested_throw = [&](std::size_t i) {
    par::parallel_for(pool, 10, [&](std::size_t j) {
      if (i == 2 && j == 3) throw std::logic_error("uncaught");
    });
  };
  EXPECT_THROW(par::parallel_for(pool, 4, nested_throw), std::logic_error);
  // The pool is still usable afterwards.
  const auto again =
      par::parallel_map(pool, 5, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(again, (std::vector<std::size_t>{1, 2, 3, 4, 5}));
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  par::ThreadPool pool(2);
  bool touched = false;
  par::parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

}  // namespace
}  // namespace radiocast
