#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/cost.h"
#include "util/counters.h"
#include "util/rng.h"
#include "util/summary.h"
#include "util/table.h"

namespace fpss {
namespace {

TEST(Cost, DefaultIsZero) {
  EXPECT_EQ(Cost{}, Cost::zero());
  EXPECT_TRUE(Cost{}.is_finite());
  EXPECT_EQ(Cost{}.value(), 0);
}

TEST(Cost, FiniteArithmetic) {
  EXPECT_EQ(Cost{3} + Cost{4}, Cost{7});
  EXPECT_EQ(Cost{5} - Cost{2}, 3);
  EXPECT_EQ(Cost{2} - Cost{5}, -3);  // deltas may be negative
}

TEST(Cost, InfinitySaturates) {
  EXPECT_TRUE(Cost::infinity().is_infinite());
  EXPECT_EQ(Cost::infinity() + Cost{10}, Cost::infinity());
  EXPECT_EQ(Cost{10} + Cost::infinity(), Cost::infinity());
  EXPECT_EQ(Cost::infinity() + Cost::infinity(), Cost::infinity());
}

TEST(Cost, InfinityComparesGreater) {
  EXPECT_LT(Cost{1'000'000'000}, Cost::infinity());
  EXPECT_GT(Cost::infinity(), Cost::zero());
  EXPECT_EQ(Cost::infinity(), Cost::infinity());
}

TEST(Cost, Ordering) {
  EXPECT_LT(Cost{1}, Cost{2});
  EXPECT_LE(Cost{2}, Cost{2});
  EXPECT_GT(Cost{3}, Cost{2});
}

TEST(Cost, ToString) {
  EXPECT_EQ(Cost{42}.to_string(), "42");
  EXPECT_EQ(Cost::infinity().to_string(), "inf");
}

TEST(Cost, PlusDelta) {
  EXPECT_EQ(cost_plus_delta(Cost{10}, 5), Cost{15});
  EXPECT_EQ(cost_plus_delta(Cost{10}, -10), Cost{0});
}

TEST(CostDeathTest, NegativeConstructionAborts) {
  EXPECT_DEATH(Cost{-1}, "precondition");
}

TEST(CostDeathTest, ValueOfInfinityAborts) {
  EXPECT_DEATH(Cost::infinity().value(), "precondition");
}

TEST(Rng, Deterministic) {
  util::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange) {
  util::Rng rng(4);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 4000; ++i) ++seen[rng.below(8)];
  for (int count : seen) EXPECT_GT(count, 300);
}

TEST(Rng, UniformIntInclusive) {
  util::Rng rng(5);
  bool low = false, high = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    low |= (v == -3);
    high |= (v == 3);
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);
}

TEST(Rng, Uniform01InRange) {
  util::Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ParetoBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.pareto(1.2, 50.0);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 50.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  util::Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Summary, BasicMoments) {
  util::Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.stddev(), 1.29099, 1e-4);
}

TEST(Summary, Quantiles) {
  util::Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.quantile(0.95), 95.05, 0.01);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(IntHistogram, CountsAndOverflow) {
  util::IntHistogram h(5);
  for (std::int64_t v : {0, 1, 1, 3, 5, 9}) h.add(v);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Table, TextAlignsColumns) {
  util::Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("b", 22);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvEscapes) {
  util::Table t({"a", "b"});
  t.add("x,y", "he said \"hi\"");
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, MarkdownShape) {
  util::Table t({"h1", "h2"});
  t.add(1, 2);
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| h1 | h2 |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

struct Tally {
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t last = 0;
  static constexpr auto fields() {
    return std::to_array<util::CounterField<Tally>>({
        {"sum", &Tally::sum},
        {"max", &Tally::max},
        {"last", &Tally::last},
    });
  }
};
static_assert(util::counters_complete<Tally>());

// Each way a table can fail to list its record exactly once.
struct MissingField {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  static constexpr auto fields() {
    return std::to_array<util::CounterField<MissingField>>({
        {"a", &MissingField::a},
    });
  }
};
static_assert(!util::counters_complete<MissingField>());
struct RepeatedMember {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  static constexpr auto fields() {
    return std::to_array<util::CounterField<RepeatedMember>>({
        {"a", &RepeatedMember::a},
        {"b", &RepeatedMember::a},
    });
  }
};
static_assert(!util::counters_complete<RepeatedMember>());
struct RepeatedName {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  static constexpr auto fields() {
    return std::to_array<util::CounterField<RepeatedName>>({
        {"a", &RepeatedName::a},
        {"a", &RepeatedName::b},
    });
  }
};
static_assert(!util::counters_complete<RepeatedName>());

TEST(LiveCounters, ConcurrentAddsAndRaisesAreExact) {
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kCalls = 100000;
  util::LiveCounters<Tally> live;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&live, t] {
      for (std::uint64_t i = 1; i <= kCalls; ++i) {
        live.add(&Tally::sum, i);
        live.raise(&Tally::max, i * kThreads + t);
      }
    });
  for (std::thread& thread : threads) thread.join();
  Tally got = live.read();
  EXPECT_EQ(got.sum, kThreads * kCalls * (kCalls + 1) / 2);
  EXPECT_EQ(got.max, kCalls * kThreads + kThreads - 1);
  EXPECT_EQ(got.last, 0u);

  live.raise(&Tally::max, 1);  // a maximum never falls
  live.set(&Tally::last, 7);
  got = live.read();
  EXPECT_EQ(got.max, kCalls * kThreads + kThreads - 1);
  EXPECT_EQ(got.last, 7u);
}

TEST(FormatDouble, TrimsZeros) {
  EXPECT_EQ(util::format_double(1.5), "1.5");
  EXPECT_EQ(util::format_double(2.0), "2");
  EXPECT_EQ(util::format_double(0.125, 3), "0.125");
}

}  // namespace
}  // namespace fpss
