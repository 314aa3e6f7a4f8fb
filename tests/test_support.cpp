//===- tests/test_support.cpp - support library unit tests ----------------===//

#include "support/Casting.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace unit;

namespace {

// A tiny class hierarchy exercising the LLVM-style RTTI.
struct Animal {
  enum class Kind { Cat, Dog };
  Kind K;
  explicit Animal(Kind K) : K(K) {}
};
struct Cat : Animal {
  Cat() : Animal(Kind::Cat) {}
  static bool classof(const Animal *A) { return A->K == Kind::Cat; }
};
struct Dog : Animal {
  Dog() : Animal(Kind::Dog) {}
  static bool classof(const Animal *A) { return A->K == Kind::Dog; }
};

TEST(Casting, IsaAndDynCast) {
  Cat C;
  Animal *A = &C;
  EXPECT_TRUE(isa<Cat>(A));
  EXPECT_FALSE(isa<Dog>(A));
  EXPECT_NE(dyn_cast<Cat>(A), nullptr);
  EXPECT_EQ(dyn_cast<Dog>(A), nullptr);
  EXPECT_EQ(cast<Cat>(A), &C);
}

TEST(Casting, DynCastOrNull) {
  EXPECT_EQ((dyn_cast_or_null<Cat, Animal>(nullptr)), nullptr);
  Dog D;
  EXPECT_EQ(dyn_cast_or_null<Cat>(static_cast<Animal *>(&D)), nullptr);
}

TEST(Random, Deterministic) {
  SplitMix64 A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, UniformInRange) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = Rng.uniform(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Random, UniformRealInUnitInterval) {
  SplitMix64 Rng(9);
  for (int I = 0; I < 1000; ++I) {
    double V = Rng.uniformReal();
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 1.0);
  }
}

TEST(StringUtils, FormatStr) {
  EXPECT_EQ(formatStr("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(formatStr("%05.1f", 2.25), "002.2");
}

TEST(StringUtils, JoinAndShape) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(shapeStr({2, 3, 4}), "2x3x4");
}

TEST(StringUtils, Pad) {
  EXPECT_EQ(padLeft("x", 3), "  x");
  EXPECT_EQ(padRight("x", 3), "x  ");
  EXPECT_EQ(padLeft("xxxx", 3), "xxxx");
}

TEST(StringUtils, ParseNumberAcceptsOnlyAWholeInRangeNumber) {
  int64_t I = 7;
  std::string Err;
  EXPECT_TRUE(parseNumber("0", 0, 1024, I, Err));
  EXPECT_EQ(I, 0);
  EXPECT_TRUE(parseNumber("1024", 0, 1024, I, Err));
  EXPECT_EQ(I, 1024);
  EXPECT_TRUE(parseNumber("-3", -5, 5, I, Err));
  EXPECT_EQ(I, -3);

  // Each rejection names its reason and leaves the output alone.
  auto Rejects = [](const char *Text, int64_t Min, int64_t Max,
                    const char *Reason) {
    int64_t Out = 42;
    std::string Why;
    EXPECT_FALSE(parseNumber(Text, Min, Max, Out, Why)) << Text;
    EXPECT_NE(Why.find(Reason), std::string::npos) << Text << ": " << Why;
    EXPECT_EQ(Out, 42) << Text;
  };
  Rejects("", 0, 10, "empty");
  Rejects("x", 0, 10, "not a number");
  Rejects(" 8", 0, 10, "not a number");
  Rejects("+8", 0, 10, "not a number");
  Rejects("8x", 0, 10, "trailing");
  Rejects("8 ", 0, 10, "trailing");
  Rejects("1.5", 0, 10, "trailing");
  Rejects("-1", 0, 10, "negative");
  Rejects("-99999999999999999999", 0, 10, "negative");
  Rejects("11", 0, 10, "outside [0, 10]");
  Rejects("-6", -5, 5, "outside [-5, 5]");
  Rejects("99999999999999999999", 0, INT64_MAX, "outside");
  Rejects("4294967295", 0, 1024, "outside");

  double D = 0;
  EXPECT_TRUE(parseNumber("0.5", 0.0, 60.0, D, Err));
  EXPECT_EQ(D, 0.5);
  EXPECT_TRUE(parseNumber("30", 0.0, 60.0, D, Err));
  EXPECT_EQ(D, 30.0);
  EXPECT_TRUE(parseNumber("1e1", 0.0, 60.0, D, Err));
  EXPECT_EQ(D, 10.0);
  for (const char *Bad : {"", "nan", "inf", "-0.5", "61", "5s", "1e999"}) {
    double Out = 3;
    EXPECT_FALSE(parseNumber(Bad, 0.0, 60.0, Out, Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
    EXPECT_EQ(Out, 3) << Bad;
  }
}

TEST(Table, RendersAligned) {
  Table T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string S = T.str();
  EXPECT_NE(S.find("name       value"), std::string::npos);
  EXPECT_NE(S.find("long-name  22"), std::string::npos);
}

} // namespace
