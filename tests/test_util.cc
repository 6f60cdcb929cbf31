// Tests for the utility layer: timers, deterministic RNG, table printing,
// and command-line parsing.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace ligra;

TEST(Timer, MeasuresElapsedTime) {
  timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.stop();
  EXPECT_GE(t.elapsed(), 0.015);
  EXPECT_LT(t.elapsed(), 5.0);
}

TEST(Timer, AccumulatesAcrossStartStop) {
  timer t(false);
  EXPECT_FALSE(t.running());
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  double first = t.elapsed();
  t.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  EXPECT_GT(t.elapsed(), first);
}

TEST(Timer, ResetClearsTotal) {
  timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.stop();
  t.reset();
  EXPECT_EQ(t.elapsed(), 0.0);
}

TEST(Timer, FormatSeconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0025), "2.500 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.500 us");
}

TEST(Rng, DeterministicAcrossInstances) {
  rng a(42), b(42);
  for (uint64_t i = 0; i < 100; i++) EXPECT_EQ(a[i], b[i]);
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1), b(2);
  int same = 0;
  for (uint64_t i = 0; i < 100; i++) same += (a[i] == b[i]);
  EXPECT_LE(same, 1);
}

TEST(Rng, BoundedStaysInRange) {
  rng r(7);
  for (uint64_t i = 0; i < 10000; i++) {
    EXPECT_LT(r.bounded(i, 17), 17u);
    EXPECT_LT(r.bounded(i, 1), 1u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  rng r(3);
  double sum = 0;
  for (uint64_t i = 0; i < 10000; i++) {
    double u = r.uniform(i);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // crude uniformity check
}

TEST(Rng, ForkGivesIndependentStreams) {
  rng root(1);
  rng a = root.fork(0), b = root.fork(1);
  int same = 0;
  for (uint64_t i = 0; i < 100; i++) same += (a[i] == b[i]);
  EXPECT_LE(same, 1);
}

TEST(SequentialRng, BoundedAndUniform) {
  sequential_rng r(9);
  for (int i = 0; i < 1000; i++) {
    EXPECT_LT(r.bounded(10), 10u);
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Table, AlignsColumns) {
  table_printer t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(1000000000), "1,000,000,000");
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Cli, FlagsWithValues) {
  const char* argv[] = {"prog", "-rounds", "3", "-s", "-file", "g.adj"};
  command_line cl(6, const_cast<char* const*>(argv));
  EXPECT_EQ(cl.get_int("rounds", 1), 3);
  EXPECT_TRUE(cl.has("s"));
  EXPECT_FALSE(cl.has("missing"));
  EXPECT_EQ(cl.get_string("file"), "g.adj");
}

TEST(Cli, EqualsSyntaxAndDefaults) {
  const char* argv[] = {"prog", "-eps=0.5", "--scale=18"};
  command_line cl(3, const_cast<char* const*>(argv));
  EXPECT_DOUBLE_EQ(cl.get_double("eps", 1.0), 0.5);
  EXPECT_EQ(cl.get_int("scale", 0), 18);
  EXPECT_EQ(cl.get_int("absent", 12), 12);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.adj", "-r", "2", "output.bin"};
  command_line cl(5, const_cast<char* const*>(argv));
  ASSERT_EQ(cl.positional().size(), 2u);
  EXPECT_EQ(cl.positional()[0], "input.adj");
  EXPECT_EQ(cl.positional()[1], "output.bin");
  EXPECT_EQ(cl.positional_or(5, "dflt"), "dflt");
}

TEST(Cli, UnknownFlagsListsFlagsOutsideKnownSet) {
  const char* argv[] = {"prog",     "g.adj", "-n",    "10",
                        "-no-pool", "--conc=2", "-repl", "-typo=3"};
  command_line cl(8, const_cast<char* const*>(argv));
  EXPECT_EQ(cl.unknown_flags({"n", "conc", "repl"}),
            (std::vector<std::string>{"no-pool", "typo"}));
  EXPECT_TRUE(cl.unknown_flags({"n", "conc", "repl", "no-pool", "typo"})
                  .empty());
  // Positional arguments are never flags.
  ASSERT_EQ(cl.positional().size(), 1u);
  EXPECT_EQ(cl.positional()[0], "g.adj");
}

TEST(Cli, NegativeNumberValues) {
  const char* argv[] = {"prog", "-delta", "-5"};
  command_line cl(3, const_cast<char* const*>(argv));
  EXPECT_EQ(cl.get_int("delta", 0), -5);
}
