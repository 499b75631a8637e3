#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace klsm {
namespace {

cli_parser make_parser() {
    cli_parser p("test");
    p.add_flag("threads", "4", "thread count");
    p.add_flag("duration", "0.5", "seconds");
    p.add_flag("queues", "a,b,c", "queue list");
    p.add_flag("verbose", "false", "verbosity");
    return p;
}

TEST(Cli, Defaults) {
    cli_parser p = make_parser();
    char prog[] = "prog";
    char *argv[] = {prog};
    p.parse(1, argv);
    EXPECT_EQ(p.get_int("threads"), 4);
    EXPECT_DOUBLE_EQ(p.get_double("duration"), 0.5);
    EXPECT_FALSE(p.get_bool("verbose"));
}

TEST(Cli, SpaceSeparatedValues) {
    cli_parser p = make_parser();
    char prog[] = "prog", f[] = "--threads", v[] = "16";
    char *argv[] = {prog, f, v};
    p.parse(3, argv);
    EXPECT_EQ(p.get_int("threads"), 16);
}

TEST(Cli, EqualsSeparatedValues) {
    cli_parser p = make_parser();
    char prog[] = "prog", f[] = "--duration=2.25";
    char *argv[] = {prog, f};
    p.parse(2, argv);
    EXPECT_DOUBLE_EQ(p.get_double("duration"), 2.25);
}

TEST(Cli, IntListParsing) {
    cli_parser p("test");
    p.add_flag("threads", "1,2,4,8", "sweep");
    char prog[] = "prog";
    char *argv[] = {prog};
    p.parse(1, argv);
    const auto v = p.get_int_list("threads");
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 1);
    EXPECT_EQ(v[3], 8);
}

TEST(Cli, StringListParsing) {
    cli_parser p = make_parser();
    char prog[] = "prog", f[] = "--queues=klsm256,dlsm";
    char *argv[] = {prog, f};
    p.parse(2, argv);
    const auto v = p.get_list("queues");
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[0], "klsm256");
    EXPECT_EQ(v[1], "dlsm");
}

TEST(Cli, Uint64FullRange) {
    // Seeds are full 64-bit hashes; get_int (stoll) cannot represent
    // values above INT64_MAX.  get_uint64 must.
    cli_parser p("test");
    p.add_flag("seed", "1", "rng seed");
    char prog[] = "prog", f[] = "--seed=18446744073709551615";
    char *argv[] = {prog, f};
    p.parse(2, argv);
    EXPECT_EQ(p.get_uint64("seed"), 18446744073709551615ULL);
}

TEST(Cli, Uint64AboveIntMax) {
    cli_parser p("test");
    // 2^31 and 2^63 - 1: both overflow the old int cast path.
    p.add_flag("seed", "9223372036854775807", "rng seed");
    char prog[] = "prog";
    char *argv[] = {prog};
    p.parse(1, argv);
    EXPECT_EQ(p.get_uint64("seed"), 9223372036854775807ULL);
}

TEST(CliDeathTest, Uint64RejectsGarbage) {
    // Strict parse: trailing garbage, scientific notation, negatives
    // and overflow all exit(2) instead of silently truncating/wrapping.
    for (const char *bad : {"1e6", "12abc", "-1", "+1", "", " -1", " 5",
                            "18446744073709551616"}) {
        cli_parser p("test");
        p.add_flag("seed", "1", "rng seed");
        std::string arg = std::string("--seed=") + bad;
        std::vector<char> buf(arg.begin(), arg.end());
        buf.push_back('\0');
        char prog[] = "prog";
        char *argv[] = {prog, buf.data()};
        p.parse(2, argv);
        EXPECT_EXIT(p.get_uint64("seed"), ::testing::ExitedWithCode(2),
                    "--seed")
            << "input: " << bad;
    }
}

TEST(CliDeathTest, IntStillRejectsTrailingGarbage) {
    cli_parser p = make_parser();
    char prog[] = "prog", f[] = "--threads=1e6";
    char *argv[] = {prog, f};
    p.parse(2, argv);
    EXPECT_EXIT(p.get_int("threads"), ::testing::ExitedWithCode(2),
                "--threads");
}

TEST(CliDeathTest, UnknownFlagIsNamedEvenWithoutAValue) {
    // A removed flag given last must be reported as unknown, not as a
    // known flag missing its value.
    cli_parser p = make_parser();
    char prog[] = "prog", f[] = "--numa";
    char *argv[] = {prog, f};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(2),
                "unknown flag --numa");
}

TEST(CliDeathTest, KnownFlagGivenLastNeedsAValue) {
    cli_parser p = make_parser();
    char prog[] = "prog", f[] = "--threads";
    char *argv[] = {prog, f};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(2),
                "flag --threads needs a value");
}

TEST(Cli, BoolVariants) {
    for (const char *val : {"1", "true", "yes", "on"}) {
        cli_parser p = make_parser();
        std::string arg = std::string("--verbose=") + val;
        char prog[] = "prog";
        std::vector<char> buf(arg.begin(), arg.end());
        buf.push_back('\0');
        char *argv[] = {prog, buf.data()};
        p.parse(2, argv);
        EXPECT_TRUE(p.get_bool("verbose")) << val;
    }
}

} // namespace
} // namespace klsm
