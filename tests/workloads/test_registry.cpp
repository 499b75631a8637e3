// The workload-registry API contract (harness/workload_registry.hpp):
// duplicate rejection, comma-selection resolution, the unknown-workload
// error listing every registered name, flag group isolation through the
// CLI parser, and the `gates` meta block the regression gate reads.

#include <gtest/gtest.h>

#include "harness/workload_registry.hpp"
#include "util/cli.hpp"

namespace {

using klsm::bench::workload_entry;
using klsm::bench::workload_registry;

workload_entry entry(const std::string &name,
                     const std::string &summary = "") {
    workload_entry e;
    e.name = name;
    e.summary = summary;
    return e;
}

TEST(WorkloadRegistry, RegistersInOrder) {
    workload_registry reg;
    EXPECT_TRUE(reg.add(entry("alpha")));
    EXPECT_TRUE(reg.add(entry("beta")));
    EXPECT_EQ(reg.names(), (std::vector<std::string>{"alpha", "beta"}));
    EXPECT_EQ(reg.names_joined(), "alpha, beta");
    ASSERT_NE(reg.find("alpha"), nullptr);
    EXPECT_EQ(reg.find("alpha")->name, "alpha");
    EXPECT_EQ(reg.find("gamma"), nullptr);
}

TEST(WorkloadRegistry, RejectsDuplicateAndEmptyNames) {
    workload_registry reg;
    EXPECT_TRUE(reg.add(entry("alpha")));
    EXPECT_FALSE(reg.add(entry("alpha")));
    EXPECT_FALSE(reg.add(entry("")));
    EXPECT_EQ(reg.names().size(), 1u);
}

TEST(WorkloadRegistry, ResolvesCommaListInOrderWithDedup) {
    workload_registry reg;
    reg.add(entry("alpha"));
    reg.add(entry("beta"));
    reg.add(entry("gamma"));
    std::string err;
    const auto out = reg.resolve("gamma,alpha,gamma", &err);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0]->name, "gamma");
    EXPECT_EQ(out[1]->name, "alpha");
}

TEST(WorkloadRegistry, UnknownNameListsRegisteredWorkloads) {
    workload_registry reg;
    reg.add(entry("alpha"));
    reg.add(entry("beta"));
    std::string err;
    EXPECT_TRUE(reg.resolve("alpha,nosuch", &err).empty());
    EXPECT_NE(err.find("nosuch"), std::string::npos);
    EXPECT_NE(err.find("alpha"), std::string::npos);
    EXPECT_NE(err.find("beta"), std::string::npos);
}

TEST(WorkloadRegistry, EmptySelectionIsAnError) {
    workload_registry reg;
    reg.add(entry("alpha"));
    std::string err;
    EXPECT_TRUE(reg.resolve("", &err).empty());
    EXPECT_NE(err.find("alpha"), std::string::npos);
    err.clear();
    EXPECT_TRUE(reg.resolve(",,", &err).empty());
    EXPECT_FALSE(err.empty());
}

TEST(WorkloadRegistry, FlagGroupsStayIsolated) {
    workload_registry reg;
    auto a = entry("alpha", "first summary");
    a.register_flags = [](klsm::cli_parser &cli) {
        cli.add_flag("alpha-size", "1", "size");
        cli.add_flag("alpha-mode", "x", "mode");
    };
    auto b = entry("beta");
    b.register_flags = [](klsm::cli_parser &cli) {
        cli.add_flag("beta-rate", "2", "rate");
    };
    reg.add(a);
    reg.add(b);

    klsm::cli_parser cli{"test"};
    cli.add_flag("core-flag", "0", "stays unheaded");
    reg.register_flags(cli);

    const auto &ae = *reg.find("alpha");
    const auto &be = *reg.find("beta");
    EXPECT_EQ(workload_registry::group_title(ae),
              "alpha workload — first summary");
    EXPECT_EQ(workload_registry::group_title(be), "beta workload");
    EXPECT_EQ(cli.group_flags(workload_registry::group_title(ae)),
              (std::vector<std::string>{"alpha-size", "alpha-mode"}));
    EXPECT_EQ(cli.group_flags(workload_registry::group_title(be)),
              (std::vector<std::string>{"beta-rate"}));
    // The pre-group core flag belongs to no group.
    EXPECT_EQ(cli.group_flags(""), (std::vector<std::string>{"core-flag"}));
    EXPECT_EQ(cli.groups(),
              (std::vector<std::string>{
                  workload_registry::group_title(ae),
                  workload_registry::group_title(be)}));
}

TEST(WorkloadRegistryDeathTest, DuplicateFlagNameExits) {
    // Two workloads claiming the same flag is a programming error the
    // parser turns into an immediate exit — a silent collision would
    // leave one workload reading the other's value.
    EXPECT_EXIT(
        {
            klsm::cli_parser cli{"test"};
            cli.add_flag("shared-name", "1", "first owner");
            cli.add_flag("shared-name", "2", "second owner");
        },
        ::testing::ExitedWithCode(2), "registered twice");
}

TEST(WorkloadRegistry, GatesSerializeKeyedByWorkload) {
    auto a = entry("alpha");
    a.gates = {
        {.path = "ops_per_sec", .unit = "ops/s", .better = "higher"},
        {.path = "x.ok",
         .unit = "bool",
         .better = "higher",
         .kind = "verdict",
         .tolerance = "search",
         .floor = 0.5,
         .require = "x.reliable",
         .match = "x.mode",
         .context = {"x.a", "x.b"}},
    };
    const auto b = entry("beta");
    EXPECT_EQ(klsm::bench::gates_json({&a, &b}),
              "{\"alpha\":["
              "{\"path\":\"ops_per_sec\",\"unit\":\"ops/s\","
              "\"better\":\"higher\",\"kind\":\"scalar\","
              "\"tolerance\":\"rate\"},"
              "{\"path\":\"x.ok\",\"unit\":\"bool\","
              "\"better\":\"higher\",\"kind\":\"verdict\","
              "\"tolerance\":\"search\",\"floor\":0.5,"
              "\"requires\":\"x.reliable\",\"match\":\"x.mode\","
              "\"context\":[\"x.a\",\"x.b\"]}],"
              "\"beta\":[]}");
}

TEST(WorkloadRegistry, ReclaimSoakDefaultsOff) {
    workload_registry reg;
    auto soak = entry("soak");
    soak.reclaim_soak = true;
    reg.add(soak);
    reg.add(entry("plain"));
    EXPECT_TRUE(reg.find("soak")->reclaim_soak);
    EXPECT_FALSE(reg.find("plain")->reclaim_soak);
}

} // namespace
