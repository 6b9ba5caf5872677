/**
 * @file
 * Harness tests: option parsing, table rendering, System-level
 * functional reads and aggregate queries.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/options.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "tests/sim_test_util.hh"

using namespace fenceless;
using namespace fenceless::harness;
using namespace fenceless::test;

namespace
{

constexpr unsigned every_set = Options::Jobs | Options::Machine |
                               Options::Artifacts | Options::Profile |
                               Options::SweepJson | Options::ScaleCsv;

Options
parse(std::vector<std::string> args, unsigned sets = every_set)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "prog");
    for (auto &s : storage)
        argv.push_back(s.data());
    return Options(static_cast<int>(argv.size()), argv.data(), sets);
}

} // namespace

TEST(Options, DefaultsWhenEmpty)
{
    Options opts = parse({});
    EXPECT_FALSE(opts.csv());
    EXPECT_EQ(opts.scale(), 1u);
    SystemConfig base;
    SystemConfig cfg = opts.applyTo(base);
    EXPECT_EQ(cfg.num_cores, base.num_cores);
    EXPECT_EQ(cfg.model, base.model);
}

TEST(Options, AppliesMachineSettings)
{
    Options opts = parse({"--cores=12", "--model=rmo",
                          "--spec=continuous", "--sb-size=8",
                          "--l1-kb=16", "--l2-kb=512",
                          "--dram-latency=200", "--net-latency=3"});
    SystemConfig cfg = opts.applyTo(SystemConfig{});
    EXPECT_EQ(cfg.num_cores, 12u);
    EXPECT_EQ(cfg.model, cpu::ConsistencyModel::RMO);
    EXPECT_EQ(cfg.spec.mode, spec::SpecMode::Continuous);
    EXPECT_EQ(cfg.sb_size, 8u);
    EXPECT_EQ(cfg.l1.size, 16u * 1024);
    EXPECT_EQ(cfg.l2.size, 512u * 1024);
    EXPECT_EQ(cfg.l2.dram_latency, 200u);
    EXPECT_EQ(cfg.net.latency, 3u);
}

TEST(Options, GranularityAndOverflow)
{
    Options opts = parse({"--granularity=per-store",
                          "--overflow=rollback", "--spec=on-demand"});
    SystemConfig cfg = opts.applyTo(SystemConfig{});
    EXPECT_EQ(cfg.spec.granularity, spec::Granularity::PerStore);
    EXPECT_EQ(cfg.spec.overflow, spec::OverflowPolicy::Rollback);
    EXPECT_EQ(cfg.spec.mode, spec::SpecMode::OnDemand);
}

TEST(Options, CsvScale)
{
    Options opts = parse({"--csv", "--scale=5"});
    EXPECT_TRUE(opts.csv());
    EXPECT_EQ(opts.scale(), 5u);
}

TEST(Options, UnknownOptionIsFatal)
{
    // Typos and retired flags alike: a run must never silently ignore
    // an option it was given.
    for (const char *arg : {"--bogus", "--parallel-sim=1", "--shards=4",
                            "--shard-report", "--host-telemetry=1"}) {
        EXPECT_EXIT(parse({arg}), testing::ExitedWithCode(1),
                    "unknown option")
            << arg;
    }
}

TEST(Options, OptionOutsideTheBinarysSetsIsFatal)
{
    // A sweep bench honors --jobs only.  Anything else it would ignore
    // is refused like a typo, before a file the option names exists.
    const std::string path =
        testing::TempDir() + "options_outside_sets.json";
    std::remove(path.c_str());
    for (const std::string &arg : std::vector<std::string>{
             "--model=sc", "--seed=7", "--stats-json=" + path}) {
        const std::string name = arg.substr(2, arg.find('=') - 2);
        EXPECT_EXIT(parse({arg}, Options::Jobs),
                    testing::ExitedWithCode(1),
                    "unknown option '--" + name + "'")
            << arg;
    }
    EXPECT_FALSE(std::ifstream(path).good()) << path;
    EXPECT_EQ(parse({"--jobs=3"}, Options::Jobs).jobs(), 3u);
}

TEST(Options, TopologyAndBankingFlags)
{
    SystemConfig cfg = parse({"--topology=mesh", "--hop-latency=5",
                              "--dir-banks=8"})
                           .applyTo(SystemConfig{});
    EXPECT_EQ(cfg.net.topology, mem::Topology::Mesh);
    EXPECT_EQ(cfg.net.hop_latency, 5u);
    EXPECT_EQ(cfg.dir_banks, 8u);

    cfg = parse({"--topology=ring"}).applyTo(SystemConfig{});
    EXPECT_EQ(cfg.net.topology, mem::Topology::Ring);

    // Bad bank counts warn and round down rather than aborting.
    cfg = parse({"--dir-banks=6"}).applyTo(SystemConfig{});
    EXPECT_EQ(cfg.dir_banks, 4u);
    cfg = parse({"--dir-banks=0"}).applyTo(SystemConfig{});
    EXPECT_EQ(cfg.dir_banks, 1u);
    cfg = parse({"--dir-banks=128"}).applyTo(SystemConfig{});
    EXPECT_EQ(cfg.dir_banks, 64u);
}

TEST(Options, UnknownTopologyIsFatal)
{
    EXPECT_EXIT(parse({"--topology=torus"}).applyTo(SystemConfig{}),
                testing::ExitedWithCode(1), "unknown topology");
}

TEST(Options, UnknownTraceFlagIsFatal)
{
    // A name that selects no event kind must fail the run, never
    // record nothing.
    for (const std::string name : {"l1", "dir", "bogus"}) {
        EXPECT_EXIT(parse({"--trace=" + name}).applyTo(SystemConfig{}),
                    testing::ExitedWithCode(1),
                    "unknown trace flag\\(s\\) '" + name +
                        "' \\(valid: core,sb,net,spec,req,stall,all\\)")
            << name;
    }
}

TEST(Options, SimModeEchoedIntoProvenance)
{
    // The machine shape must be recoverable from any output document:
    // stats, trace, and blackbox all embed the provenance object, which
    // carries the sim_mode stanza.
    isa::Assembler as;
    as.nop();
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(2);
    cfg.withDirBanks(2).withTopology(mem::Topology::Ring);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_NE(sys.provenanceJson().find(
                  "\"sim_mode\": {\"dir_banks\": 2, "
                  "\"topology\": \"ring\"}"),
              std::string::npos)
        << sys.provenanceJson();

    for (auto write : {&harness::System::writeStatsJson,
                       &harness::System::exportTrace,
                       &harness::System::writeBlackbox}) {
        std::ostringstream os;
        (sys.*write)(os);
        EXPECT_NE(os.str().find("\"sim_mode\""), std::string::npos);
    }

    harness::System ref(testConfig(2), prog);
    ASSERT_TRUE(ref.run());
    EXPECT_NE(ref.provenanceJson().find(
                  "\"sim_mode\": {\"dir_banks\": 1, "
                  "\"topology\": \"crossbar\"}"),
              std::string::npos);
}

TEST(Options, BadNumberIsFatal)
{
    EXPECT_EXIT(parse({"--cores=banana"}).applyTo(SystemConfig{}),
                testing::ExitedWithCode(1), "expects a number");
}

TEST(Table, AlignedRendering)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "12345"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("12345"), std::string::npos);
    // All lines equal width (aligned columns).
    std::istringstream is(out);
    std::string line;
    std::size_t width = 0;
    while (std::getline(is, line)) {
        if (width == 0)
            width = line.size();
        EXPECT_EQ(line.size(), width) << "line: " << line;
    }
}

TEST(Table, CsvRendering)
{
    Table t({"a", "b"});
    t.addRow({"x", "1"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\nx,1\n");
}

TEST(Table, Fmt)
{
    EXPECT_EQ(fmt(1.2345), "1.23");
    EXPECT_EQ(fmt(1.2345, 3), "1.234");
    EXPECT_EQ(fmt(10.0, 0), "10");
}

TEST(SystemQueries, DebugReadSeesFreshestCopy)
{
    // Core 2 writes and keeps the block in M; debugRead must return the
    // L1 copy, not the stale L2/DRAM one.  With four directory banks
    // the block's home is not bank 0, so the read must pick the home
    // bank and follow its owner to an L1 other than core 0's.
    isa::Assembler as;
    as.paddedWord("pad", 0); // pushes var into the next block
    const Addr var = as.paddedWord("var", 1);
    as.li(isa::t0, 2);
    as.bne(isa::tp, isa::t0, "done");
    as.li(isa::a0, var);
    as.li(isa::t0, 99);
    as.st(isa::t0, isa::a0);
    as.label("done");
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(4);
    cfg.withDirBanks(4);
    ASSERT_NE(var / cfg.l2.block_size % cfg.dir_banks, 0u);
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    const mem::L1Block *blk = sys.l1(2).findBlock(var);
    ASSERT_NE(blk, nullptr);
    EXPECT_EQ(blk->state, mem::L1State::M);
    EXPECT_EQ(sys.debugRead(var, 8), 99u);
}

TEST(SystemQueries, AggregatesAndQuiescence)
{
    isa::Assembler as;
    as.nop();
    as.halt();
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(3);
    cfg.spec.mode = spec::SpecMode::OnDemand;
    harness::System sys(cfg, prog);
    ASSERT_TRUE(sys.run());
    EXPECT_EQ(sys.totalInstructions(), 6u); // (nop + halt) x 3
    EXPECT_EQ(sys.totalCommits(), 0u);
    EXPECT_EQ(sys.totalRollbacks(), 0u);
    EXPECT_TRUE(sys.quiesced());
    EXPECT_NE(sys.specController(0), nullptr);
}

TEST(SystemQueries, SecondRunCompletes)
{
    // run() resets every core, so a second run of the same system must
    // see both cores halt again instead of waiting for the watchdog.
    isa::Assembler as;
    const Addr out = as.array("out", 2);
    as.li(isa::a0, out);
    as.slli(isa::t0, isa::tp, 3);
    as.add(isa::a0, isa::a0, isa::t0);
    as.addi(isa::t1, isa::tp, 7);
    as.st(isa::t1, isa::a0);
    as.halt();
    isa::Program prog = as.finish();

    harness::System sys(testConfig(2), prog);
    for (int run = 0; run < 2; ++run) {
        EXPECT_TRUE(sys.run()) << "run " << run;
        EXPECT_FALSE(sys.hung()) << "run " << run;
        EXPECT_EQ(sys.debugRead(out, 8), 7u);
        EXPECT_EQ(sys.debugRead(out + 8, 8), 8u);
    }
}

TEST(SystemQueries, TimeoutReported)
{
    isa::Assembler as;
    as.label("spin");
    as.jump("spin");
    isa::Program prog = as.finish();

    harness::SystemConfig cfg = testConfig(1);
    cfg.max_cycles = 5000;
    harness::System sys(cfg, prog);
    EXPECT_FALSE(sys.run());
}
