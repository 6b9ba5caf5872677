/**
 * @file
 * Harness tests: option parsing, the checked run and its failure
 * values, table rendering, System-level functional reads and aggregate
 * queries.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/options.hh"
#include "harness/table.hh"
#include "isa/assembler.hh"
#include "tests/sim_test_util.hh"
#include "workload/microbench.hh"

using namespace fenceless;
using namespace fenceless::harness;
using namespace fenceless::test;

namespace
{

constexpr unsigned every_set = Options::Jobs | Options::Machine |
                               Options::Artifacts | Options::Profile |
                               Options::SweepJson | Options::ScaleCsv |
                               Options::Healthy;

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
                            "--shard-report", "--host-telemetry=1",
                            "--trace=all", "--watchdog-storm=16",
                            "--outliers=5"}) {
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
             "--model=sc", "--seed=7", "--stats-json=" + path,
             "--healthy"}) {
        const std::string name = arg.substr(2, arg.find('=') - 2);
        EXPECT_EXIT(parse({arg}, Options::Jobs),
                    testing::ExitedWithCode(1),
                    "unknown option '--" + name + "'")
            << arg;
    }
    EXPECT_FALSE(std::ifstream(path).good()) << path;
    EXPECT_EQ(parse({"--jobs=3"}, Options::Jobs).jobs(), 3u);

    // deadlock_demo's sets accept --healthy.
    const unsigned demo_sets = Options::Machine | Options::Artifacts |
                               Options::Profile | Options::Healthy;
    EXPECT_TRUE(parse({"--healthy"}, demo_sets).healthy());
    EXPECT_FALSE(parse({}, demo_sets).healthy());
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

TEST(Options, SpanOutputsImplySpanSampling)
{
    // Span sampling is off unless an output is made of spans: the tail
    // report, the dossiers, and the trace, whose request arrows are
    // the sampled spans.  --tail-sample sets the period.
    const std::string path = testing::TempDir() + "options_spans.json";
    const auto sampling = [](std::vector<std::string> args) {
        return parse(std::move(args)).applyTo(SystemConfig{}).tail_sample;
    };
    EXPECT_EQ(sampling({}), 0u);
    EXPECT_EQ(sampling({"--stats-json=" + path}), 0u);
    for (const std::string &arg : std::vector<std::string>{
             "--tail-report", "--outliers-out=" + path,
             "--trace-out=" + path})
        EXPECT_EQ(sampling({arg}), 64u) << arg;
    EXPECT_EQ(sampling({"--trace-out=" + path, "--tail-sample=1"}), 1u);
    std::remove(path.c_str());
}

TEST(Options, ShapingOptionWithoutItsOutputIsFatal)
{
    // An option that only shapes an output would do nothing, or work
    // that no output reads, without it: it is refused like an option
    // the binary ignores, before any output file is opened, naming the
    // output it needs.
    const std::string path = testing::TempDir() + "options_shaping.json";
    std::remove(path.c_str());
    const struct
    {
        const char *arg;
        const char *needs;
    } cases[] = {
        {"--stats-interval=10", "--stats-json"},
        {"--tail-sample=1",
         "--tail-report, --outliers-out, --trace-out or --stats-json"},
    };
    for (const auto &c : cases) {
        const std::string name =
            std::string(c.arg).substr(0, std::string(c.arg).find('='));
        EXPECT_EXIT(parse({c.arg}), testing::ExitedWithCode(1),
                    "option " + name + " needs " + c.needs)
            << c.arg;
        EXPECT_EXIT(parse({c.arg, "--blackbox-out=" + path}),
                    testing::ExitedWithCode(1), "needs")
            << c.arg;
    }
    EXPECT_FALSE(std::ifstream(path).good()) << path;

    // With its output, each shapes it.
    EXPECT_EQ(parse({"--stats-interval=10", "--stats-json=" + path})
                  .applyTo(SystemConfig{})
                  .stats_interval,
              10u);
    EXPECT_EQ(parse({"--tail-sample=1", "--stats-json=" + path})
                  .applyTo(SystemConfig{})
                  .tail_sample,
              1u);
    std::remove(path.c_str());
}

TEST(Options, WrongValueShapeIsFatal)
{
    // The usage spells each option's shape.  A flag given a value is
    // refused, so "--csv=0" cannot read as on, and so is an option
    // given none, so "--stats-json" cannot write a file named "1";
    // both fail before any file is opened.
    std::remove("1");
    for (const std::string arg :
         {"--csv=0", "--healthy=no", "--waste-report=x",
          "--tail-report=1", "--help=x"}) {
        const std::string name = arg.substr(0, arg.find('='));
        EXPECT_EXIT(parse({arg}), testing::ExitedWithCode(1),
                    "option " + name + " takes no value")
            << arg;
    }
    for (const std::string arg : {"--stats-json", "--trace-out", "--cores"}) {
        EXPECT_EXIT(parse({arg}), testing::ExitedWithCode(1),
                    "option " + arg + " needs a value")
            << arg;
    }
    EXPECT_FALSE(std::ifstream("1").good());
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

namespace
{

/** A spinlock run whose postcondition always fails. */
class FailingCheck : public workload::SpinlockCrit
{
  public:
    bool
    check(const workload::MemReader &, std::uint32_t,
          std::string &error) const override
    {
        error = "counter is off by one";
        return false;
    }
};

} // namespace

TEST(RunWorkload, HealthyRunIsOk)
{
    workload::SpinlockCrit wl;
    harness::Run run = runWorkload(wl, testConfig());
    EXPECT_TRUE(run.ok()) << run.error;
    EXPECT_FALSE(run.hung);
    ASSERT_TRUE(run.sys);
    EXPECT_GT(run.sys->runtimeCycles(), 0u);
}

TEST(RunWorkload, WatchdogAbortIsAHang)
{
    workload::SeededDeadlock wl;
    SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 5'000;
    cfg.net.drop_fwd_acks_for = {wl.blockX(), wl.blockY()};
    harness::Run run = runWorkload(wl, cfg);
    EXPECT_TRUE(run.hung);
    EXPECT_NE(run.error.find("watchdog abort"), std::string::npos)
        << run.error;
    // The System stays for the incident report.
    ASSERT_TRUE(run.sys);
    EXPECT_TRUE(run.sys->hung());
    EXPECT_NE(run.sys->dossier().find("DEADLOCK CYCLE"),
              std::string::npos);
}

TEST(RunWorkload, ExhaustedCycleBudgetIsAHang)
{
    workload::SpinlockCrit wl;
    SystemConfig cfg = testConfig();
    cfg.max_cycles = 100;
    cfg.watchdog_interval = 0;
    harness::Run run = runWorkload(wl, cfg);
    EXPECT_TRUE(run.hung);
    EXPECT_NE(run.error.find("cycle budget"), std::string::npos)
        << run.error;
    ASSERT_TRUE(run.sys);
    EXPECT_FALSE(run.sys->hung());
}

TEST(RunWorkload, DrainedQueueIsAHang)
{
    // With no probe armed, a queue that drains before every core has
    // halted ends the run as a hang at once: the seeded deadlock drains
    // at tick 176, far short of its cycle budget and its first snapshot.
    workload::SeededDeadlock wl;
    SystemConfig cfg = testConfig(2);
    cfg.watchdog_interval = 0;
    cfg.stats_interval = 1'000;
    cfg.max_cycles = 20'000;
    cfg.net.drop_fwd_acks_for = {wl.blockX(), wl.blockY()};
    harness::Run run = runWorkload(wl, cfg);
    EXPECT_TRUE(run.hung);
    EXPECT_NE(run.error.find("event queue drained"), std::string::npos)
        << run.error;
    EXPECT_EQ(run.error.find("cycle budget"), std::string::npos)
        << run.error;
    ASSERT_TRUE(run.sys);
    EXPECT_TRUE(run.sys->hung());
    EXPECT_EQ(run.sys->curTick(), 176u);
    EXPECT_TRUE(run.sys->snapshots().empty());
    const std::string &dossier = run.sys->dossier();
    EXPECT_EQ(dossier.rfind("=== stall dossier @176 ===\n", 0), 0u)
        << dossier;
    EXPECT_NE(dossier.find("DEADLOCK CYCLE"), std::string::npos);
}

TEST(RunWorkload, FailedPostconditionIsNotAHang)
{
    FailingCheck wl;
    harness::Run run = runWorkload(wl, testConfig());
    EXPECT_FALSE(run.ok());
    EXPECT_FALSE(run.hung);
    EXPECT_EQ(run.error, "workload 'spinlock-crit' failed verification: "
                         "counter is off by one");
    ASSERT_TRUE(run.sys);
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
