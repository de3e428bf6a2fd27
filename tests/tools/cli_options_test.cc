/**
 * @file
 * The shared subcommand flag parser (tools/cli_options.hh) and the
 * uniform exit-code convention it enforces.
 *
 * Two layers: Parser unit tests against in-process argv arrays, and
 * exit-code regression against the real `deskpar` binary (path baked
 * in via DESKPAR_CLI_PATH) — usage errors exit 2, runtime failures
 * exit 1, everywhere.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli_options.hh"

namespace {

using namespace deskpar::cli;

/** Run parse() over a brace-list argv; argv[0] is prepended. */
bool
runParse(Parser &parser, std::vector<std::string> args)
{
    args.insert(args.begin(), "deskpar");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return parser.parse(static_cast<int>(argv.size()), argv.data(),
                        1);
}

TEST(CliParser, FlagsAndStringOptions)
{
    bool json = false;
    std::string app;
    Parser parser("test");
    parser.flag("--json", &json);
    parser.option("--app", "PREFIX", &app);

    EXPECT_TRUE(runParse(parser, {"--json", "--app", "hand"}));
    EXPECT_TRUE(json);
    EXPECT_EQ(app, "hand");
}

TEST(CliParser, EqualsFormAndSingleDash)
{
    std::string out;
    Parser parser("test");
    parser.option("-o", "FILE", &out);
    EXPECT_TRUE(runParse(parser, {"-o=packed.etlc"}));
    EXPECT_EQ(out, "packed.etlc");
    EXPECT_TRUE(runParse(parser, {"-o", "other.etlc"}));
    EXPECT_EQ(out, "other.etlc");
}

TEST(CliParser, UnsignedOptionsRejectJunkSignAndOverflow)
{
    unsigned jobs = 7;
    Parser parser("test");
    parser.option("--jobs", "N", &jobs);

    EXPECT_TRUE(runParse(parser, {"--jobs", "4"}));
    EXPECT_EQ(jobs, 4u);
    EXPECT_FALSE(runParse(parser, {"--jobs", "4x"}));
    EXPECT_FALSE(runParse(parser, {"--jobs", "-1"}));
    EXPECT_FALSE(runParse(parser, {"--jobs", "+2"}));
    EXPECT_FALSE(runParse(parser, {"--jobs", ""}));

    std::uint16_t small = 0;
    Parser narrow("test");
    narrow.option("--port", "N", &small);
    EXPECT_FALSE(runParse(narrow, {"--port", "70000"}));
    EXPECT_TRUE(runParse(narrow, {"--port", "65535"}));
    EXPECT_EQ(small, 65535u);
}

TEST(CliParser, DoubleOptionRejectsJunk)
{
    double seconds = 0;
    Parser parser("test");
    parser.option("--seconds", "S", &seconds);
    EXPECT_TRUE(runParse(parser, {"--seconds", "2.5"}));
    EXPECT_DOUBLE_EQ(seconds, 2.5);
    EXPECT_FALSE(runParse(parser, {"--seconds", "fast"}));
    EXPECT_FALSE(runParse(parser, {"--seconds", "1.5s"}));
}

TEST(CliParser, CallbackValidationFailsTheParse)
{
    std::string got;
    Parser parser("test");
    parser.option("--gpu", "NAME",
                  [&got](const std::string &value,
                         std::string &error) {
                      if (value != "1080ti") {
                          error = "unknown gpu '" + value + "'";
                          return false;
                      }
                      got = value;
                      return true;
                  });
    EXPECT_TRUE(runParse(parser, {"--gpu", "1080ti"}));
    EXPECT_EQ(got, "1080ti");
    EXPECT_FALSE(runParse(parser, {"--gpu", "3090"}));
}

TEST(CliParser, UnknownOptionAndMissingValueFail)
{
    bool json = false;
    std::string app;
    Parser parser("test");
    parser.flag("--json", &json);
    parser.option("--app", "PREFIX", &app);

    EXPECT_FALSE(runParse(parser, {"--verbose"}));
    EXPECT_FALSE(runParse(parser, {"--app"}));      // value missing
    EXPECT_FALSE(runParse(parser, {"--json=yes"})); // flag w/ value
}

TEST(CliParser, PositionalBounds)
{
    std::vector<std::string> args;
    Parser parser("query");
    parser.positionals(&args, 2, Parser::kUnlimited,
                       "trace file + specs");

    EXPECT_FALSE(runParse(parser, {"t.etl"}));
    EXPECT_TRUE(runParse(parser, {"t.etl", "tlp", "busy"}));
    ASSERT_EQ(args.size(), 3u);
    EXPECT_EQ(args[2], "busy");

    std::vector<std::string> one;
    Parser bounded("report");
    bounded.positionals(&one, 1, 1, "trace file");
    EXPECT_FALSE(runParse(bounded, {"a.etl", "b.etl"}));

    Parser none("serve-stop");
    EXPECT_FALSE(runParse(none, {"stray"}));
}

TEST(CliParser, DoubleDashEndsOptionParsing)
{
    std::vector<std::string> args;
    bool json = false;
    Parser parser("query");
    parser.flag("--json", &json);
    parser.positionals(&args, 1, Parser::kUnlimited, "trace file");

    EXPECT_TRUE(runParse(parser, {"--json", "--", "--weird.etl"}));
    EXPECT_TRUE(json);
    ASSERT_EQ(args.size(), 1u);
    EXPECT_EQ(args[0], "--weird.etl");
}

TEST(CliParser, CommonOptionsRespectTheMask)
{
    CommonOptions common;
    Parser parser("test");
    addCommonOptions(parser, common, kOptJobs | kOptLenient);

    EXPECT_TRUE(runParse(parser, {"--jobs", "8", "--lenient-traces"}));
    EXPECT_EQ(common.jobs, 8u);
    EXPECT_TRUE(common.lenient);
    // --json is not in the mask, so it is unknown here.
    EXPECT_FALSE(runParse(parser, {"--json"}));

    CommonOptions all;
    Parser full("test");
    addCommonOptions(full, all, kOptJobs | kOptJson | kOptLenient |
                                    kOptApp);
    EXPECT_TRUE(runParse(full, {"--json", "--app", "x"}));
    EXPECT_TRUE(all.json);
    EXPECT_EQ(all.appPrefix, "x");
}

TEST(CliParser, StrictNumberHelpers)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(parseUnsigned("18446744073709551615", u));
    EXPECT_EQ(u, ~0ull);
    EXPECT_FALSE(parseUnsigned("18446744073709551616", u));
    EXPECT_FALSE(parseUnsigned("0x10", u));
    double d = 0;
    EXPECT_TRUE(parseDouble("-1e3", d));
    EXPECT_DOUBLE_EQ(d, -1000.0);
    EXPECT_FALSE(parseDouble("", d));
}

/** Exit code of a deskpar invocation, output silenced. */
int
deskparExit(const std::string &args)
{
    std::string command = std::string(DESKPAR_CLI_PATH) + " " + args +
                          " >/dev/null 2>&1";
    int status = std::system(command.c_str());
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
}

TEST(CliExitCodes, UsageErrorsExitTwo)
{
    EXPECT_EQ(deskparExit(""), 2);                // no command
    EXPECT_EQ(deskparExit("transmogrify"), 2);    // unknown command
    EXPECT_EQ(deskparExit("query"), 2);           // missing args
    EXPECT_EQ(deskparExit("query --jobs 4x t.etl tlp"), 2);
    EXPECT_EQ(deskparExit("bottlenecks"), 2);     // missing trace
    EXPECT_EQ(deskparExit("bottlenecks --top ten t.etl"), 2);
    EXPECT_EQ(deskparExit("replay --bogus-flag t.etl"), 2);
    EXPECT_EQ(deskparExit("corpus --count abc --out /tmp/x"), 2);
    EXPECT_EQ(deskparExit("serve"), 2);           // missing socket
    EXPECT_EQ(deskparExit("client"), 2);          // missing op
}

TEST(CliExitCodes, RuntimeFailuresExitOne)
{
    // Well-formed invocations that fail at runtime: unreadable
    // trace, unreachable socket.
    EXPECT_EQ(deskparExit("query /tmp/deskpar_absent.etl tlp"), 1);
    EXPECT_EQ(deskparExit("bottlenecks /tmp/deskpar_absent.etl"), 1);
    EXPECT_EQ(deskparExit("replay /tmp/deskpar_absent.etl"), 1);
    EXPECT_EQ(deskparExit("client /tmp/deskpar_absent.sock ping"), 1);
}

/** Exit code and merged stdout+stderr of a deskpar invocation. */
int
deskparRun(const std::string &args, std::string &output)
{
    // Per-process name: ctest runs each test in its own process, in
    // parallel.
    const std::string log =
        (std::filesystem::temp_directory_path() /
         ("deskpar_cli_out." + std::to_string(::getpid()) + ".txt"))
            .string();
    std::string command = std::string(DESKPAR_CLI_PATH) + " " + args +
                          " >" + log + " 2>&1";
    int status = std::system(command.c_str());
    std::ifstream in(log, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    output = text.str();
    std::filesystem::remove(log);
    EXPECT_TRUE(WIFEXITED(status)) << command;
    return WEXITSTATUS(status);
}

/** Unsigned LEB128, as the .etl header stores its fields. */
std::uint64_t
readVarint(const std::string &bytes, std::size_t &pos)
{
    std::uint64_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
        auto byte = static_cast<std::uint8_t>(bytes.at(pos++));
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return value;
    }
}

std::string
varint(std::uint64_t value)
{
    std::string out;
    do {
        auto byte = static_cast<char>(value & 0x7f);
        value >>= 7;
        out.push_back(value ? static_cast<char>(byte | 0x80) : byte);
    } while (value);
    return out;
}

/**
 * A trace whose header the readers reject (CPU count 2^31, past the
 * 4096 cap) fails the file in lenient mode exactly as in strict mode,
 * with the header defect, on every command that opens a trace —
 * instead of analyzing an empty bundle.
 */
TEST(CliRejectedHeader, LenientCommandsFailWithTheHeaderDefect)
{
    const auto dir = std::filesystem::temp_directory_path();
    const std::string good = (dir / "deskpar_header_good.etl").string();
    const std::string bad = (dir / "deskpar_header_bad.etl").string();
    const std::string packed = (dir / "deskpar_header_bad.etlc").string();
    std::string output;
    ASSERT_EQ(deskparRun("run handbrake --seconds 2 --etl " + good,
                         output),
              0)
        << output;

    std::ifstream in(good, std::ios::binary);
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string bytes = raw.str();
    std::size_t pos = 8; // magic
    for (int field = 0; field < 3; ++field) // version, start, stop
        readVarint(bytes, pos);
    const std::size_t cpus = pos;
    readVarint(bytes, pos);
    {
        std::ofstream out(bad, std::ios::binary);
        out << bytes.substr(0, cpus) << varint(std::uint64_t(1) << 31)
            << bytes.substr(pos);
    }

    const std::string defect =
        "[header] numLogicalCpus: CPU count 2147483648 exceeds the cap "
        "of 4096";
    ASSERT_EQ(deskparRun("query " + bad + " tlp", output), 1);
    EXPECT_NE(output.find(defect), std::string::npos) << output;
    for (const std::string &command :
         {"query --lenient-traces " + bad + " tlp",
          "bottlenecks --lenient-traces " + bad,
          "pack --lenient-traces " + bad + " -o " + packed,
          "replay --lenient-traces " + bad}) {
        SCOPED_TRACE(command);
        std::filesystem::remove(packed);
        EXPECT_EQ(deskparRun(command, output), 1);
        EXPECT_NE(output.find(defect), std::string::npos) << output;
        EXPECT_EQ(output.find("computeConcurrency"), std::string::npos);
        EXPECT_EQ(output.find("degraded ingest"), std::string::npos);
        EXPECT_FALSE(std::filesystem::exists(packed));
    }
    std::filesystem::remove(good);
    std::filesystem::remove(bad);
}


/** @p bytes written to @p path. */
void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream raw;
    raw << in.rdbuf();
    return raw.str();
}

/**
 * The whitespace-split cells of @p file's replay table row (Trace,
 * Size, Ingest, TLP, GPU util, Max conc., Status), or none.
 */
std::vector<std::string>
tableRow(const std::string &output, const std::string &file)
{
    std::istringstream lines(output);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind(file + " ", 0) != 0)
            continue;
        std::istringstream words(line);
        std::vector<std::string> cells;
        for (std::string cell; words >> cell;)
            cells.push_back(cell);
        return cells;
    }
    return {};
}

/** Status cell of @p file's replay table row ("" if none). */
std::string
rowStatus(const std::string &output, const std::string &file)
{
    std::vector<std::string> cells = tableRow(output, file);
    return cells.size() == 7 ? cells[6] : "";
}

/**
 * Replay answers every file through one path, so the table, --json
 * and stats agree on each file's status and on the exit code.
 */
class CliReplay : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Per-test names: ctest runs the tests in parallel.
        const std::string stem =
            (std::filesystem::temp_directory_path() /
             ("deskpar_replay_" +
              std::string(::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->name()) +
              "_"))
                .string();
        good_ = stem + "good.etl";
        cut_ = stem + "cut.etl";
        junk_ = stem + "junk.etl";
        statsJson_ = stem + "stats.json";
        std::string output;
        ASSERT_EQ(deskparRun("run handbrake --seconds 2 --etl " + good_,
                             output),
                  0)
            << output;
        // The same trace with its tail cut off: a strict ingest
        // rejects it, a lenient one salvages the head.
        const std::string bytes = readFile(good_);
        writeFile(cut_, bytes.substr(0, bytes.size() / 2));
        // No .etl magic at all: rejected in both modes.
        writeFile(junk_, "this is not a trace\n");
    }

    void
    TearDown() override
    {
        for (const std::string &path : {good_, cut_, junk_, statsJson_})
            std::filesystem::remove(path);
    }

    std::string good_, cut_, junk_, statsJson_;
};

TEST_F(CliReplay, DegradedLenientReplayExitsOneInEveryRendering)
{
    std::string output;
    EXPECT_EQ(deskparRun("replay --lenient-traces " + cut_, output), 1);
    EXPECT_EQ(rowStatus(output, cut_), "degraded") << output;
    EXPECT_NE(output.find("degraded ingest"), std::string::npos)
        << output;

    EXPECT_EQ(deskparRun("replay --lenient-traces --json " + cut_,
                         output),
              1);
    EXPECT_NE(output.find("\"degraded\":true"), std::string::npos)
        << output;

    // stats is replay with recording on: same verdict, and its one
    // Job span per file keeps the deskpar.job phase row.
    EXPECT_EQ(deskparRun("stats --lenient-traces " + cut_ +
                             " --stats-json " + statsJson_,
                         output),
              1);
    EXPECT_EQ(rowStatus(output, cut_), "degraded") << output;
    EXPECT_NE(output.find("deskpar.job"), std::string::npos) << output;
}

TEST_F(CliReplay, CorruptFileFailsOnlyThatFile)
{
    // Strict: the cut file fails with its structured parse error
    // (source and section), the good file still gets its row.
    std::string output;
    EXPECT_EQ(deskparRun("replay " + good_ + " " + cut_, output), 1);
    std::vector<std::string> goodRow = tableRow(output, good_);
    ASSERT_EQ(goodRow.size(), 7u) << output;
    EXPECT_EQ(goodRow[6], "ok") << output;
    EXPECT_GT(std::stod(goodRow[3]), 0.0) << output; // TLP
    EXPECT_EQ(rowStatus(output, cut_), "FAILED") << output;
    EXPECT_NE(output.find("deskpar: " + cut_ + " @byte "),
              std::string::npos)
        << output;

    // The good file alone is clean: exit 0 in both renderings.
    EXPECT_EQ(deskparRun("replay " + good_, output), 0) << output;
    EXPECT_EQ(deskparRun("replay --json " + good_, output), 0)
        << output;
}

TEST_F(CliReplay, MissingFileFailsOnlyThatFileWithOneMessage)
{
    const std::string missing = "/nonexistent/deskpar_trace.etl";
    std::string table;
    EXPECT_EQ(deskparRun("replay " + good_ + " " + missing, table), 1);
    EXPECT_EQ(rowStatus(table, good_), "ok") << table;
    EXPECT_EQ(rowStatus(table, missing), "FAILED") << table;

    std::string json;
    EXPECT_EQ(deskparRun("replay --json " + good_ + " " + missing, json),
              1);
    std::size_t first = json.find("\"status\":\"ok\"");
    std::size_t second = json.find("\"status\":\"failed\"");
    ASSERT_NE(first, std::string::npos) << json;
    ASSERT_NE(second, std::string::npos) << json;
    EXPECT_LT(first, second) << json;

    // Both renderings report the missing file with the same message.
    std::istringstream lines(table);
    std::string line, message;
    while (std::getline(lines, line)) {
        if (line.rfind("deskpar: ", 0) == 0 &&
            line.find(missing) != std::string::npos)
            message = line;
    }
    ASSERT_FALSE(message.empty()) << table;
    EXPECT_NE(json.find(message), std::string::npos)
        << message << "\n"
        << json;
}

TEST_F(CliReplay, LenientBatchNamesNoStrictIngest)
{
    std::string output;
    EXPECT_EQ(deskparRun("replay --lenient-traces " + good_ + " " + junk_,
                         output),
              1);
    EXPECT_EQ(rowStatus(output, good_), "ok") << output;
    EXPECT_EQ(rowStatus(output, junk_), "FAILED") << output;
    EXPECT_EQ(output.find("strict ingest"), std::string::npos) << output;
}

} // namespace
