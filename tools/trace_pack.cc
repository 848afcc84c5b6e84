/**
 * @file
 * trace_pack: build, inspect and verify EMTC trace containers.
 *
 * Subcommands:
 *   pack             synthetic benchmark -> EMTC
 *   import-champsim  decompressed ChampSim trace -> EMTC
 *   export-champsim  synthetic benchmark -> ChampSim trace (fixtures)
 *   info             print container metadata, no block decoding
 *   verify           decode every block, check every CRC
 *
 * Examples:
 *   trace_pack pack --benchmark tomcat --records 2000000 tomcat.emtc
 *   xz -dc server.champsim.xz > server.champsim
 *   trace_pack import-champsim server.champsim server.emtc
 *   trace_pack info server.emtc
 *   trace_pack verify server.emtc
 */

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/program.hh"
#include "util/strutil.hh"
#include "workload/champsim.hh"
#include "workload/emtc.hh"

namespace
{

using namespace emissary;

/** Strict unsigned parse: any non-digit, or a value above @p max,
 *  is a usage error (exit 2). */
std::uint64_t
parseU64(const std::string &flag, const char *text,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    std::uint64_t parsed = 0;
    if (!parseDecimal(text, max, parsed)) {
        std::fprintf(stderr,
                     "%s: expected an unsigned decimal integer of at "
                     "most %llu, got '%s'\n",
                     flag.c_str(), static_cast<unsigned long long>(max),
                     text);
        std::exit(2);
    }
    return parsed;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s <command> [options]\n"
        "\n"
        "  pack OUT.emtc --benchmark NAME --records N\n"
        "                          [--records-per-block N]\n"
        "      Pack N records of a suite benchmark's stream.\n"
        "      (emissary_sim --record writes a run's own stream.)\n"
        "  import-champsim IN OUT.emtc [--name NAME]\n"
        "                          [--max-records N]\n"
        "      Convert a *decompressed* ChampSim trace. ChampSim\n"
        "      distributes .champsim.xz files; decompress first:\n"
        "        xz -dc trace.champsim.xz > trace.champsim\n"
        "  export-champsim OUT --benchmark NAME --records N\n"
        "      Write a synthetic stream in ChampSim's record format\n"
        "      (importer test fixtures).\n"
        "  info FILE.emtc          print container metadata\n"
        "  verify FILE.emtc        decode all blocks, check CRCs\n",
        argv0);
}

void
printInfo(const workload::TraceInfo &info)
{
    std::printf("path:               %s\n", info.path.c_str());
    std::printf("workload name:      %s\n", info.name.c_str());
    std::printf("format version:     %u\n", info.version);
    std::printf("records:            %llu\n",
                static_cast<unsigned long long>(info.recordCount));
    std::printf("records per block:  %u\n", info.recordsPerBlock);
    std::printf("blocks:             %u\n", info.blockCount);
    std::printf("unique code lines:  %llu (%.1f KiB footprint)\n",
                static_cast<unsigned long long>(info.uniqueCodeLines),
                static_cast<double>(info.uniqueCodeLines) * 64.0 /
                    1024.0);
    std::printf("file bytes:         %llu\n",
                static_cast<unsigned long long>(info.fileBytes));
    std::printf("packed payload:     %llu bytes (%.2f B/record)\n",
                static_cast<unsigned long long>(
                    info.packedPayloadBytes),
                info.recordCount
                    ? static_cast<double>(info.packedPayloadBytes) /
                          static_cast<double>(info.recordCount)
                    : 0.0);
    std::printf("unpacked bytes:     %llu (26 B/record)\n",
                static_cast<unsigned long long>(info.unpackedBytes()));
    std::printf("compression ratio:  %.2fx vs unpacked\n",
                info.compressionRatio());
}

int
cmdPack(const std::vector<std::string> &args)
{
    std::string benchmark;
    std::uint64_t records = 0;
    std::uint32_t records_per_block = workload::kDefaultRecordsPerBlock;
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "missing value for %s\n",
                             args[i].c_str());
                std::exit(2);
            }
            return args[++i].c_str();
        };
        if (args[i] == "--benchmark")
            benchmark = value();
        else if (args[i] == "--records")
            records = parseU64("--records", value());
        else if (args[i] == "--records-per-block")
            records_per_block = static_cast<std::uint32_t>(
                parseU64("--records-per-block", value(),
                         std::numeric_limits<std::uint32_t>::max()));
        else
            positional.push_back(args[i]);
    }
    if (benchmark.empty() || positional.size() != 1 || records == 0) {
        std::fprintf(stderr, "pack needs --benchmark NAME, --records N "
                             "and exactly one output path\n");
        return 2;
    }

    const std::string &output = positional[0];
    const trace::SyntheticProgram program(
        trace::profileByName(benchmark));
    trace::SyntheticExecutor executor(program);
    workload::PackedTraceWriter writer(output, benchmark,
                                       records_per_block);
    constexpr std::size_t kChunk = 4096;
    std::vector<trace::TraceRecord> chunk(kChunk);
    std::uint64_t remaining = records;
    while (remaining > 0) {
        const std::size_t n = static_cast<std::size_t>(
            remaining < kChunk ? remaining : kChunk);
        executor.fill(chunk.data(), n);
        writer.append(chunk.data(), n);
        remaining -= n;
    }
    writer.finish();
    printInfo(workload::readTraceInfo(output));
    return 0;
}

int
cmdImportChampsim(const std::vector<std::string> &args)
{
    std::string name;
    std::uint64_t max_records = 0;
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "missing value for %s\n",
                             args[i].c_str());
                std::exit(2);
            }
            return args[++i].c_str();
        };
        if (args[i] == "--name")
            name = value();
        else if (args[i] == "--max-records")
            max_records = parseU64("--max-records", value());
        else
            positional.push_back(args[i]);
    }
    if (positional.size() != 2) {
        std::fprintf(stderr, "import-champsim needs an input and an "
                             "output path\n");
        return 2;
    }
    const workload::ChampSimImportStats stats =
        workload::importChampSim(positional[0], positional[1], name,
                                 max_records);
    std::printf("imported:           %llu instructions\n",
                static_cast<unsigned long long>(stats.instructions));
    std::printf("branches:           %llu (%llu unclassified)\n",
                static_cast<unsigned long long>(stats.branches),
                static_cast<unsigned long long>(
                    stats.unclassifiedBranches));
    std::printf("loads / stores:     %llu / %llu\n",
                static_cast<unsigned long long>(stats.loads),
                static_cast<unsigned long long>(stats.stores));
    printInfo(workload::readTraceInfo(positional[1]));
    return 0;
}

int
cmdExportChampsim(const std::vector<std::string> &args)
{
    std::string benchmark;
    std::uint64_t records = 0;
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        auto value = [&]() -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "missing value for %s\n",
                             args[i].c_str());
                std::exit(2);
            }
            return args[++i].c_str();
        };
        if (args[i] == "--benchmark")
            benchmark = value();
        else if (args[i] == "--records")
            records = parseU64("--records", value());
        else
            positional.push_back(args[i]);
    }
    if (positional.size() != 1 || benchmark.empty() || records == 0) {
        std::fprintf(stderr,
                     "export-champsim needs --benchmark NAME, "
                     "--records N and one output path\n");
        return 2;
    }
    const trace::SyntheticProgram program(
        trace::profileByName(benchmark));
    trace::SyntheticExecutor executor(program);
    const std::uint64_t written = workload::exportChampSim(
        executor, records, positional[0]);
    std::printf("wrote %llu ChampSim records to %s\n",
                static_cast<unsigned long long>(written),
                positional[0].c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "pack")
            return cmdPack(args);
        if (command == "import-champsim")
            return cmdImportChampsim(args);
        if (command == "export-champsim")
            return cmdExportChampsim(args);
        if (command == "info") {
            if (args.size() != 1) {
                std::fprintf(stderr, "info needs one path\n");
                return 2;
            }
            printInfo(workload::readTraceInfo(args[0]));
            return 0;
        }
        if (command == "verify") {
            if (args.size() != 1) {
                std::fprintf(stderr, "verify needs one path\n");
                return 2;
            }
            const std::uint64_t count =
                workload::verifyPackedTrace(args[0]);
            std::printf("%s: OK (%llu records verified)\n",
                        args[0].c_str(),
                        static_cast<unsigned long long>(count));
            return 0;
        }
        if (command == "--help" || command == "-h" ||
            command == "help") {
            usage(argv[0]);
            return 0;
        }
        std::fprintf(stderr, "unknown command '%s'\n",
                     command.c_str());
        usage(argv[0]);
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
