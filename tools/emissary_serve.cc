/**
 * @file
 * emissary_serve: the persistent sweep daemon.
 *
 * Listens on a localhost TCP port for newline-delimited
 * "emissary.request.v1" JSON (docs/service.md), runs sweeps on a
 * shared thread pool through core::runGrid, and memoizes every grid
 * cell in a content-addressed result cache — identical cells across
 * requests (and across daemon restarts, via --cache-dir) are served
 * without simulating.
 *
 *   emissary_serve --port 0 --port-file /tmp/port \
 *                  --cache-dir .cache/cells --cache-budget-mb 256
 *
 * SIGTERM / SIGINT stop the daemon gracefully: in-flight requests
 * finish, every connection is drained, then the process exits 0. A
 * client can also send {"op": "shutdown"}.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>

#include "core/threadpool.hh"
#include "service/server.hh"
#include "service/service.hh"
#include "util/strutil.hh"

namespace
{

using namespace emissary;

service::Server *g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    // Only the atomic flag is touched here; the accept/read loops
    // poll it every 200 ms.
    if (g_server)
        g_server->stop();
}

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        exit_code == 0 ? stdout : stderr,
        "usage: %s [options]\n"
        "  --port N            TCP port on 127.0.0.1, at most 65535 "
        "(default 0 = ephemeral)\n"
        "  --port-file PATH    write the bound port to PATH\n"
        "  --cache-dir DIR     on-disk result store (default: "
        "memory-only)\n"
        "  --cache-budget-mb N in-memory cache budget, at most 2^44 "
        "(default 0 = unbounded)\n"
        "  --jobs N            simulation worker threads, at most 4096 "
        "(default: hardware)\n"
        "  --trace-dir DIR     write a flight-recorder trace per "
        "sweep job\n",
        argv0);
    std::exit(exit_code);
}

/** Strict unsigned parse: any non-digit, or a value above @p max,
 *  is a usage error (exit 1) before any pool or socket exists. */
std::uint64_t
parseU64(const char *argv0, const std::string &flag,
         const std::string &text, std::uint64_t max)
{
    std::uint64_t value = 0;
    if (!parseDecimal(text, max, value)) {
        std::fprintf(stderr,
                     "%s: %s needs an unsigned decimal integer of at "
                     "most %llu, got '%s'\n",
                     argv0, flag.c_str(),
                     static_cast<unsigned long long>(max), text.c_str());
        std::exit(1);
    }
    return value;
}

/** The largest --cache-budget-mb: 2^44 MB is 2^64 bytes. */
constexpr std::uint64_t kMaxCacheBudgetMb = std::uint64_t{1} << 44;

} // namespace

int
main(int argc, char **argv)
{
    std::uint16_t port = 0;
    std::string port_file;
    service::SweepService::Options service_options;

    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], flag.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (flag == "--help" || flag == "-h") {
            usage(argv[0], 0);
        } else if (flag == "--port") {
            port = static_cast<std::uint16_t>(
                parseU64(argv[0], flag, value(), 65535));
        } else if (flag == "--port-file") {
            port_file = value();
        } else if (flag == "--cache-dir") {
            service_options.cacheDir = value();
        } else if (flag == "--cache-budget-mb") {
            const std::uint64_t mb =
                parseU64(argv[0], flag, value(), kMaxCacheBudgetMb);
            // The largest budget saturates rather than wrap to 0.
            service_options.cacheBudgetBytes =
                mb < kMaxCacheBudgetMb
                    ? mb << 20
                    : std::numeric_limits<std::uint64_t>::max();
        } else if (flag == "--jobs") {
            service_options.jobs = static_cast<unsigned>(parseU64(
                argv[0], flag, value(), core::ThreadPool::kMaxWorkers));
        } else if (flag == "--trace-dir") {
            service_options.traceDir = value();
        } else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         flag.c_str());
            usage(argv[0], 1);
        }
    }

    try {
        service::SweepService service(service_options);
        service::Server::Options server_options;
        server_options.port = port;
        service::Server server(service, server_options);
        g_server = &server;

        struct sigaction action{};
        action.sa_handler = handleStopSignal;
        sigaction(SIGTERM, &action, nullptr);
        sigaction(SIGINT, &action, nullptr);

        if (!port_file.empty()) {
            std::ofstream out(port_file, std::ios::trunc);
            if (!out) {
                std::fprintf(stderr,
                             "%s: cannot write port file %s\n",
                             argv[0], port_file.c_str());
                return 1;
            }
            out << server.port() << "\n";
        }
        std::printf("emissary_serve: listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);

        server.run();
        std::printf("emissary_serve: stopped\n");
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
        return 1;
    }
}
