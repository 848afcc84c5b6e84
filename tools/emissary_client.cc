/**
 * @file
 * emissary_client: command-line client and load generator for the
 * emissary_serve daemon (docs/service.md).
 *
 * Single-shot ops:
 *
 *   emissary_client --port-file /tmp/port --ping
 *   emissary_client --port 7421 --stats
 *   emissary_client --port 7421 --request sweep.json
 *   emissary_client --port 7421 --shutdown
 *
 * Load-test mode sends the same sweep request N times over C
 * concurrent connections and reports throughput, latency
 * percentiles and the served cache fraction; --out appends one
 * machine-parsable line per run (results/service_loadtest.txt):
 *
 *   emissary_client --port 7421 --request sweep.json \
 *       --load-test 40 --concurrency 4 --label warm \
 *       --out results/service_loadtest.txt --min-cached-fraction 0.9
 *
 * Exit status: 0 on success, 1 on usage/connection errors, 2 when
 * the daemon answered with emissary.error.v1, 3 when
 * --min-cached-fraction was not met.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/threadpool.hh"
#include "stats/json.hh"
#include "util/strutil.hh"

namespace
{

using emissary::stats::JsonValue;

[[noreturn]] void
usage(const char *argv0, int exit_code)
{
    std::fprintf(
        exit_code == 0 ? stdout : stderr,
        "usage: %s [--port N | --port-file PATH] <op> [options]\n"
        "ops:\n"
        "  --ping                     round-trip check\n"
        "  --stats                    print the daemon's "
        "emissary.stats.v1 document\n"
        "  --shutdown                 graceful daemon stop\n"
        "  --request FILE             send FILE (a JSON request) "
        "and print the reply\n"
        "options:\n"
        "  --raw                      send FILE verbatim, no "
        "client-side JSON check\n"
        "  --load-test N              send the request N times\n"
        "  --concurrency C            over C connections (default "
        "1, at most 4096)\n"
        "  --label NAME               label for the --out line "
        "(default \"run\")\n"
        "  --out PATH                 append one result line to "
        "PATH\n"
        "  --min-cached-fraction X    fail (exit 3) when the "
        "cached-cell fraction is below X (0 to 1)\n",
        argv0);
    std::exit(exit_code);
}

struct Connection
{
    int fd = -1;

    explicit Connection(std::uint16_t port)
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            throw std::runtime_error(std::string("socket: ") +
                                     std::strerror(errno));
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        address.sin_port = htons(port);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&address),
                      sizeof(address)) != 0) {
            const std::string what = std::strerror(errno);
            ::close(fd);
            throw std::runtime_error("connect 127.0.0.1:" +
                                     std::to_string(port) + ": " +
                                     what);
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
    }

    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Send one request line, return the newline-delimited reply. */
    std::string
    roundTrip(const std::string &line)
    {
        std::string out = line;
        out.push_back('\n');
        std::size_t sent = 0;
        while (sent < out.size()) {
            const ssize_t n = ::send(fd, out.data() + sent,
                                     out.size() - sent, MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(std::string("send: ") +
                                         std::strerror(errno));
            }
            sent += static_cast<std::size_t>(n);
        }
        std::string reply;
        char chunk[64 * 1024];
        while (true) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(std::string("recv: ") +
                                         std::strerror(errno));
            }
            if (n == 0)
                throw std::runtime_error(
                    "connection closed before a reply arrived");
            reply.append(chunk, static_cast<std::size_t>(n));
            const std::size_t newline = reply.find('\n');
            if (newline != std::string::npos)
                return reply.substr(0, newline);
        }
    }
};

/** Strict unsigned parse: any non-digit, or a value above @p max,
 *  is a usage error (exit 1) before any thread or socket exists. */
std::uint64_t
parseU64(const char *argv0, const std::string &flag,
         const std::string &text, std::uint64_t max)
{
    std::uint64_t value = 0;
    if (!emissary::parseDecimal(text, max, value)) {
        std::fprintf(stderr,
                     "%s: %s needs an unsigned decimal integer of at "
                     "most %llu, got '%s'\n",
                     argv0, flag.c_str(),
                     static_cast<unsigned long long>(max), text.c_str());
        std::exit(1);
    }
    return value;
}

/** Strict fraction parse: a plain decimal number in [0, 1]. A typo
 *  such as "0,9" is a usage error (exit 1), not a silent 0. */
double
parseFraction(const char *argv0, const std::string &flag,
              const std::string &text)
{
    double value = -1.0;
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end ||
        !(value >= 0.0 && value <= 1.0)) {
        std::fprintf(stderr, "%s: %s needs a number in [0, 1], got '%s'\n",
                     argv0, flag.c_str(), text.c_str());
        std::exit(1);
    }
    return value;
}

std::string
readFile(const char *argv0, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "%s: cannot open %s\n", argv0,
                     path.c_str());
        std::exit(1);
    }
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** p-th percentile of @p sorted (ascending). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/** Pull cache {hits, misses} out of a sweep reply (0/0 when not a
 *  sweep response). Throws on emissary.error.v1. */
void
tallyReply(const std::string &reply, std::uint64_t &hits,
           std::uint64_t &misses)
{
    const JsonValue doc = JsonValue::parse(reply);
    const JsonValue *schema = doc.find("schema");
    if (schema && schema->isString() &&
        schema->asString() == "emissary.error.v1") {
        const JsonValue *error = doc.find("error");
        throw std::runtime_error(
            "daemon error: " +
            (error && error->isString() ? error->asString()
                                        : reply));
    }
    if (const JsonValue *cache = doc.find("cache")) {
        if (const JsonValue *h = cache->find("hits"))
            hits += h->asUint();
        if (const JsonValue *m = cache->find("misses"))
            misses += m->asUint();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint16_t port = 0;
    bool have_port = false;
    std::string op;
    std::string request_path;
    bool raw = false;
    std::uint64_t load_requests = 0;
    std::uint64_t concurrency = 1;
    std::string label = "run";
    std::string out_path;
    double min_cached_fraction = -1.0;

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
            have_port = true;
        } else if (flag == "--port-file") {
            const std::string text = readFile(argv[0], value());
            port = static_cast<std::uint16_t>(parseU64(
                argv[0], flag,
                text.substr(0, text.find_first_of("\r\n")), 65535));
            have_port = true;
        } else if (flag == "--ping" || flag == "--stats" ||
                   flag == "--shutdown") {
            op = flag.substr(2);
        } else if (flag == "--request") {
            op = "sweep";
            request_path = value();
        } else if (flag == "--raw") {
            raw = true;
        } else if (flag == "--load-test") {
            load_requests = parseU64(
                argv[0], flag, value(),
                std::numeric_limits<std::uint64_t>::max());
        } else if (flag == "--concurrency") {
            concurrency = parseU64(argv[0], flag, value(),
                                   emissary::core::ThreadPool::kMaxWorkers);
        } else if (flag == "--label") {
            label = value();
        } else if (flag == "--out") {
            out_path = value();
        } else if (flag == "--min-cached-fraction") {
            min_cached_fraction = parseFraction(argv[0], flag, value());
        } else {
            std::fprintf(stderr, "%s: unknown flag %s\n", argv[0],
                         flag.c_str());
            usage(argv[0], 1);
        }
    }
    if (!have_port) {
        std::fprintf(stderr, "%s: --port or --port-file required\n",
                     argv[0]);
        return 1;
    }
    if (op.empty())
        usage(argv[0], 1);
    if (concurrency == 0)
        concurrency = 1;

    try {
        // Control ops: one connection, one line, print the reply.
        if (op != "sweep") {
            const std::string line = "{\"schema\": "
                                     "\"emissary.request.v1\", "
                                     "\"op\": \"" +
                                     op + "\"}";
            Connection connection(port);
            const std::string reply =
                connection.roundTrip(JsonValue::parse(line).dump(0));
            std::printf("%s\n", reply.c_str());
            const JsonValue doc = JsonValue::parse(reply);
            const JsonValue *schema = doc.find("schema");
            return schema && schema->isString() &&
                           schema->asString() == "emissary.error.v1"
                       ? 2
                       : 0;
        }

        std::string line = readFile(argv[0], request_path);
        if (!raw) {
            // Normalise to one line; a client-side parse also turns
            // local typos into local errors.
            line = JsonValue::parse(line).dump(0);
        } else {
            while (!line.empty() && (line.back() == '\n' ||
                                     line.back() == '\r'))
                line.pop_back();
        }

        if (load_requests == 0) {
            Connection connection(port);
            const std::string reply = connection.roundTrip(line);
            std::printf("%s\n", reply.c_str());
            std::uint64_t hits = 0;
            std::uint64_t misses = 0;
            try {
                tallyReply(reply, hits, misses);
            } catch (const std::exception &error) {
                std::fprintf(stderr, "%s: %s\n", argv[0],
                             error.what());
                return 2;
            }
            if (min_cached_fraction >= 0.0 && hits + misses > 0 &&
                static_cast<double>(hits) /
                        static_cast<double>(hits + misses) <
                    min_cached_fraction) {
                std::fprintf(stderr,
                             "%s: cached fraction %.3f below "
                             "required %.3f\n",
                             argv[0],
                             static_cast<double>(hits) /
                                 static_cast<double>(hits + misses),
                             min_cached_fraction);
                return 3;
            }
            return 0;
        }

        // Load test: C workers share one request counter; each
        // worker keeps one connection for its whole run.
        std::atomic<std::uint64_t> next{0};
        std::mutex merge_mutex;
        std::vector<double> latencies;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::vector<std::string> failures;

        const auto wall_start = std::chrono::steady_clock::now();
        std::vector<std::thread> workers;
        for (std::uint64_t c = 0; c < concurrency; ++c) {
            workers.emplace_back([&]() {
                try {
                    Connection connection(port);
                    std::vector<double> local_latencies;
                    std::uint64_t local_hits = 0;
                    std::uint64_t local_misses = 0;
                    while (next.fetch_add(1) < load_requests) {
                        const auto start =
                            std::chrono::steady_clock::now();
                        const std::string reply =
                            connection.roundTrip(line);
                        local_latencies.push_back(
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                start)
                                .count());
                        tallyReply(reply, local_hits, local_misses);
                    }
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    latencies.insert(latencies.end(),
                                     local_latencies.begin(),
                                     local_latencies.end());
                    hits += local_hits;
                    misses += local_misses;
                } catch (const std::exception &error) {
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    failures.emplace_back(error.what());
                }
            });
        }
        for (std::thread &worker : workers)
            worker.join();
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - wall_start)
                .count();

        if (!failures.empty()) {
            std::fprintf(stderr, "%s: %zu worker(s) failed; first: "
                                 "%s\n",
                         argv[0], failures.size(),
                         failures.front().c_str());
            return 2;
        }

        std::sort(latencies.begin(), latencies.end());
        const std::uint64_t cells = hits + misses;
        const double cached_fraction =
            cells > 0 ? static_cast<double>(hits) /
                            static_cast<double>(cells)
                      : 0.0;
        char summary[512];
        std::snprintf(
            summary, sizeof(summary),
            "label=%s requests=%llu concurrency=%llu wall_s=%.3f "
            "req_per_s=%.2f p50_ms=%.2f p99_ms=%.2f cells=%llu "
            "cached_fraction=%.4f",
            label.c_str(),
            static_cast<unsigned long long>(latencies.size()),
            static_cast<unsigned long long>(concurrency), wall,
            wall > 0.0 ? static_cast<double>(latencies.size()) / wall
                       : 0.0,
            percentile(latencies, 0.50) * 1e3,
            percentile(latencies, 0.99) * 1e3,
            static_cast<unsigned long long>(cells),
            cached_fraction);
        std::printf("%s\n", summary);

        if (!out_path.empty()) {
            const auto parent =
                std::filesystem::path(out_path).parent_path();
            if (!parent.empty())
                std::filesystem::create_directories(parent);
            std::ofstream out(out_path, std::ios::app);
            if (!out) {
                std::fprintf(stderr, "%s: cannot append to %s\n",
                             argv[0], out_path.c_str());
                return 1;
            }
            out << summary << "\n";
        }

        if (min_cached_fraction >= 0.0 &&
            cached_fraction < min_cached_fraction) {
            std::fprintf(stderr,
                         "%s: cached fraction %.3f below required "
                         "%.3f\n",
                         argv[0], cached_fraction,
                         min_cached_fraction);
            return 3;
        }
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
        return 1;
    }
}
