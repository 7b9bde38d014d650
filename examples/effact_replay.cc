/**
 * @file
 * Record/replay driver for the compile-and-simulate service. A session
 * log (written by `effact-serve --record`, or generated here with
 * `--make-demo`) is a raw client frame stream; this tool replays it
 *
 *   - offline through a fresh `ServiceCore` (default),
 *   - offline through the uncached serial oracle (`--oracle`), or
 *   - through a live daemon over its socket (`--connect`),
 *
 * printing one canonical result line per request to stdout. The
 * determinism contract makes all three modes print byte-identical
 * lines for the same log and admission configuration — which is
 * exactly what the CI smoke step diffs.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "platform/platform.h"
#include "service/service.h"

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [mode] LOG [options]\n"
        "modes:\n"
        "  (default)        offline replay through a fresh service core\n"
        "  --oracle         offline replay, serial + uncached (the\n"
        "                   determinism oracle)\n"
        "  --connect SOCK   drive the log through a live daemon\n"
        "  --make-demo      write a 5-request, 2-batch demo log to LOG\n"
        "                   and exit\n"
        "options: --threads N --queue-depth N --batch N --cache-bytes N\n"
        "         --shutdown (with --connect: stop the daemon after the\n"
        "         log)\n",
        argv0);
}

bool
parseSize(const char *arg, size_t *out)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(arg, &end, 10);
    if (end == arg || *end != '\0')
        return false;
    *out = static_cast<size_t>(v);
    return true;
}

/** Two flush-batches of small db-lookup design points: three across
 *  ablation presets (distinct middle-end cache keys), then
 *  `demo-full-64`'s recipe again at another SRAM size (a recipe-memo
 *  hit: no IR build, back end on the shared snapshot) and under another
 *  preset (a separate memo entry). Enough to exercise request/flush
 *  framing and both cache paths with a deterministic diffable output,
 *  in well under a second. */
int
writeDemoLog(const std::string &path)
{
    effact::RequestLogWriter writer;
    std::string error;
    if (!writer.open(path, &error)) {
        std::fprintf(stderr, "effact-replay: %s\n", error.c_str());
        return 1;
    }
    using effact::Platform;
    const size_t mb27 = size_t(27) << 20;
    const size_t mb13 = size_t(13) << 20;
    const struct
    {
        const char *name;
        size_t records;
        size_t sramBytes;
        effact::CompilerOptions copts;
        bool flushAfter;
    } requests[] = {
        {"demo-baseline-32", 32, mb27, Platform::baselineOptions(mb27),
         false},
        {"demo-streaming-48", 48, mb27, Platform::streamingOptions(mb27),
         false},
        {"demo-full-64", 64, mb27, Platform::fullOptions(mb27), true},
        {"demo-full-64-sram13", 64, mb13, Platform::fullOptions(mb13),
         false},
        {"demo-mad-64", 64, mb27, Platform::madEnhancedOptions(mb27), true},
    };
    uint64_t tag = 100;
    for (const auto &spec : requests) {
        effact::ServiceRequest req;
        req.tag = tag++;
        req.name = spec.name;
        req.workload = "dblookup";
        req.fhe.logN = 12;
        req.fhe.levels = 6;
        req.fhe.dnum = 2;
        req.param = spec.records;
        req.hw = effact::HardwareConfig::asicEffact27();
        req.hw.sramBytes = spec.sramBytes;
        req.copts = spec.copts;
        writer.append(effact::FrameType::Request,
                      effact::encodeRequest(req));
        if (spec.flushAfter)
            writer.append(effact::FrameType::Flush, {});
    }
    std::fprintf(stderr,
                 "effact-replay: wrote 5-request, 2-batch demo log to %s\n",
                 path.c_str());
    return 0;
}

void
printResults(const std::vector<effact::ServiceResult> &results)
{
    for (const effact::ServiceResult &res : results)
        std::printf("%s\n", effact::canonicalResultLine(res).c_str());
}

int
replayLive(const std::vector<effact::Frame> &frames,
           const std::string &socket_path, bool shutdown_after)
{
    effact::ServiceClient client;
    std::string error;
    if (!client.connect(socket_path, &error)) {
        std::fprintf(stderr, "effact-replay: %s\n", error.c_str());
        return 1;
    }
    auto flush_and_print = [&](bool shutdown) {
        std::vector<effact::ServiceResult> results;
        const bool ok = shutdown
                            ? client.shutdownServer(&results, &error)
                            : client.flush(&results, &error);
        if (!ok) {
            std::fprintf(stderr, "effact-replay: %s\n", error.c_str());
            return false;
        }
        printResults(results);
        return true;
    };
    size_t outstanding = 0;
    bool saw_shutdown = false;
    for (const effact::Frame &frame : frames) {
        if (frame.type == effact::FrameType::Request) {
            effact::ServiceRequest req;
            if (!effact::decodeRequest(frame.payload, &req, &error)) {
                std::fprintf(stderr, "effact-replay: corrupt log: %s\n",
                             error.c_str());
                return 1;
            }
            if (!client.sendRequest(req, &error)) {
                std::fprintf(stderr, "effact-replay: %s\n", error.c_str());
                return 1;
            }
            ++outstanding;
        } else if (frame.type == effact::FrameType::Flush) {
            if (!flush_and_print(false))
                return 1;
            outstanding = 0;
        } else if (frame.type == effact::FrameType::Shutdown) {
            if (!flush_and_print(true))
                return 1;
            outstanding = 0;
            saw_shutdown = true;
            break;
        } else {
            std::fprintf(stderr,
                         "effact-replay: unexpected frame type in log\n");
            return 1;
        }
    }
    if (!saw_shutdown && (outstanding > 0 || shutdown_after) &&
        !flush_and_print(shutdown_after))
        return 1;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string log_path;
    std::string socket_path;
    bool oracle = false;
    bool make_demo = false;
    bool live = false;
    bool shutdown_after = false;
    effact::ServiceOptions service;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        size_t n = 0;
        if (arg == "--oracle") {
            oracle = true;
        } else if (arg == "--make-demo") {
            make_demo = true;
        } else if (arg == "--connect") {
            live = true;
            socket_path = value();
        } else if (arg == "--shutdown") {
            shutdown_after = true;
        } else if (arg == "--threads" && parseSize(value(), &n)) {
            service.threads = n;
        } else if (arg == "--queue-depth" && parseSize(value(), &n)) {
            service.queueCapacity = n;
        } else if (arg == "--batch" && parseSize(value(), &n)) {
            service.batchSize = n;
        } else if (arg == "--cache-bytes" && parseSize(value(), &n)) {
            service.cacheBytes = n;
        } else if (arg.rfind("--", 0) == 0) {
            usage(argv[0]);
            return 2;
        } else if (log_path.empty()) {
            log_path = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (log_path.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (make_demo)
        return writeDemoLog(log_path);

    std::vector<effact::Frame> frames;
    std::string error;
    if (!effact::loadRequestLog(log_path, &frames, &error)) {
        std::fprintf(stderr, "effact-replay: %s\n", error.c_str());
        return 1;
    }
    if (live)
        return replayLive(frames, socket_path, shutdown_after);

    effact::ServiceCore core(oracle ? effact::oracleOptions(service)
                                    : service);
    effact::ReplayOutcome outcome;
    if (!effact::replayFrames(frames, core, &outcome, &error)) {
        std::fprintf(stderr, "effact-replay: %s\n", error.c_str());
        return 1;
    }
    printResults(outcome.results);
    std::fprintf(stderr,
                 "effact-replay: %zu requests, %zu results (%s mode)\n",
                 outcome.requests, outcome.results.size(),
                 oracle ? "oracle" : "service");
    return 0;
}
