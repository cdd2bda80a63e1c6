/**
 * @file
 * lapsim-perfbench: times one benchmark workload against the
 * simulator's public API and prints one JSON row per job plus a
 * summary row. run.py builds this binary, runs it, checks the rows
 * against the reference fingerprints and reports the metrics.
 *
 *   lapsim-perfbench --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--regen] [--workers N]
 *                    [--work-dir DIR]
 */

#include <sys/resource.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.hh"
#include "probe.hh"

namespace perfbench
{

void
Row::key(const std::string &key)
{
    if (!body_.empty())
        body_ += ',';
    body_ += '"' + key + "\":";
}

Row &
Row::num(const std::string &key, double value)
{
    this->key(key);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
    return *this;
}

Row &
Row::num(const std::string &key, std::uint64_t value)
{
    this->key(key);
    body_ += std::to_string(value);
    return *this;
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + '"';
}

Row &
Row::str(const std::string &key, const std::string &value)
{
    this->key(key);
    body_ += quote(value);
    return *this;
}

Row &
Row::flag(const std::string &key, bool value)
{
    this->key(key);
    body_ += value ? "true" : "false";
    return *this;
}

Row &
Row::raw(const std::string &key, const std::string &json)
{
    this->key(key);
    body_ += json;
    return *this;
}

std::string
fingerprintJson(const lap::Metrics &m)
{
    return Row()
        .num("instructions", m.instructions)
        .num("cycles", m.cycles)
        .num("epi", m.epi)
        .num("llcHits", m.llcHits)
        .num("llcMisses", m.llcMisses)
        .num("llcWritesFill", m.llcWritesFill)
        .num("llcWritesCleanVictim", m.llcWritesCleanVictim)
        .num("llcWritesDirtyVictim", m.llcWritesDirtyVictim)
        .num("llcWritesMigration", m.llcWritesMigration)
        .num("dramReads", m.dramReads)
        .num("dramWrites", m.dramWrites)
        .text();
}

void
emitJob(const JobRecord &job)
{
    Row row;
    row.str("type", "job")
        .str("label", job.label)
        .flag("ok", job.ok)
        .flag("traced", job.traced)
        .num("wall_s", job.wallS)
        .num("refs", job.refs)
        .num("measured_refs", job.measuredRefs)
        .num("unit", job.unit);
    if (job.ok)
        row.raw("fp", fingerprintJson(job.metrics));
    else
        row.str("error", job.error);
    if (!job.samplingJson.empty())
        row.raw("sampling", job.samplingJson);
    std::cout << row.text() << '\n' << std::flush;
}

void
emitSummary(const RunSummary &summary)
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto list = [](const std::vector<double> &values) {
        std::string out = "[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                          values[i]);
            out += buf;
        }
        return out + ']';
    };
    Row layers;
    for (const auto &[name, value] : summary.layers)
        layers.num(name, value);
    std::string notes = "[";
    for (std::size_t i = 0; i < summary.notes.size(); ++i) {
        notes += i ? "," : "";
        notes += quote(summary.notes[i]);
    }
    notes += ']';
    std::cout << Row()
                     .str("type", "summary")
                     .raw("unit_wall_s", list(summary.unitWallS))
                     .raw("setup_s", list(summary.setupS))
                     .raw("host_probe_s", list(summary.hostProbeS))
                     .num("workers",
                          static_cast<std::uint64_t>(summary.workers))
                     .num("duplicate_share", summary.duplicateShare)
                     // ru_maxrss is in KiB on Linux.
                     .num("peak_rss_mb",
                          static_cast<double>(usage.ru_maxrss) / 1024.0)
                     .raw("layers", layers.text())
                     .raw("notes", notes)
                     .text()
              << '\n'
              << std::flush;
}

} // namespace perfbench

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "lapsim-perfbench: %s\n"
                 "usage: lapsim-perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--regen] [--workers N] "
                 "[--work-dir DIR]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::strcmp(argv[1], "--probe-server") == 0)
        return perfbench::probeServer();
    // A host-probe helper that died must fail its sample, not kill
    // the benchmark with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = parseCount("--seed", value());
        else if (arg == "--seconds")
            opt.seconds = static_cast<double>(
                parseCount("--seconds", value()));
        else if (arg == "--trace")
            opt.traced = parseCount("--trace", value()) != 0;
        else if (arg == "--regen")
            opt.regen = true;
        else if (arg == "--workers")
            opt.workers = static_cast<std::uint32_t>(
                parseCount("--workers", value()));
        else if (arg == "--work-dir")
            opt.workDir = value();
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (opt.workers == 0)
        usage("--workers must be at least 1");
    perfbench::emitSummary(perfbench::runWorkload(opt));
    return 0;
}
