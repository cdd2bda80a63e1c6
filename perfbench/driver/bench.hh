/**
 * @file
 * Shared types of the host-time benchmark driver.
 *
 * The driver times calls into the simulator's public API from the
 * outside. Untimed fixtures and every report row go through the
 * types below; run.py turns the rows into the benchmark's metrics
 * and checks each job's simulated output against the committed
 * reference fingerprints.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point start, Clock::time_point end)
{
    return std::chrono::duration<double>(end - start).count();
}

inline double
secondsSince(Clock::time_point start)
{
    return secondsBetween(start, Clock::now());
}

/** Command-line settings of one benchmark process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Timed span of an untraced run; the run finishes the job (or
     *  batch) in flight when it runs out. */
    double seconds = 10.0;
    /** Separate traced run: a fixed job set, each job run untraced
     *  and then traced, plus the per-layer probes. */
    bool traced = false;
    /** Runs every distinct job of the workload once (no clock), so
     *  run.py can write the reference fingerprints. */
    bool regen = false;
    /** Scratch directory for trace fixtures, sinks and spans. */
    std::string workDir = ".";
    /** Campaign pool size. */
    std::uint32_t workers = 1;
};

/** @p text as a JSON string literal. */
std::string quote(const std::string &text);

/** Minimal one-line JSON object writer; doubles keep all digits. */
class Row
{
  public:
    Row &num(const std::string &key, double value);
    Row &num(const std::string &key, std::uint64_t value);
    Row &str(const std::string &key, const std::string &value);
    Row &flag(const std::string &key, bool value);
    Row &raw(const std::string &key, const std::string &json);
    std::string text() const { return "{" + body_ + "}"; }

  private:
    void key(const std::string &key);
    std::string body_;
};

/** The fingerprinted subset of a job's simulated metrics. */
std::string fingerprintJson(const lap::Metrics &metrics);

/** One finished job as run.py sees it. */
struct JobRecord
{
    std::string label; //!< Reference-fingerprint key.
    bool ok = true;
    std::string error;
    double wallS = 0.0;
    /** Represented references: (warmup + measured) x cores, the full
     *  budget even for sampled jobs. */
    std::uint64_t refs = 0;
    /** Measured-window references: measured x cores. */
    std::uint64_t measuredRefs = 0;
    lap::Metrics metrics;
    std::string samplingJson; //!< Campaign sampling object, or "".
    /** True when this job ran with the layer probes attached. */
    bool traced = false;
    /** Index of the timed unit (serial job or campaign) it ran in. */
    std::uint64_t unit = 0;
};

/** Writes one job row to stdout. */
void emitJob(const JobRecord &job);

/** Whole-run figures beside the job rows. */
struct RunSummary
{
    /** Wall of each timed unit (a serial job or one campaign); the
     *  timed wall is their sum. */
    std::vector<double> unitWallS;
    std::vector<double> setupS;     //!< Set-up samples.
    /** Host probes: one before each timed unit and one after the
     *  last, so unit u lies between probes u and u + 1. */
    std::vector<double> hostProbeS;
    std::uint32_t workers = 1;
    /** Share of jobs whose hash repeats an earlier job of the run. */
    double duplicateShare = 0.0;
    /** Per-layer metrics of a traced run (name -> value). */
    std::map<std::string, double> layers;
    /** Lines of the traced run's human report. */
    std::vector<std::string> notes;
};

/** Writes the summary row (plus peak RSS) to stdout. */
void emitSummary(const RunSummary &summary);

/** Runs @p opt.workload; fatal on an unknown name. */
RunSummary runWorkload(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
