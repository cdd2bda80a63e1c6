/**
 * @file
 * The four benchmark workloads and the traced run's probes.
 *
 * Serial workloads (table3-serial, trace-replay) build every piece of
 * a job themselves — Simulator, trace sources, core parameters — so
 * each public call can be timed. Campaign workloads (sweep-resumable,
 * sweep-sampled) hand a spec to runCampaign and see jobs only through
 * EngineOptions::onJobDone; their traced run adds solo probe jobs for
 * what the pool hides.
 */

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "bench.hh"
#include "campaign/engine.hh"
#include "common/logging.hh"
#include "probe.hh"
#include "sim/simulator.hh"
#include "trace/replay.hh"
#include "trace/resolve.hh"
#include "trace/stressors.hh"
#include "workloads/capture.hh"
#include "workloads/mixes.hh"

namespace fs = std::filesystem;

namespace perfbench
{
namespace
{

using lap::PlacementKind;
using lap::PolicyKind;
using lap::SimConfig;

/** Every period-th reference is stamped in a traced job. A prime
 *  period keeps the stamps from locking onto one core of the
 *  driver's near round-robin issue order. */
constexpr std::uint32_t kStampPeriod = 31;

/** The paper's 7-policy matrix (Table II LLC, Fig 14 / Fig 24). */
struct PolicyCase
{
    const char *slug;
    PolicyKind policy;
    PlacementKind placement;
    bool hybrid;
};

constexpr PolicyCase kMatrix[] = {
    {"inclusive", PolicyKind::Inclusive, PlacementKind::Default, false},
    {"noni", PolicyKind::NonInclusive, PlacementKind::Default, false},
    {"ex", PolicyKind::Exclusive, PlacementKind::Default, false},
    {"flex", PolicyKind::Flexclusion, PlacementKind::Default, false},
    {"dswitch", PolicyKind::Dswitch, PlacementKind::Default, false},
    {"lap", PolicyKind::Lap, PlacementKind::Default, false},
    {"lhybrid", PolicyKind::Lap, PlacementKind::Lhybrid, true},
};
constexpr std::size_t kMatrixSize = sizeof(kMatrix) / sizeof(kMatrix[0]);

const PolicyCase &
policyCase(const std::string &slug)
{
    for (const PolicyCase &p : kMatrix) {
        if (slug == p.slug)
            return p;
    }
    lap_panic("unknown policy slug %s", slug.c_str());
}

/** Table II system (the SimConfig defaults) under one policy. */
SimConfig
tableTwo(const PolicyCase &p, std::uint64_t seed)
{
    SimConfig c;
    c.policy = p.policy;
    c.placement = p.placement;
    c.hybridLlc = p.hybrid;
    c.seedSalt = seed;
    return c;
}

std::uint64_t
representedRefs(const SimConfig &c)
{
    return (c.warmupRefs + c.measureRefs) * c.numCores;
}

std::uint64_t
measuredRefs(const SimConfig &c)
{
    return c.measureRefs * c.numCores;
}

std::uint64_t
countVerifierEntries(lap::Simulator &sim)
{
    std::uint64_t n = 0;
    sim.hierarchy().verifier().forEachLatest(
        [&n](lap::Addr, std::uint64_t) { ++n; });
    return n;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
fmt(const char *format, double value)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), format, value);
    return buf;
}

std::uint64_t
fileBytes(const fs::path &path)
{
    std::error_code ec;
    const auto n = fs::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

/** A fresh, empty directory under the work dir. */
fs::path
freshDir(const Options &opt, const std::string &name)
{
    const fs::path dir = fs::path(opt.workDir) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

// --- Layer accounting ---------------------------------------------------

/** Per-layer totals over the traced jobs of one run. */
struct Attribution
{
    double wallS = 0.0;       //!< Traced jobs' wall.
    double untracedS = 0.0;   //!< Same jobs, untraced twins.
    double constructS = 0.0;
    double setupS = 0.0;      //!< Generator build / trace open.
    double sourceS = 0.0;     //!< Estimated next() self time.
    double driverS = 0.0;
    double accessS = 0.0;
    double probeS = 0.0;      //!< Estimated cost of the clock reads.
    /** Per-reference access time of stamped references, by path. */
    Sampled llcPath, privateHit;
    Sampled bias;             //!< Stamp bias, one sample per job.
    Sampled perturbation;     //!< Stamped minus plain iteration.
    std::uint64_t jobs = 0;
    std::uint64_t refs = 0;
    // Hierarchy work counts (measured window, summed over jobs).
    std::map<std::string, double> counts;
    double verifierEntries = 0.0;
    double mappedMb = 0.0;

    double
    perRefNs(double total_s) const
    {
        return refs ? total_s / static_cast<double>(refs) * 1e9 : 0.0;
    }
};

/** One serially executed job (table3-serial, trace-replay, probes). */
struct SerialJob
{
    std::string label;
    SimConfig config;
    std::vector<lap::WorkloadSpec> perCore; //!< Synthetic sources.
    std::string tracePath;                  //!< Else a LAPTR1 file.
};

/**
 * Runs @p job through the public API, timing Simulator construction,
 * source set-up and the simulation. With @p attr, the layer probes
 * are attached and their estimates accumulated; with @p spans, the
 * job's spans are recorded under request id @p request.
 */
JobRecord
runSerial(const SerialJob &job, double &setup_s, Attribution *attr,
          SpanLog *spans, std::uint64_t request)
{
    JobRecord rec;
    rec.label = job.label;
    rec.refs = representedRefs(job.config);
    rec.measuredRefs = measuredRefs(job.config);
    rec.traced = attr != nullptr;
    const SimConfig &cfg = job.config;
    const auto t0 = Clock::now();
    try {
        const lap::ScopedFatalThrow guard;
        lap::Simulator sim(cfg);
        const auto t1 = Clock::now();
        std::vector<std::unique_ptr<lap::TraceSource>> sources;
        std::vector<lap::CoreParams> cores(cfg.numCores);
        double mapped_mb = 0.0;
        if (job.tracePath.empty()) {
            sources = lap::buildMultiProgrammed(job.perCore, cfg.seedSalt);
            for (std::uint32_t c = 0; c < cfg.numCores; ++c)
                cores[c].mlp = job.perCore[c].mlp;
        } else {
            const auto store = lap::openTraceStore(
                job.tracePath, cfg.numCores,
                cfg.warmupRefs + cfg.measureRefs, cfg.seedSalt);
            if (store->coreCount() != cfg.numCores)
                lap_fatal("trace %s has %u cores, run has %u",
                          job.tracePath.c_str(), store->coreCount(),
                          cfg.numCores);
            sources = lap::buildReplaySources(store);
            for (std::uint32_t c = 0; c < cfg.numCores; ++c)
                cores[c].mlp = store->coreMlp(c);
            mapped_mb =
                static_cast<double>(fileBytes(job.tracePath)) / 1048576.0;
        }
        for (lap::CoreParams &cp : cores) {
            cp.issueWidth = cfg.issueWidth;
            cp.l1Latency = cfg.l1Latency;
        }
        const auto t2 = Clock::now();

        std::unique_ptr<LayerProbe> probe;
        std::vector<std::unique_ptr<TimedSource>> timed;
        std::vector<lap::TraceSource *> raw;
        if (attr) {
            probe = std::make_unique<LayerProbe>(kStampPeriod);
            sim.hierarchy().addObserver(probe.get());
            for (auto &s : sources) {
                timed.push_back(std::make_unique<TimedSource>(*s, *probe));
                raw.push_back(timed.back().get());
            }
        } else {
            for (auto &s : sources)
                raw.push_back(s.get());
        }
        rec.metrics = sim.runTraces(raw, cores);
        const auto t3 = Clock::now();
        rec.wallS = secondsBetween(t0, t3);
        setup_s = secondsBetween(t0, t2);

        if (attr) {
            sim.hierarchy().removeObserver(probe.get());
            // The stamped intervals split the light samples' plain
            // iteration time between the layers.
            const double refs = static_cast<double>(probe->refs());
            const double cost = probe->clockCostS();
            const double source = probe->source().meanS(cost);
            const double driver = probe->driver().meanS(cost);
            const double access = probe->access().meanS(cost);
            const double stamped = source + driver + access;
            const double plain = probe->iteration().meanS(cost);
            const double scale = stamped > 0 ? plain / stamped : 0.0;
            const double source_s = source * scale * refs;
            const double driver_s = driver * scale * refs;
            const double access_s = access * scale * refs;
            const double probe_s =
                static_cast<double>(probe->clockReads()) * cost;
            attr->wallS += rec.wallS;
            attr->constructS += secondsBetween(t0, t1);
            attr->setupS += secondsBetween(t1, t2);
            attr->sourceS += source_s;
            attr->driverS += driver_s;
            attr->accessS += access_s;
            attr->probeS += probe_s;
            attr->jobs += 1;
            attr->refs += probe->refs();
            attr->bias.add(cost);
            attr->perturbation.add(stamped - plain);
            for (auto [into, from] :
                 {std::pair{&attr->llcPath, &probe->llcPath()},
                  std::pair{&attr->privateHit, &probe->privateHit()}}) {
                into->sumS += from->meanS(cost) * scale
                    * static_cast<double>(from->count);
                into->count += from->count;
            }
            const lap::HierarchyStats &hs = sim.hierarchy().stats();
            auto &k = attr->counts;
            k["hierarchy.refs"] += static_cast<double>(hs.demandAccesses);
            k["hierarchy.llc_lookups"] +=
                static_cast<double>(hs.llcHits + hs.llcMisses);
            k["hierarchy.llc_hits"] += static_cast<double>(hs.llcHits);
            k["hierarchy.llc_writes.fill"] +=
                static_cast<double>(hs.llcWritesDataFill);
            k["hierarchy.llc_writes.clean_victim"] +=
                static_cast<double>(hs.llcWritesCleanVictim);
            k["hierarchy.llc_writes.dirty_victim"] +=
                static_cast<double>(hs.llcWritesDirtyVictim);
            k["hierarchy.llc_writes.migration"] +=
                static_cast<double>(hs.llcWritesMigration);
            k["hierarchy.back_invalidations"] +=
                static_cast<double>(hs.llcBackInvalidations);
            k["hierarchy.invalidations_on_hit"] +=
                static_cast<double>(hs.llcInvalidationsOnHit);
            k["hierarchy.dram_reads"] +=
                static_cast<double>(sim.hierarchy().dram().stats().reads);
            k["hierarchy.dram_writes"] +=
                static_cast<double>(sim.hierarchy().dram().stats().writes);
            attr->verifierEntries +=
                static_cast<double>(countVerifierEntries(sim));
            attr->mappedMb += mapped_mb;
            if (spans) {
                const bool synthetic = job.tracePath.empty();
                spans->add(request, "job", "", t0, t3);
                spans->add(request, "sim.construct", "job", t0, t1);
                spans->add(request,
                           synthetic ? "workloads.build" : "trace.open",
                           "job", t1, t2);
                spans->add(request, "sim.run", "job", t2, t3);
                spans->addSelf(request,
                               synthetic ? "workloads.next" : "trace.next",
                               "sim.run", t2, source_s);
                spans->addSelf(request, "cpu.driver", "sim.run", t2,
                               driver_s);
                spans->addSelf(request, "hierarchy.access", "sim.run",
                               t2, access_s);
                spans->addSelf(request, "probe.clock_reads", "sim.run",
                               t2, probe_s);
            }
        }
    } catch (const lap::FatalError &err) {
        rec.ok = false;
        rec.error = err.what();
        rec.wallS = secondsSince(t0);
    }
    return rec;
}

/** Adds the traced run's per-layer metrics and report lines. */
void
reportAttribution(const Attribution &a, RunSummary &out,
                  const std::string &source_layer, const char *scope)
{
    auto &L = out.layers;
    const double jobs = std::max<double>(1.0, static_cast<double>(a.jobs));
    L["source.next_ns"] = a.perRefNs(a.sourceS);
    L["source.setup_ms"] = a.setupS / jobs * 1e3;
    L["sim.construct_ms"] = a.constructS / jobs * 1e3;
    L["cpu.driver_ns"] = a.perRefNs(a.driverS);
    L["hierarchy.access_ns"] = a.perRefNs(a.accessS);
    L["hierarchy.llc_path_ns"] = a.llcPath.meanS(0.0) * 1e9;
    L["hierarchy.private_hit_ns"] = a.privateHit.meanS(0.0) * 1e9;
    const double layers = a.constructS + a.setupS + a.sourceS
        + a.driverS + a.accessS + a.probeS;
    L["trace.coverage"] = a.wallS > 0 ? layers / a.wallS : 0.0;
    L["trace.overhead"] =
        a.untracedS > 0 ? a.wallS / a.untracedS - 1.0 : 0.0;
    for (const auto &[name, total] : a.counts) {
        if (name != "hierarchy.llc_hits")
            L[name] = total / jobs;
    }
    const auto lookups = a.counts.find("hierarchy.llc_lookups");
    const auto hits = a.counts.find("hierarchy.llc_hits");
    L["hierarchy.llc_hit_ratio"] =
        lookups != a.counts.end() && lookups->second > 0
        ? hits->second / lookups->second : 0.0;
    L["mem.verifier_entries"] = a.verifierEntries / jobs;
    L["trace.mapped_mb"] = a.mappedMb / jobs;

    auto share = [&](double s) {
        return a.wallS > 0 ? 100.0 * s / a.wallS : 0.0;
    };
    auto &n = out.notes;
    n.push_back(std::string("layer self time (") + scope + ", "
                + std::to_string(a.jobs) + " traced jobs, "
                + fmt("%.3f s traced wall):", a.wallS));
    auto line = [&](const std::string &name, double s) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "  %-22s %7.2f%%", name.c_str(),
                      share(s));
        n.push_back(buf);
    };
    line("sim.construct", a.constructS);
    line(source_layer
             + (source_layer == "workloads" ? ".build" : ".open"),
         a.setupS);
    line(source_layer + ".next", a.sourceS);
    line("cpu.driver", a.driverS);
    line("hierarchy.access", a.accessS);
    line("probe clock reads", a.probeS);
    line("unattributed", a.wallS - layers);
    n.push_back(fmt("tracing overhead: untraced refs_per_s / traced "
                    "refs_per_s - 1 = %+.2f%%",
                    100.0 * L["trace.overhead"]));
    n.push_back("hierarchy.access covers the cache, inclusion engine, "
                "placement, verifier and DRAM together: the verifier's "
                "and the inclusion engine's own shares are not visible "
                "from outside CacheHierarchy::access and are left to "
                "in-program tracing");
}

/**
 * Runs each job untraced and then traced, emits both rows (labels
 * prefixed with @p prefix), and reports the layer attribution over
 * the traced twins. Traced and untraced rows must fingerprint alike:
 * that is what shows the probes do not perturb the simulation.
 */
void
traceJobs(const Options &opt, const std::vector<SerialJob> &jobs,
          const std::string &prefix, const std::string &source_layer,
          const std::string &scope, RunSummary &out)
{
    Attribution attr;
    SpanLog spans;
    double setup = 0.0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        JobRecord plain = runSerial(jobs[k], setup, nullptr, nullptr, 0);
        out.setupS.push_back(setup);
        JobRecord traced = runSerial(jobs[k], setup, &attr, &spans, k);
        attr.untracedS += plain.wallS;
        plain.label = prefix + plain.label;
        traced.label = prefix + traced.label;
        emitJob(plain);
        emitJob(traced);
    }
    reportAttribution(attr, out, source_layer, scope.c_str());
    out.notes.push_back(
        "1 reference in " + std::to_string(kStampPeriod)
        + " stamped, each with a light sample half a period later"
        + fmt("; stamp bias %.1f ns per interval", attr.bias.meanS(0.0) * 1e9)
        + fmt("; stamping slows a reference by %.1f ns, which the light "
              "samples take out",
              attr.perturbation.meanS(0.0) * 1e9));
    const fs::path path = fs::path(opt.workDir)
        / ("spans-" + opt.workload + "-seed" + std::to_string(opt.seed)
           + ".jsonl");
    if (spans.write(path.string()))
        out.notes.push_back("spans: " + path.string());
}

// --- Serial workloads -----------------------------------------------------

/** The generator-built job of one Table III mix under one policy. */
SerialJob
mixJob(const lap::MixSpec &mix, const PolicyCase &p, std::uint64_t seed)
{
    SerialJob job;
    job.label = mix.name + "/" + p.slug;
    job.config = tableTwo(p, seed);
    job.perCore = lap::resolveMix(mix);
    return job;
}

/** The 70 jobs of Fig 14 in an order where any prefix spreads evenly
 *  over the policies and the mixes (7 and 10 are coprime). */
std::vector<SerialJob>
tableThreeCycle(std::uint64_t seed)
{
    const auto mixes = lap::tableThreeMixes();
    std::vector<SerialJob> jobs;
    for (std::size_t k = 0; k < kMatrixSize * mixes.size(); ++k)
        jobs.push_back(mixJob(mixes[k % mixes.size()],
                              kMatrix[k % kMatrixSize], seed));
    return jobs;
}

/** Untimed trace-replay fixture: three LAPTR1 files. */
struct TraceFixture
{
    fs::path dir;
    std::vector<std::pair<std::string, std::string>> files; // label, path

    TraceFixture(const Options &opt)
        : dir(freshDir(opt, "trace-replay-seed" + std::to_string(opt.seed)))
    {
        const SimConfig base;
        const std::uint64_t per_core = base.warmupRefs + base.measureRefs;
        const auto mixes = lap::tableThreeMixes();
        const lap::MixSpec &mix = mixes[opt.seed % mixes.size()];
        auto write = [&](const std::string &label,
                         const lap::TraceData &data) {
            const fs::path path = dir / (label + ".laptr");
            lap::writeTraceFile(path.string(), data);
            files.emplace_back(label, path.string());
        };
        write(mix.name, lap::captureMultiProgrammed(
                            lap::resolveMix(mix), opt.seed, per_core));
        for (const char *stressor : {"gups", "stencil"})
            write(stressor, lap::buildStressorTrace(
                                stressor, base.numCores, per_core,
                                opt.seed));
    }

    ~TraceFixture()
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    TraceFixture(const TraceFixture &) = delete;
    TraceFixture &operator=(const TraceFixture &) = delete;
};

/** Each fixture file under noni / ex / lap, policies interleaved. */
std::vector<SerialJob>
traceReplayCycle(const TraceFixture &fx, std::uint64_t seed)
{
    std::vector<SerialJob> jobs;
    for (const char *policy : {"noni", "ex", "lap"}) {
        for (const auto &[label, path] : fx.files) {
            SerialJob job;
            job.label = "trace:" + label + "/" + policy;
            job.config = tableTwo(policyCase(policy), seed);
            job.tracePath = path;
            jobs.push_back(job);
        }
    }
    return jobs;
}

/**
 * Untimed modes run the cycle once; the timed mode loops over it
 * until the clock runs out; the traced mode runs @p traced_jobs of
 * it, each untraced and then traced.
 */
RunSummary
runSerialWorkload(const Options &opt, const std::vector<SerialJob> &cycle,
                  std::size_t traced_jobs, const std::string &source_layer)
{
    RunSummary out;
    double setup = 0.0;
    if (opt.regen) {
        for (const SerialJob &job : cycle)
            emitJob(runSerial(job, setup, nullptr, nullptr, 0));
        return out;
    }
    if (opt.traced) {
        const std::vector<SerialJob> first(
            cycle.begin(),
            cycle.begin()
                + static_cast<std::ptrdiff_t>(
                    std::min(traced_jobs, cycle.size())));
        traceJobs(opt, first, "", source_layer, "serial jobs", out);
        return out;
    }
    HostProbe host;
    const auto start = Clock::now();
    std::size_t k = 0;
    do {
        out.hostProbeS.push_back(host.sample(false));
        JobRecord rec =
            runSerial(cycle[k % cycle.size()], setup, nullptr, nullptr, 0);
        rec.unit = k;
        out.setupS.push_back(setup);
        out.unitWallS.push_back(rec.wallS);
        emitJob(rec);
        ++k;
    } while (secondsSince(start) < opt.seconds);
    out.hostProbeS.push_back(host.sample(false));
    return out;
}

// --- Campaign workloads ---------------------------------------------------

/** A finished campaign job as onJobDone reported it. */
struct PoolRow
{
    lap::CampaignJob job;
    lap::JobOutcome outcome;
    double doneS = 0.0; //!< Since the campaign's start.
};

struct PoolRun
{
    std::vector<PoolRow> rows;
    double wallS = 0.0;
    std::uint64_t sinkBytes = 0;
    std::uint64_t epochRows = 0;
};

/**
 * Runs one campaign, collecting every finished job. It first hands
 * the memory earlier campaigns freed back to the system: a user runs
 * one campaign per process, and without the trim the pool's fresh
 * threads land on arenas in an arbitrary order and the peak RSS
 * varies from run to run.
 */
PoolRun
runPool(const lap::CampaignSpec &spec, lap::EngineOptions eo)
{
    malloc_trim(0);
    PoolRun run;
    std::mutex mutex;
    const auto start = Clock::now();
    eo.onJobDone = [&](const lap::CampaignJob &job,
                       const lap::JobOutcome &outcome, std::size_t,
                       std::size_t) {
        const double done = secondsSince(start);
        const std::lock_guard<std::mutex> lock(mutex);
        run.rows.push_back({job, outcome, done});
    };
    lap::runCampaign(spec, eo);
    run.wallS = secondsSince(start);
    if (!eo.outPath.empty()) {
        run.sinkBytes = fileBytes(eo.outPath);
        std::ifstream in(eo.outPath);
        std::string line;
        while (std::getline(in, line))
            run.epochRows +=
                line.find("\"type\":\"epoch\"") != std::string::npos;
    }
    return run;
}

JobRecord
poolRecord(const PoolRow &row, std::uint64_t unit)
{
    JobRecord rec;
    rec.unit = unit;
    rec.label = row.job.label;
    rec.ok = row.outcome.status == lap::JobStatus::Ok;
    rec.error = row.outcome.error;
    rec.wallS = row.outcome.wallMs / 1e3;
    rec.refs = representedRefs(row.job.config);
    rec.measuredRefs = measuredRefs(row.job.config);
    rec.metrics = row.outcome.metrics;
    rec.samplingJson = row.outcome.samplingJson;
    return rec;
}

/** Mix name -> per-core specs, for the set-up probe and solo jobs. */
lap::MixSpec
namedMix(const std::string &name)
{
    for (const auto &m : lap::tableThreeMixes())
        if (m.name == name)
            return m;
    for (const auto &m : lap::randomMixes(50, 4))
        if (m.name == name)
            return m;
    lap_panic("unknown mix %s", name.c_str());
}

/** A grid job re-run serially through runSerial (probes). */
SerialJob
soloJob(const lap::CampaignJob &job)
{
    SerialJob s;
    s.label = job.label;
    s.config = job.config;
    s.config.sampleIntervals = 0;
    s.config.samplePlan.clear();
    s.config.sampleProfileOnly = false;
    s.config.checkpointEvery = 0;
    s.config.checkpointOut.clear();
    s.config.restorePath.clear();
    s.perCore = lap::resolveMix(namedMix(job.workload.name));
    return s;
}

/**
 * Set-up samples of a campaign workload, taken before the timed
 * loop. One sample is what the pool pays before its jobs' first
 * references — the spec expansion plus every job's construction and
 * generator build — divided by the number of jobs, so it compares
 * with a serial job's set-up and averages out page-fault noise.
 */
std::vector<double>
campaignSetup(const lap::CampaignSpec &spec, int samples)
{
    std::vector<double> out;
    for (int i = 0; i < samples; ++i) {
        const auto t0 = Clock::now();
        const auto jobs = lap::expandCampaign(spec);
        for (const lap::CampaignJob &job : jobs) {
            const lap::Simulator sim(job.config);
            const auto sources = lap::buildMultiProgrammed(
                lap::resolveMix(namedMix(job.workload.name)),
                job.config.seedSalt);
        }
        out.push_back(secondsSince(t0) / static_cast<double>(jobs.size()));
    }
    return out;
}

/** Pool statistics of the traced run (one batch). */
void
reportPool(const std::vector<PoolRun> &runs, std::uint32_t workers,
           RunSummary &out)
{
    double job_wall = 0.0, wall = 0.0, tail = 0.0;
    std::uint64_t sink = 0, epoch_rows = 0, jobs = 0;
    for (const PoolRun &run : runs) {
        double last_start = 0.0;
        for (const PoolRow &row : run.rows) {
            job_wall += row.outcome.wallMs / 1e3;
            last_start = std::max(last_start,
                                  row.doneS - row.outcome.wallMs / 1e3);
        }
        wall += run.wallS;
        tail += run.wallS - last_start;
        sink += run.sinkBytes;
        epoch_rows += run.epochRows;
        jobs += run.rows.size();
    }
    const double busy = wall > 0 ? job_wall / (wall * workers) : 0.0;
    out.layers["campaign.sink_bytes"] =
        static_cast<double>(sink) / static_cast<double>(runs.size());
    out.layers["stats.epoch_rows"] =
        jobs ? static_cast<double>(epoch_rows) / static_cast<double>(jobs)
             : 0.0;
    out.notes.push_back(fmt("campaign.pool_busy %.3f", busy)
                        + fmt("  campaign.tail_s %.3f", tail)
                        + " (summed over "
                        + std::to_string(runs.size()) + " campaigns, "
                        + std::to_string(workers) + " workers)");
}

/** The first finished job of each policy in the run's last
 *  campaign, when the pool is warm: the solo probes' sample. */
std::vector<const PoolRow *>
probeRows(const std::vector<PoolRun> &runs)
{
    std::vector<const PoolRow *> picked;
    std::set<std::string> seen;
    for (const PoolRow &row : runs.back().rows) {
        const std::string &label = row.job.label;
        if (seen.insert(label.substr(label.find('/'))).second)
            picked.push_back(&row);
    }
    return picked;
}

/** Solo vs pooled wall of the probe rows. */
void
reportContention(const std::vector<PoolRun> &runs,
                 const std::function<lap::JobOutcome(const PoolRow &)> &solo,
                 RunSummary &out)
{
    double pooled = 0.0, alone = 0.0;
    const auto rows = probeRows(runs);
    for (const PoolRow *row : rows) {
        pooled += row->outcome.wallMs;
        alone += solo(*row).wallMs;
    }
    out.notes.push_back(
        fmt("campaign.contention_ratio %.3f", alone > 0 ? pooled / alone
                                                        : 0.0)
        + " (pooled / solo wall of " + std::to_string(rows.size())
        + " jobs)");
}

/** Layer attribution of a pool workload from solo probe jobs. */
void
soloAttribution(const Options &opt, const std::vector<PoolRun> &runs,
                RunSummary &out)
{
    std::vector<SerialJob> jobs;
    for (const PoolRow *row : probeRows(runs))
        jobs.push_back(soloJob(row->job));
    traceJobs(opt, jobs, "probe:", "workloads", "solo probe jobs", out);
}

/** Share of jobs that simulate the same workload under the same
 *  config as an earlier job of the run. The job key minus its
 *  "campaign=<name>|" prefix is exactly that identity; the job hash
 *  covers the campaign name too, so it cannot see the repeat. */
double
duplicateShare(const std::vector<PoolRow> &rows)
{
    std::set<std::string> seen;
    std::size_t dup = 0;
    for (const PoolRow &row : rows) {
        const std::string &key = row.job.key;
        dup += seen.insert(key.substr(key.find('|') + 1)).second ? 0 : 1;
    }
    return rows.empty() ? 0.0
                        : static_cast<double>(dup)
            / static_cast<double>(rows.size());
}

// sweep-sampled ---------------------------------------------------------------

constexpr std::uint64_t kSamplingIntervals = 20;

/** Two WL and two WH Table III mixes x {noni, ex, dswitch, lap} at
 *  Table II length. Four mixes give each of four workers one profile
 *  job, and a short campaign keeps the host probes that bracket it
 *  close together. */
lap::CampaignSpec
sampledSpec(std::uint64_t seed)
{
    lap::CampaignSpec spec;
    spec.name = "sampled";
    spec.seed = seed;
    spec.policies = {PolicyKind::NonInclusive, PolicyKind::Exclusive,
                     PolicyKind::Dswitch, PolicyKind::Lap};
    for (const char *mix : {"WL1", "WL3", "WH1", "WH3"})
        spec.workloads.push_back(lap::CampaignWorkload::mix(mix));
    return spec;
}

/** The sampling layer's figures from one sampled campaign. */
void
reportSampling(const PoolRun &run, RunSummary &out)
{
    double profile = 0.0, planned = 0.0, modeled = 0.0;
    std::size_t profiles = 0, plans = 0;
    for (const PoolRow &row : run.rows) {
        const double wall = row.outcome.wallMs / 1e3;
        const std::string &json = row.outcome.samplingJson;
        if (json.find("\"mode\":\"profile\"") != std::string::npos) {
            profile += wall;
            ++profiles;
        } else if (json.find("\"mode\":\"planned\"") != std::string::npos) {
            planned += wall;
            ++plans;
            const auto at = json.find("\"modelSpeedup\":");
            modeled += std::stod(json.substr(at + 15));
        }
    }
    // A profile job runs the full simulation, so its wall stands in
    // for the full cost of each planned sibling.
    const double full_est = profiles ? profile / static_cast<double>(profiles)
                                     : 0.0;
    const double sampled_per = plans ? planned / static_cast<double>(plans)
                                     : 0.0;
    out.notes.push_back(
        fmt("sampling.profile_s %.3f", profile)
        + fmt("  sampling.planned_s %.3f", planned)
        + fmt("  sampling.model_speedup %.2f",
              plans ? modeled / static_cast<double>(plans) : 0.0)
        + fmt("  sampling.wall_speedup %.2f",
              sampled_per > 0 ? full_est / sampled_per : 0.0)
        + " (one sampled campaign; wall speedup = profile job wall / "
          "planned job wall)");
    out.notes.push_back("sampling.bound_violations is counted by run.py "
                        "against the reference truth");
}

// sweep-resumable -----------------------------------------------------------

/** fig12/fig13's grid: random mixes x {noni, ex}, short jobs. The
 *  mix set is fixed so the seed varies the reference streams, not
 *  the footprint the peak RSS follows. */
lap::CampaignSpec
resumableSpec(const std::string &name, std::uint64_t seed)
{
    constexpr std::size_t kMixes = 16;
    lap::CampaignSpec spec;
    spec.name = name;
    spec.seed = seed;
    spec.base.warmupRefs = 40'000;
    spec.base.measureRefs = 160'000;
    spec.base.epochStatsInterval = 50'000;
    spec.policies = {PolicyKind::NonInclusive, PolicyKind::Exclusive};
    const auto mixes = lap::randomMixes(50, 4);
    for (std::size_t i = 0; i < kMixes; ++i)
        spec.workloads.push_back(lap::CampaignWorkload::mix(mixes[i].name));
    return spec;
}

/** Checkpoint and epoch-sampler probes on one solo grid job. */
void
checkpointProbe(const Options &opt, const SerialJob &job, RunSummary &out)
{
    const fs::path dir = freshDir(opt, "checkpoint-probe");
    const fs::path path = dir / "job.ckpt";
    // The engine's default cadence: about four snapshots per job.
    const std::uint64_t every =
        std::max<std::uint64_t>(1, representedRefs(job.config) / 4);
    lap::Simulator sim(job.config);
    std::vector<double> saves;
    sim.setCheckpointHook(every, [&](std::uint64_t) {
        const auto t0 = Clock::now();
        sim.saveCheckpoint(path.string());
        saves.push_back(secondsSince(t0));
    });
    sim.run(job.perCore);
    const std::uint64_t bytes = fileBytes(path);
    fs::remove_all(dir);

    // Epoch sampler cost: the same job with the sampler on and off,
    // alternated, median of each.
    std::vector<double> on, off;
    double setup = 0.0;
    SerialJob no_epochs = job;
    no_epochs.config.epochStatsInterval = 0;
    for (int i = 0; i < 3; ++i) {
        on.push_back(runSerial(job, setup, nullptr, nullptr, 0).wallS);
        off.push_back(runSerial(no_epochs, setup, nullptr, nullptr, 0).wallS);
    }
    out.layers["checkpoint.bytes"] = static_cast<double>(bytes);
    out.layers["checkpoint.per_job"] = static_cast<double>(saves.size());
    out.notes.push_back(fmt("checkpoint.save_ms %.3f", median(saves) * 1e3)
                        + fmt("  checkpoint.bytes %.0f",
                              static_cast<double>(bytes))
                        + "  checkpoint.per_job "
                        + std::to_string(saves.size()));
    out.notes.push_back(fmt("stats.epoch_cost_ratio %.4f",
                            median(on) / median(off))
                        + " (job wall, epoch sampler on / off)");
}

RunSummary
sweepResumable(const Options &opt)
{
    RunSummary out;
    out.workers = opt.workers;
    const char *names[] = {"fig12", "fig13"};
    std::vector<PoolRun> runs;
    std::size_t batch = 0;
    HostProbe host;
    auto run_batch = [&] {
        for (const char *name : names) {
            const lap::CampaignSpec spec = resumableSpec(name, opt.seed);
            lap::EngineOptions eo;
            eo.jobs = opt.workers;
            eo.midJobRestore = true;
            eo.outPath = (freshDir(opt, std::string("sweep-") + name + "-"
                                            + std::to_string(batch))
                          / "results.jsonl")
                             .string();
            out.hostProbeS.push_back(host.sample(true));
            runs.push_back(runPool(spec, eo));
            out.unitWallS.push_back(runs.back().wallS);
        }
        ++batch;
    };
    if (!opt.regen)
        out.setupS = campaignSetup(resumableSpec(names[0], opt.seed), 9);
    const auto start = Clock::now();
    do {
        run_batch();
    } while (!opt.regen && !opt.traced && secondsSince(start) < opt.seconds);
    out.hostProbeS.push_back(host.sample(true));
    std::vector<PoolRow> rows;
    for (std::size_t u = 0; u < runs.size(); ++u) {
        rows.insert(rows.end(), runs[u].rows.begin(), runs[u].rows.end());
        for (const PoolRow &row : runs[u].rows)
            emitJob(poolRecord(row, u));
    }
    out.duplicateShare = duplicateShare(rows);
    for (std::size_t b = 0; b < batch; ++b)
        for (const char *name : names)
            fs::remove_all(fs::path(opt.workDir)
                           / (std::string("sweep-") + name + "-"
                              + std::to_string(b)));
    if (!opt.traced)
        return out;

    out.layers["campaign.duplicate_share"] = out.duplicateShare;
    reportPool(runs, opt.workers, out);
    const fs::path solo_dir = freshDir(opt, "solo");
    reportContention(runs, [&](const PoolRow &row) {
        const std::string ckpt = (solo_dir / "job.ckpt").string();
        return lap::runCampaignJob(lap::withJobCheckpointing(row.job, ckpt, 0));
    }, out);
    fs::remove_all(solo_dir);
    checkpointProbe(opt, soloJob(runs.back().rows.front().job), out);
    soloAttribution(opt, runs, out);
    // The sampling layer runs on no gated workload's timed path, so
    // the traced run measures it here: one sweep-sampled campaign.
    lap::EngineOptions sampled;
    sampled.jobs = opt.workers;
    sampled.samplingIntervals = kSamplingIntervals;
    const PoolRun run = runPool(sampledSpec(opt.seed), sampled);
    for (const PoolRow &row : run.rows) {
        JobRecord rec = poolRecord(row, 0);
        rec.label = "sampled:" + rec.label;
        emitJob(rec);
    }
    reportSampling(run, out);
    return out;
}

RunSummary
sweepSampled(const Options &opt)
{
    RunSummary out;
    out.workers = opt.workers;
    const lap::CampaignSpec spec = sampledSpec(opt.seed);
    lap::EngineOptions eo;
    eo.jobs = opt.workers;
    eo.samplingIntervals = kSamplingIntervals;
    if (opt.regen) {
        // Sampled rows, then the full-simulation truth each sampled
        // row's bounds are checked against.
        for (const PoolRow &row : runPool(spec, eo).rows)
            emitJob(poolRecord(row, 0));
        lap::EngineOptions full = eo;
        full.samplingIntervals = 0;
        for (const PoolRow &row : runPool(spec, full).rows) {
            JobRecord rec = poolRecord(row, 0);
            rec.label = "truth:" + rec.label;
            emitJob(rec);
        }
        return out;
    }
    out.setupS = campaignSetup(spec, 9);
    std::vector<PoolRun> runs;
    HostProbe host;
    const auto start = Clock::now();
    do {
        out.hostProbeS.push_back(host.sample(true));
        runs.push_back(runPool(spec, eo));
        out.unitWallS.push_back(runs.back().wallS);
    } while (!opt.traced && secondsSince(start) < opt.seconds);
    out.hostProbeS.push_back(host.sample(true));
    for (std::size_t u = 0; u < runs.size(); ++u)
        for (const PoolRow &row : runs[u].rows)
            emitJob(poolRecord(row, u));
    if (!opt.traced)
        return out;

    reportPool(runs, opt.workers, out);
    reportContention(runs, [](const PoolRow &row) {
        return lap::runCampaignJob(row.job);
    }, out);
    reportSampling(runs.front(), out);
    soloAttribution(opt, runs, out);
    return out;
}

} // namespace

RunSummary
runWorkload(const Options &opt)
{
    fs::create_directories(opt.workDir);
    RunSummary out;
    if (opt.workload == "table3-serial") {
        out = runSerialWorkload(opt, tableThreeCycle(opt.seed),
                                kMatrixSize, "workloads");
    } else if (opt.workload == "trace-replay") {
        const TraceFixture fixture(opt);
        out = runSerialWorkload(opt, traceReplayCycle(fixture, opt.seed),
                                9, "trace");
    } else if (opt.workload == "sweep-resumable") {
        out = sweepResumable(opt);
    } else if (opt.workload == "sweep-sampled") {
        out = sweepSampled(opt);
    } else {
        lap_fatal("unknown workload '%s' (table3-serial, trace-replay, "
                  "sweep-resumable, sweep-sampled)",
                  opt.workload.c_str());
    }
    if (opt.traced) {
        // Layers a workload never enters did no work on it.
        for (const char *idle :
             {"campaign.duplicate_share", "campaign.sink_bytes",
              "stats.epoch_rows", "checkpoint.bytes", "checkpoint.per_job",
              "sampling.bound_violations"})
            out.layers.emplace(idle, 0.0);
    }
    return out;
}

} // namespace perfbench
