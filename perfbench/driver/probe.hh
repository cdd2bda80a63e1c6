/**
 * @file
 * Outside-in layer attribution for the traced run.
 *
 * The simulator's reference loop is: the driver picks a core, pulls
 * one MemRef from that core's TraceSource, hands it to
 * CacheHierarchy::access, and advances the core model. Two public
 * seams see those boundaries without any change to the simulator:
 *
 *  - TimedSource decorates each core's TraceSource, so a stamp
 *    before and after next() brackets the source layer;
 *  - LayerProbe is a HierarchyObserver, so onLlcAccess marks a
 *    reference that reached the LLC and onTransactionComplete marks
 *    the end of CacheHierarchy::access.
 *
 * The stretch from next() returning to the transaction completing
 * is the hierarchy (cache, inclusion engine, placement, verifier,
 * DRAM); from the transaction completing to the next next() call is
 * the driver and core model. Only every period-th reference is
 * stamped. Each stamped reference also times one empty interval in
 * place, and that bias is subtracted from every stamped interval.
 *
 * Stamping a reference's three boundaries slows that reference, so
 * the three sums overstate a plain reference. Half a period later a
 * light sample stamps one whole iteration with just two reads; its
 * mean is the per-reference total, and the three stamped intervals
 * only split it between the layers.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "cpu/trace.hh"
#include "hierarchy/observer.hh"

namespace perfbench
{

/**
 * Host memory-speed probe: seconds one fixed random read-modify-write
 * kernel over a 64 MiB table takes right now. The simulator's speed
 * on a shared host follows the host's memory speed, which drifts by
 * up to 2x over tens of seconds; run.py divides measured times by the
 * probe's median to report them at a fixed reference speed.
 *
 * The kernel runs in a helper process (this binary started with
 * --probe-server), so its table never counts toward the benchmark's
 * peak RSS and no fork ever shares the benchmark's pages.
 */
class HostProbe
{
  public:
    HostProbe();
    /** Closes the request pipe and waits for the helper to exit. */
    ~HostProbe();

    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** One probe time in seconds, on the caller's CPU or averaged
     *  over every CPU; 0 when the helper is unusable. */
    double sample(bool all_cpus);

  private:
    int pid_ = -1;
    int toHelper_ = -1;
    int fromHelper_ = -1;
};

/** The helper's loop: answers each byte read from stdin with one
 *  probe time (a raw double) on stdout, until stdin closes. */
int probeServer();

/** Running sum of sampled interval lengths. */
struct Sampled
{
    double sumS = 0.0;
    std::uint64_t count = 0;

    void
    add(double s)
    {
        sumS += s;
        ++count;
    }

    /** Mean interval minus one clock read (never below zero). */
    double meanS(double clock_cost) const;
};

/** Sampled stamps at the source / hierarchy / driver boundaries. */
class LayerProbe final : public lap::HierarchyObserver
{
  public:
    explicit LayerProbe(std::uint32_t period) : period_(period) {}

    LayerProbe(const LayerProbe &) = delete;
    LayerProbe &operator=(const LayerProbe &) = delete;

    /** Pulls one reference from @p inner, stamping when sampled. */
    lap::MemRef next(lap::TraceSource &inner);

    void onLlcAccess(std::uint64_t set, bool hit,
                     lap::Cycle now) override;
    void onTransactionComplete(std::uint64_t transaction,
                               lap::Cycle now) override;

    std::uint64_t refs() const { return calls_; }
    const Sampled &source() const { return source_; }
    const Sampled &driver() const { return driver_; }
    const Sampled &access() const { return access_; }
    const Sampled &llcPath() const { return llcPath_; }
    const Sampled &privateHit() const { return privateHit_; }
    /** Whole iterations timed by the light samples. */
    const Sampled &iteration() const { return iteration_; }
    /** Empty stamped intervals, measured during the run: the bias
     *  one stamped interval carries. */
    const Sampled &clock() const { return clock_; }
    double clockCostS() const { return clock_.meanS(0.0); }
    /** Clock reads the probe made: four per stamped reference, two
     *  per light sample. */
    std::uint64_t clockReads() const
    {
        return 4 * source_.count + 2 * iteration_.count;
    }

  private:
    std::uint32_t period_;
    std::uint64_t calls_ = 0;
    bool armed_ = false;
    bool llcSeen_ = false;
    bool driverPending_ = false;
    bool iterationPending_ = false;
    Clock::time_point iterationStart_;
    Clock::time_point nextEnd_;
    Clock::time_point complete_;
    Sampled source_, driver_, access_, llcPath_, privateHit_, clock_;
    Sampled iteration_;
};

/** TraceSource decorator routing next() through a LayerProbe. */
class TimedSource final : public lap::TraceSource
{
  public:
    TimedSource(lap::TraceSource &inner, LayerProbe &probe)
        : inner_(inner), probe_(probe)
    {
    }

    lap::MemRef next() override { return probe_.next(inner_); }
    void reset() override { inner_.reset(); }

    void
    saveState(lap::ByteWriter &out) const override
    {
        inner_.saveState(out);
    }

    void loadState(lap::ByteReader &in) override { inner_.loadState(in); }

  private:
    lap::TraceSource &inner_;
    LayerProbe &probe_;
};

/** One span of the traced run; the job index is the request id. */
struct Span
{
    std::uint64_t request = 0;
    std::string name;
    std::string parent; //!< "" for the job's root span.
    double startS = 0.0; //!< Seconds since the run's time origin.
    double durS = 0.0;
};

/** In-memory span store, written out once when the run ends. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    void add(std::uint64_t request, const std::string &name,
             const std::string &parent, Clock::time_point start,
             Clock::time_point end);

    /** An aggregated child span (a layer's estimated self time),
     *  laid out after its parent's start. */
    void addSelf(std::uint64_t request, const std::string &name,
                 const std::string &parent, Clock::time_point start,
                 double self_s);

    /** Writes one JSON line per span; returns false on I/O error. */
    bool write(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
