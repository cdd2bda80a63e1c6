#include "probe.hh"

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>

namespace perfbench
{

namespace
{

/** Probe request byte meaning "every CPU, averaged". */
constexpr int kAllCpus = 255;

/** The probe kernel: xorshift-indexed read-modify-write. */
double
probeKernel(std::vector<std::uint64_t> &table)
{
    constexpr int kOps = 2'000'000;
    const std::uint64_t mask = table.size() - 1;
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t acc = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kOps; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x & mask];
        acc += slot;
        slot = acc ^ x;
    }
    const double s = secondsSince(start);
    // Keeps the loop's stores observable.
    table[0] ^= acc;
    return s;
}

} // namespace

HostProbe::HostProbe()
{
    int to[2], from[2];
    if (pipe(to) != 0)
        return;
    if (pipe(from) != 0) {
        close(to[0]);
        close(to[1]);
        return;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, from[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, to[1]);
    posix_spawn_file_actions_addclose(&actions, from[0]);
    char name[] = "lapsim-perfbench";
    char flag[] = "--probe-server";
    char *argv[] = {name, flag, nullptr};
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(to[0]);
    close(from[1]);
    if (rc != 0) {
        close(to[1]);
        close(from[0]);
        return;
    }
    pid_ = pid;
    toHelper_ = to[1];
    fromHelper_ = from[0];
}

HostProbe::~HostProbe()
{
    if (pid_ < 0)
        return;
    close(toHelper_);
    close(fromHelper_);
    int status = 0;
    waitpid(pid_, &status, 0);
}

double
HostProbe::sample(bool all_cpus)
{
    if (pid_ < 0)
        return 0.0;
    // A host's noisy neighbours slow some CPUs more than others: a
    // serial job is probed on its own CPU, a pool on every CPU.
    const int cpu = all_cpus ? -1 : sched_getcpu();
    const unsigned char request = static_cast<unsigned char>(
        cpu < 0 ? kAllCpus : std::min(cpu, kAllCpus - 1));
    double s = 0.0;
    if (write(toHelper_, &request, 1) != 1
        || read(fromHelper_, &s, sizeof(s))
            != static_cast<ssize_t>(sizeof(s)))
        return 0.0;
    return s;
}

int
probeServer()
{
    std::vector<std::uint64_t> table(std::size_t{1} << 23, 1);
    probeKernel(table); // page faults and TLB, once
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    auto pinned = [&](int cpu) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof(set), &set);
        return probeKernel(table);
    };
    unsigned char request = 0;
    while (read(STDIN_FILENO, &request, 1) == 1) {
        double s = 0.0;
        if (request != kAllCpus) {
            s = pinned(request);
        } else {
            int n = 0;
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &allowed)) {
                    s += pinned(cpu);
                    ++n;
                }
            }
            s /= std::max(n, 1);
        }
        if (write(STDOUT_FILENO, &s, sizeof(s))
            != static_cast<ssize_t>(sizeof(s)))
            return 1;
    }
    return 0;
}

double
Sampled::meanS(double clock_cost) const
{
    if (count == 0)
        return 0.0;
    return std::max(0.0, sumS / static_cast<double>(count) - clock_cost);
}

lap::MemRef
LayerProbe::next(lap::TraceSource &inner)
{
    ++calls_;
    const std::uint64_t phase = calls_ % period_;
    const bool full = phase == 0;
    const bool light = phase == period_ / 2;
    if (!full && !light && !driverPending_ && !iterationPending_)
        return inner.next();
    const auto start = Clock::now();
    if (driverPending_) {
        driver_.add(secondsBetween(complete_, start));
        driverPending_ = false;
    }
    if (iterationPending_) {
        iteration_.add(secondsBetween(iterationStart_, start));
        iterationPending_ = false;
    }
    if (light) {
        // One whole iteration between two stamps and nothing else.
        iterationStart_ = start;
        iterationPending_ = true;
    }
    if (!full)
        return inner.next();
    const lap::MemRef ref = inner.next();
    const auto end = Clock::now();
    source_.add(secondsBetween(start, end));
    // An empty interval taken in place, under the run's own cache and
    // host state: the bias each stamped interval carries.
    nextEnd_ = Clock::now();
    clock_.add(secondsBetween(end, nextEnd_));
    armed_ = true;
    llcSeen_ = false;
    return ref;
}

void
LayerProbe::onLlcAccess(std::uint64_t, bool, lap::Cycle)
{
    if (armed_)
        llcSeen_ = true;
}

void
LayerProbe::onTransactionComplete(std::uint64_t, lap::Cycle)
{
    if (!armed_)
        return;
    complete_ = Clock::now();
    const double access = secondsBetween(nextEnd_, complete_);
    access_.add(access);
    (llcSeen_ ? llcPath_ : privateHit_).add(access);
    armed_ = false;
    driverPending_ = true;
}

void
SpanLog::add(std::uint64_t request, const std::string &name,
             const std::string &parent, Clock::time_point start,
             Clock::time_point end)
{
    spans_.push_back({request, name, parent,
                      secondsBetween(origin_, start),
                      secondsBetween(start, end)});
}

void
SpanLog::addSelf(std::uint64_t request, const std::string &name,
                 const std::string &parent, Clock::time_point start,
                 double self_s)
{
    spans_.push_back({request, name, parent,
                      secondsBetween(origin_, start), self_s});
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (const Span &s : spans_) {
        out << Row()
                   .num("request", s.request)
                   .str("name", s.name)
                   .str("parent", s.parent)
                   .num("start_s", s.startS)
                   .num("dur_s", s.durS)
                   .text()
            << '\n';
    }
    out.flush();
    return static_cast<bool>(out);
}

} // namespace perfbench
