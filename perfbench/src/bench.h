/**
 * @file
 * Shared pieces of the perfbench driver: options, timing helpers,
 * failure accounting and the result report.
 *
 * perfbench drives the same public entry points the `mtperf` commands
 * call (suite/co-run collection, dataset CSV I/O, M5' fit, crossval,
 * predict, an in-process server over the wire protocol) and times
 * them from outside. It adds no instrumentation to the library; the
 * traced run reads the spans and counters the library already emits.
 */

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Wall seconds since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank @p p quantile (p in [0, 1]) of @p values. */
double quantile(std::vector<double> values, double p);

/** Command-line options of one run. */
struct Options
{
    std::string workload;     //!< pipeline | train | serve
    std::uint64_t seed = 1;   //!< fold seed, replay order
    double seconds = 30.0;    //!< measured time; sets the round count
    bool trace = false;       //!< per-layer (traced) run
    std::string workDir;      //!< scratch files of this run
    std::size_t threads = 1;  //!< pool threads: min(nproc, 4)
    /** Harness-injected slowdown, for the benchmark's own tests: the
     * calls timed under key @c injectMetric (e.g. "train.fit") are
     * stretched by @c injectShare of their measured time. */
    std::string injectMetric;
    double injectShare = 0.0;
};

/**
 * Time @p fn in wall seconds. When @p metric is the injected key,
 * spin afterwards until the call has taken (1 + share) times as long,
 * which is how the tests fake a regression without editing src/.
 */
double timeCall(const Options &options, const std::string &metric,
                const std::function<void()> &fn);

/** Attempted, succeeded and failed operations of one phase. */
struct Tally
{
    std::string unit;                 //!< sections, folds, requests, rows
    std::uint64_t attempted = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;         //!< errors and wrong answers
    std::uint64_t refused = 0;        //!< RETRY replies (requests)
    std::uint64_t deadlineExpired = 0; //!< shed by the server deadline
};

/** Everything one run measured, checked and counted. */
class Report
{
  public:
    /** Record metric @p name (replaces an earlier value). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Record a correctness gate; a false @p ok fails the run. */
    bool check(bool ok, const std::string &what);

    /** Record an informational key (digests, counts, fingerprint). */
    void info(const std::string &key, const std::string &value);

    /** The tally of phase @p phase, created with @p unit on first use. */
    Tally &tally(const std::string &phase, const std::string &unit);

    bool correct() const { return failures_.empty(); }

    /** Sum of attempted operations over every phase. */
    std::uint64_t attempted() const;

    /** Sum of failed and refused operations over every phase. */
    std::uint64_t failed() const;

    /**
     * Print the human summary (fingerprint, digests, tallies with
     * their bases, metrics with units) followed by the full record as
     * one `record: {...}` line and, last, the result line run.py
     * parses.
     */
    void print(std::ostream &os) const;

  private:
    struct Value
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::pair<std::string, std::string>> info_;
    std::map<std::string, Tally> tallies_;
    std::vector<std::string> failures_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_H_
