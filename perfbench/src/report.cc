#include "bench.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/json.h"
#include "common/strings.h"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(values.size()));
    return values[std::min(values.size() - 1, rank)];
}

double
timeCall(const Options &options, const std::string &metric,
         const std::function<void()> &fn)
{
    const auto start = Clock::now();
    fn();
    const double took = secondsSince(start);
    if (options.injectShare <= 0.0 || metric != options.injectMetric)
        return took;
    const double target = took * (1.0 + options.injectShare);
    while (secondsSince(start) < target) {
    }
    return secondsSince(start);
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = Value{value, unit};
}

bool
Report::check(bool ok, const std::string &what)
{
    if (!ok)
        failures_.push_back(what);
    return ok;
}

void
Report::info(const std::string &key, const std::string &value)
{
    for (auto &entry : info_) {
        if (entry.first == key) {
            entry.second = value;
            return;
        }
    }
    info_.emplace_back(key, value);
}

Tally &
Report::tally(const std::string &phase, const std::string &unit)
{
    Tally &t = tallies_[phase];
    if (t.unit.empty())
        t.unit = unit;
    return t;
}

std::uint64_t
Report::attempted() const
{
    std::uint64_t total = 0;
    for (const auto &[phase, t] : tallies_)
        total += t.attempted;
    return total;
}

std::uint64_t
Report::failed() const
{
    std::uint64_t total = 0;
    for (const auto &[phase, t] : tallies_)
        total += t.failed + t.refused;
    return total;
}

namespace {

std::string
quoted(const std::string &text)
{
    return "\"" + mtperf::jsonEscape(text) + "\"";
}

std::string
share(std::uint64_t part, std::uint64_t base)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(6)
       << (base == 0 ? 0.0
                     : static_cast<double>(part) /
                           static_cast<double>(base));
    return os.str();
}

} // namespace

void
Report::print(std::ostream &os) const
{
    for (const auto &[key, value] : info_)
        os << "info " << key << " = " << value << "\n";
    for (const auto &[phase, t] : tallies_) {
        os << "tally " << phase << ": attempted " << t.attempted << " "
           << t.unit << ", succeeded " << t.succeeded << ", failed "
           << t.failed << " (" << share(t.failed, t.attempted) << " of "
           << t.attempted << ")";
        if (t.unit == "requests")
            os << ", refused (RETRY) " << t.refused << " ("
               << share(t.refused, t.attempted) << " of " << t.attempted
               << "), deadline-expired " << t.deadlineExpired;
        os << "\n";
    }
    for (const std::string &failure : failures_)
        os << "FAILED " << failure << "\n";
    for (const auto &[name, v] : metrics_)
        os << "metric " << name << " = "
           << mtperf::json::jsonNumberText(v.value) << " " << v.unit
           << "\n";

    std::ostringstream metrics;
    metrics << "{";
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        metrics << (first ? "" : ", ") << quoted(name)
                << ": {\"value\": "
                << mtperf::json::jsonNumberText(v.value)
                << ", \"unit\": " << quoted(v.unit) << "}";
        first = false;
    }
    metrics << "}";

    os << "record: {\"info\": {";
    first = true;
    for (const auto &[key, value] : info_) {
        os << (first ? "" : ", ") << quoted(key) << ": " << quoted(value);
        first = false;
    }
    os << "}, \"tallies\": {";
    first = true;
    for (const auto &[phase, t] : tallies_) {
        os << (first ? "" : ", ") << quoted(phase) << ": {\"unit\": "
           << quoted(t.unit) << ", \"attempted\": " << t.attempted
           << ", \"succeeded\": " << t.succeeded
           << ", \"failed\": " << t.failed
           << ", \"refused\": " << t.refused
           << ", \"deadline_expired\": " << t.deadlineExpired << "}";
        first = false;
    }
    os << "}, \"failures\": [";
    first = true;
    for (const std::string &failure : failures_) {
        os << (first ? "" : ", ") << quoted(failure);
        first = false;
    }
    os << "], \"metrics\": " << metrics.str() << "}\n";

    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted()
       << ", \"failed\": " << failed()
       << ", \"metrics\": " << metrics.str() << "}" << std::endl;
}

} // namespace perfbench
