#include "stages.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "data/io.h"
#include "ml/eval/cross_validation.h"
#include "multicore/corun_runner.h"
#include "perf/section_collector.h"
#include "serve/client.h"
#include "serve/server.h"
#include "uarch/core.h"
#include "uarch/event_counters.h"
#include "workload/spec_suite.h"

namespace perfbench {

using mtperf::Dataset;
using mtperf::M5Prime;
using mtperf::uarch::PerfMetric;

std::string
digestOf(std::string_view bytes)
{
    return mtperf::crc32Hex(mtperf::crc32(bytes));
}

namespace {

std::string
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return digestOf(bytes.str());
}

/** Column of the shared-L2 re-miss ratio in co-run datasets. */
constexpr std::size_t kL2ShM = mtperf::uarch::kNumPerfMetrics;

std::size_t
at(PerfMetric metric)
{
    return static_cast<std::size_t>(metric);
}

/** Sections the runner will produce for @p spec at @p scale. */
std::uint64_t
expectedSections(const mtperf::workload::WorkloadSpec &spec, double scale)
{
    std::uint64_t total = 0;
    for (const auto &phase : spec.phases)
        total += static_cast<std::uint64_t>(std::llround(
            static_cast<double>(phase.sections) * scale));
    return total;
}

/**
 * The structural counter rules, on one section's per-instruction
 * ratios (orderings of counts survive division by the same
 * instruction count). Returns the first broken rule, or "".
 */
std::string
brokenRule(const Dataset &ds, std::size_t r, double minCpi)
{
    const auto v = ds.row(r);
    if (v[at(PerfMetric::L1DSpLd)] > v[at(PerfMetric::InstLd)])
        return "L1DSpLd <= InstLd";
    if (v[at(PerfMetric::L1DSpSt)] > v[at(PerfMetric::InstSt)])
        return "L1DSpSt <= InstSt";
    if (v[at(PerfMetric::LdBlSta)] > v[at(PerfMetric::InstLd)])
        return "LdBlSta <= InstLd";
    if (v[at(PerfMetric::DtlbLdReM)] > v[at(PerfMetric::DtlbLdM)] ||
        v[at(PerfMetric::DtlbLdM)] > v[at(PerfMetric::Dtlb)])
        return "DtlbLdReM <= DtlbLdM <= Dtlb";
    const double mix = v[at(PerfMetric::InstLd)] +
                       v[at(PerfMetric::InstSt)] +
                       v[at(PerfMetric::BrPred)] +
                       v[at(PerfMetric::BrMisPr)] +
                       v[at(PerfMetric::InstOther)];
    if (std::fabs(mix - 1.0) > 1e-9)
        return "InstLd+InstSt+BrPred+BrMisPr+InstOther = 1";
    if (ds.target(r) < minCpi)
        return "CPI >= 1/width";
    // A shared miss is a demand L2 miss of any kind (code, load,
    // split-load second half, store), while L2M counts retired loads
    // only; so shared misses are bounded by the demand L2 accesses
    // the counters see, not by L2M.
    if (ds.hasCorun() &&
        v[kL2ShM] > v[at(PerfMetric::L1IM)] + v[at(PerfMetric::L1DM)] +
                        v[at(PerfMetric::L1DSpLd)] +
                        v[at(PerfMetric::InstSt)] + 1e-12)
        return "L2ShM <= L1IM + L1DM + L1DSpLd + InstSt";
    return {};
}

/** Tally the sections of @p ds under @p phase, gating every rule. */
void
checkSections(const Dataset &ds, std::uint64_t expected, Report &report,
              const std::string &phase)
{
    const double minCpi =
        1.0 / mtperf::uarch::CoreConfig::core2Like().width;
    Tally &t = report.tally(phase, "sections");
    t.attempted += expected;
    std::uint64_t broken = 0;
    std::string first;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const std::string rule = brokenRule(ds, r, minCpi);
        if (rule.empty())
            continue;
        if (broken++ == 0)
            first = rule + " (" + ds.tag(r) + ")";
    }
    const std::uint64_t good = ds.size() - broken;
    t.succeeded += std::min(good, expected);
    t.failed += expected - std::min(good, expected);
    report.check(ds.size() == expected,
                 phase + ": " + std::to_string(ds.size()) +
                     " sections returned, " + std::to_string(expected) +
                     " expected");
    report.check(broken == 0, phase + ": " + std::to_string(broken) +
                                  " sections break a counter rule, first " +
                                  first);
    if (ds.hasCorun()) {
        // The loads-only form, L2ShM <= L2M, is not an invariant of
        // these counter definitions; how often it fails is reported.
        std::uint64_t above = 0;
        for (std::size_t r = 0; r < ds.size(); ++r)
            above += ds.row(r)[kL2ShM] > ds.row(r)[at(PerfMetric::L2M)];
        report.info(phase + ".sections_l2shm_above_l2m",
                    std::to_string(above) + " of " +
                        std::to_string(ds.size()));
    }
}

} // namespace

Simulated
simulateSuite(const std::vector<mtperf::workload::WorkloadSpec> &suite,
              double scale, std::uint64_t instructionsPerSection,
              const Options &options, Report &report,
              const std::string &phase)
{
    mtperf::workload::RunnerOptions run;
    run.seed = kSimSeed;
    run.sectionScale = scale;
    run.instructionsPerSection = instructionsPerSection;
    Simulated out;
    out.seconds = timeCall(options, phase, [&] {
        out.ds = mtperf::perf::collectSuiteDataset(suite, run);
    });
    out.instructions = out.ds.size() * instructionsPerSection;
    std::uint64_t expected = 0;
    for (const auto &spec : suite)
        expected += expectedSections(spec, scale);
    checkSections(out.ds, expected, report, phase);
    // A solo run owns its hierarchy: its dataset has no contention
    // columns at all (the multicore schema is reserved for co-runs).
    report.check(out.ds.schema() == mtperf::uarch::perfSchema(),
                 phase + ": solo sections carry contention columns");
    return out;
}

Simulated
simulateCorun(const std::vector<std::string> &lanes, double scale,
              std::uint64_t instructionsPerSection, const Options &options,
              Report &report, const std::string &phase)
{
    mtperf::multicore::CorunScenario scenario;
    std::uint64_t expected = 0;
    for (const std::string &name : lanes) {
        scenario.lanes.push_back(mtperf::workload::suiteWorkload(name));
        expected += expectedSections(scenario.lanes.back(), scale);
    }
    mtperf::workload::RunnerOptions run;
    run.seed = kSimSeed;
    run.sectionScale = scale;
    run.instructionsPerSection = instructionsPerSection;
    Simulated out;
    out.seconds = timeCall(options, phase, [&] {
        out.ds = mtperf::perf::collectCorunDataset({scenario}, run);
    });
    out.instructions = out.ds.size() * instructionsPerSection;
    checkSections(out.ds, expected, report, phase);

    // Contention is structurally zero with one core and must be
    // attributed to every core when several share the L2.
    std::vector<double> contention(lanes.size(), 0.0);
    for (std::size_t r = 0; r < out.ds.size(); ++r) {
        const auto v = out.ds.row(r);
        double sum = 0.0;
        for (std::size_t c = 0; c < mtperf::uarch::kNumContentionMetrics; ++c)
            sum += v[mtperf::uarch::kNumPerfMetrics + c];
        const std::uint32_t core = out.ds.corun(r).core;
        if (core < contention.size())
            contention[core] += sum;
    }
    for (std::size_t core = 0; core < lanes.size(); ++core) {
        const bool ok = lanes.size() == 1 ? contention[core] == 0.0
                                          : contention[core] > 0.0;
        report.check(ok, phase + ": core " + std::to_string(core) +
                             (lanes.size() == 1
                                  ? " has contention on a one-core run"
                                  : " has no contention attributed"));
    }
    return out;
}

CsvRoundTrip
csvRoundTrip(const Dataset &ds, const std::string &path,
             const Options &options, Report &report,
             const std::string &phase)
{
    CsvRoundTrip out;
    out.writeSeconds = timeCall(options, phase + ".write", [&] {
        mtperf::writeDatasetCsvFile(path, ds);
    });
    out.readSeconds = timeCall(options, phase + ".read", [&] {
        out.ds = mtperf::readDatasetCsvFile(path, "CPI");
    });
    out.digest = fileDigest(path);

    // The CSV keeps 12 significant digits: the read-back dataset must
    // match the simulated one to that precision, row for row.
    bool same = out.ds.size() == ds.size() &&
                out.ds.numAttributes() == ds.numAttributes();
    for (std::size_t r = 0; same && r < ds.size(); ++r) {
        for (std::size_t a = 0; same && a < ds.numAttributes(); ++a) {
            const double want = ds.value(r, a);
            same = std::fabs(out.ds.value(r, a) - want) <=
                   1e-11 * std::max(1.0, std::fabs(want));
        }
        same = same && std::fabs(out.ds.target(r) - ds.target(r)) <=
                           1e-11 * std::max(1.0, std::fabs(ds.target(r)));
    }
    Tally &t = report.tally(phase, "rows");
    t.attempted += ds.size();
    t.succeeded += same ? ds.size() : 0;
    t.failed += same ? 0 : ds.size();
    report.check(same, phase + ": CSV read-back differs from the "
                               "written dataset");
    return out;
}

mtperf::M5Options
cliTreeOptions(std::size_t rows)
{
    mtperf::M5Options options;
    options.minInstances = std::max<std::size_t>(4, rows / 22);
    return options;
}

Fitted
fitModel(const Dataset &ds, const Options &options,
         const std::string &metric)
{
    Fitted out{M5Prime(cliTreeOptions(ds.size())), {}, {}, 0.0};
    out.seconds = timeCall(options, metric, [&] { out.tree.fit(ds); });
    std::ostringstream text;
    out.tree.save(text);
    out.text = text.str();
    out.digest = digestOf(out.text);
    return out;
}

CrossValidated
crossValidateModel(const Dataset &ds, std::uint64_t foldSeed,
                   const Options &options, Report &report,
                   const std::string &phase)
{
    const M5Prime prototype(cliTreeOptions(ds.size()));
    mtperf::CrossValidationResult cv;
    CrossValidated out;
    out.seconds = timeCall(options, phase, [&] {
        cv = mtperf::crossValidate(prototype, ds, kFolds, foldSeed);
    });
    out.mae = cv.pooled.mae;
    std::uint64_t good = 0;
    for (const auto &fold : cv.perFold)
        good += std::isfinite(fold.mae) ? 1 : 0;
    Tally &t = report.tally(phase, "folds");
    t.attempted += kFolds;
    t.succeeded += good;
    t.failed += kFolds - good;
    report.check(good == kFolds && std::isfinite(out.mae),
                 phase + ": " + std::to_string(kFolds - good) +
                     " folds failed to fit");
    return out;
}

std::vector<double>
predictChecked(const M5Prime &tree, const Dataset &ds, Report &report,
               const std::string &phase, double *seconds)
{
    std::vector<double> batch;
    const auto start = Clock::now();
    batch = tree.predictAll(ds);
    if (seconds != nullptr)
        *seconds = secondsSince(start);
    std::uint64_t same = 0;
    for (std::size_t r = 0; r < ds.size(); ++r) {
        const double one = tree.predict(ds.row(r));
        same += std::memcmp(&one, &batch[r], sizeof(double)) == 0 ? 1 : 0;
    }
    Tally &t = report.tally(phase, "rows");
    t.attempted += ds.size();
    t.succeeded += same;
    t.failed += ds.size() - same;
    report.check(same == ds.size(),
                 phase + ": predictAll differs from per-row predict on " +
                     std::to_string(ds.size() - same) + " rows");
    return batch;
}

namespace {

/** Pipeline workload: the pinned `simulate --scale 0.25` suite. */
constexpr double kPipelineScale = 0.25;
constexpr std::uint64_t kPipelineInstructions = 10000;
/**
 * The set-up's suite slice: every spec, a few sections each. A
 * process's first suite simulation runs ~25% slower, and by a varying
 * amount, than later ones (heap and thread-pool warm-up); the slice
 * takes that cost into setup_s so the timed passes are all warm.
 */
constexpr double kWarmupScale = 0.02;
/** The co-run stage: `simulate --cores 2 --corun mcf_like,gcc_like`. */
const std::vector<std::string> kCorunLanes = {"mcf_like", "gcc_like"};
constexpr double kCorunScale = 0.5;
/** Train workload: every suite spec, short sections, ~10k rows. */
constexpr double kTrainScale = 1.0;
constexpr std::uint64_t kTrainInstructions = 2500;

/**
 * `predict --connect` against a server started on @p modelPath with
 * the `mtperf serve` defaults: 256-row chunks over one connection,
 * every reply bit-compared to @p offline.
 */
void
replayThroughServer(const std::string &modelPath, const Dataset &ds,
                    const std::vector<double> &offline, Report &report,
                    const std::string &phase)
{
    mtperf::serve::ServerOptions server_options;
    server_options.modelPath = modelPath;
    server_options.port = 0;
    mtperf::serve::Server server(server_options);
    server.start();
    const std::uint64_t rows_before = server.stats().rowsPredicted;
    Tally &t = report.tally(phase, "requests");
    std::uint64_t served_rows = 0;
    {
        mtperf::serve::Client client = mtperf::serve::Client::connect(
            "127.0.0.1:" + std::to_string(server.port()), 0);
        const std::size_t width = ds.numAttributes();
        const auto flat = ds.flatValues();
        for (std::size_t first = 0; first < ds.size(); first += kChunkRows) {
            const std::size_t count = std::min(kChunkRows, ds.size() - first);
            ++t.attempted;
            const auto response = client.predict(
                flat.subspan(first * width, count * width), width);
            bool same = response.predictions.size() == count;
            for (std::size_t i = 0; same && i < count; ++i)
                same = std::memcmp(&response.predictions[i],
                                   &offline[first + i],
                                   sizeof(double)) == 0;
            served_rows += response.predictions.size();
            if (same)
                ++t.succeeded;
            else
                ++t.failed;
        }
        client.close();
    }
    report.check(t.failed == 0,
                 phase + ": served predictions differ from offline");
    const std::uint64_t counted = server.stats().rowsPredicted - rows_before;
    report.check(counted == served_rows,
                 phase + ": server counted " + std::to_string(counted) +
                     " rows, client " + std::to_string(served_rows));
    server.requestStop();
    server.wait();
}

} // namespace

PipelineWorkload::PipelineWorkload(const Options &options, Report &report)
    : options_(options), report_(report)
{}

void
PipelineWorkload::setup()
{
    mtperf::workload::reloadSuiteRegistry();
    suite_ = mtperf::workload::specLikeSuite();
    simulateSuite(suite_, kWarmupScale, kPipelineInstructions, options_,
                  report_, "pipeline.warmup");
    // A one-core co-run of a slice of the co-run lane: warms the
    // simulator and checks contention is zero without a second core.
    simulateCorun({kCorunLanes.front()}, 0.1, kPipelineInstructions,
                  options_, report_, "pipeline.warmup");
}

PipelineSample
PipelineWorkload::iterate()
{
    PipelineSample s;
    s.total = timeCall(options_, "pipeline", [&] {
        Simulated sim = simulateSuite(suite_, kPipelineScale,
                                      kPipelineInstructions, options_,
                                      report_, "pipeline.simulate");
        s.simulate = sim.seconds;
        s.simInstructions = sim.instructions;

        CsvRoundTrip csv = csvRoundTrip(
            sim.ds, options_.workDir + "/pipeline_sections.csv", options_,
            report_, "pipeline.csv");
        s.csvWrite = csv.writeSeconds;
        s.csvRead = csv.readSeconds;
        s.csvDigest = csv.digest;
        s.rows = csv.ds.size();

        Fitted model = fitModel(csv.ds, options_, "pipeline.fit");
        const std::string model_path =
            options_.workDir + "/pipeline_model.m5";
        model.tree.saveFile(model_path);
        s.modelDigest = model.digest;

        s.cvMae = crossValidateModel(csv.ds, options_.seed, options_,
                                     report_, "pipeline.crossval")
                      .mae;
        const std::vector<double> offline = predictChecked(
            model.tree, csv.ds, report_, "pipeline.predict", nullptr);
        replayThroughServer(model_path, csv.ds, offline, report_,
                            "pipeline.replay");

        Simulated corun = simulateCorun(kCorunLanes, kCorunScale,
                                        kPipelineInstructions, options_,
                                        report_, "pipeline.corun");
        s.corun = corun.seconds;
        s.corunInstructions = corun.instructions;
        s.sections = std::move(sim.ds);
        s.corunRows = std::move(corun.ds);
    });
    return s;
}

TrainWorkload::TrainWorkload(const Options &options, Report &report)
    : options_(options), report_(report)
{}

void
TrainWorkload::setup()
{
    const std::string path = options_.workDir + "/train_sections.csv";
    std::string digest;
    if (options_.workload != "train" && std::filesystem::exists(path)) {
        // A run that does not time this set-up reuses the sections an
        // earlier process of the same run simulated and wrote.
        data_ = mtperf::readDatasetCsvFile(path, "CPI");
        digest = fileDigest(path);
    } else {
        Simulated sim = simulateSuite(mtperf::workload::specLikeSuite(),
                                      kTrainScale, kTrainInstructions,
                                      options_, report_, "train.simulate");
        CsvRoundTrip csv =
            csvRoundTrip(sim.ds, path, options_, report_, "train.csv");
        data_ = std::move(csv.ds);
        digest = csv.digest;
    }
    report_.info("train.csv_digest", digest);
    report_.info("train.sections", std::to_string(data_.size()));
}

TrainSample
TrainWorkload::round()
{
    TrainSample s;
    Fitted model = fitModel(data_, options_, "train.fit");
    s.fit = model.seconds;
    if (modelDigest_.empty()) {
        modelDigest_ = model.digest;
        report_.info("train.model_digest", modelDigest_);
        report_.info("train.leaves", std::to_string(model.tree.numLeaves()));
    }
    report_.check(model.digest == modelDigest_,
                  "train: model bytes differ between rounds");
    Tally &fits = report_.tally("train.fit", "fits");
    ++fits.attempted;
    ++(model.digest == modelDigest_ ? fits.succeeded : fits.failed);

    const CrossValidated cv = crossValidateModel(
        data_, options_.seed, options_, report_, "train.crossval");
    s.crossval = cv.seconds;
    s.cvMae = cv.mae;
    if (cvMae_ < 0.0)
        cvMae_ = cv.mae;
    report_.check(cv.mae == cvMae_,
                  "train: crossval MAE differs between rounds");

    predictChecked(model.tree, data_, report_, "train.predict", nullptr);
    return s;
}

} // namespace perfbench
