/**
 * @file
 * The timed stages of the pipeline and train workloads, each a call
 * into one public entry point of the library plus the correctness
 * gates on what it returned.
 */

#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "data/dataset.h"
#include "ml/tree/m5prime.h"
#include "workload/phase.h"

namespace perfbench {

/** Master simulate seed of every workload: the pinned Table-I suite. */
inline constexpr std::uint64_t kSimSeed = 42;

/** Folds of every cross-validation (the `mtperf crossval` default). */
inline constexpr std::size_t kFolds = 10;

/** Rows per request of `predict --connect`. */
inline constexpr std::size_t kChunkRows = 256;

/** CRC32 of @p bytes as 8 hex digits. */
std::string digestOf(std::string_view bytes);

/** A simulated dataset and what it cost. */
struct Simulated
{
    mtperf::Dataset ds;
    double seconds = 0.0;
    std::uint64_t instructions = 0;
};

/**
 * perf::collectSuiteDataset over @p suite, then the structural
 * counter rules on every returned section. Sections are tallied
 * under @p phase.
 */
Simulated simulateSuite(const std::vector<mtperf::workload::WorkloadSpec> &suite,
                        double scale, std::uint64_t instructionsPerSection,
                        const Options &options, Report &report,
                        const std::string &phase);

/**
 * perf::collectCorunDataset of one scenario running @p lanes (one
 * suite workload per core), with the structural rules plus the
 * contention rules: zero on a one-lane run, attributed to every core
 * of a multi-lane one.
 */
Simulated simulateCorun(const std::vector<std::string> &lanes, double scale,
                        std::uint64_t instructionsPerSection,
                        const Options &options, Report &report,
                        const std::string &phase);

/** Dataset CSV written and read back, as `simulate` then `train` do. */
struct CsvRoundTrip
{
    mtperf::Dataset ds; //!< the dataset as read back
    std::string digest; //!< CRC32 of the written file
    double writeSeconds = 0.0;
    double readSeconds = 0.0;
};

CsvRoundTrip csvRoundTrip(const mtperf::Dataset &ds, const std::string &path,
                          const Options &options, Report &report,
                          const std::string &phase);

/** The tree options `mtperf train`/`crossval` use by default. */
mtperf::M5Options cliTreeOptions(std::size_t rows);

/** A fitted model, its saved bytes' digest and the fit time. */
struct Fitted
{
    mtperf::M5Prime tree;
    std::string text;   //!< saveFile() bytes
    std::string digest;
    double seconds = 0.0;
};

/** M5Prime::fit with the CLI defaults, timed under key @p metric. */
Fitted fitModel(const mtperf::Dataset &ds, const Options &options,
                const std::string &metric);

/** Pooled MAE and wall time of one k-fold crossValidate. */
struct CrossValidated
{
    double mae = 0.0;
    double seconds = 0.0;
};

CrossValidated crossValidateModel(const mtperf::Dataset &ds,
                                  std::uint64_t foldSeed,
                                  const Options &options, Report &report,
                                  const std::string &phase);

/**
 * predictAll over @p ds, gated bit-identical to per-row predict().
 * Returns the predictions; @p seconds receives the predictAll time.
 */
std::vector<double> predictChecked(const mtperf::M5Prime &tree,
                                   const mtperf::Dataset &ds, Report &report,
                                   const std::string &phase,
                                   double *seconds);

/** One pass of the pipeline workload, stage by stage. */
struct PipelineSample
{
    double total = 0.0;
    double simulate = 0.0;
    double csvWrite = 0.0;
    double csvRead = 0.0;
    double corun = 0.0;
    std::uint64_t simInstructions = 0;
    std::uint64_t corunInstructions = 0;
    std::size_t rows = 0;
    double cvMae = 0.0;
    std::string csvDigest;
    std::string modelDigest;
    mtperf::Dataset sections;    //!< the simulated suite
    mtperf::Dataset corunRows;   //!< the co-run sections
};

/** The pipeline workload: the pinned suite through every stage. */
class PipelineWorkload
{
  public:
    PipelineWorkload(const Options &options, Report &report);

    /**
     * Resolve the suite, then warm up on a 2% slice of it and on a
     * one-lane co-run.
     */
    void setup();

    /** simulate, CSV, train, crossval, predict, serve replay, co-run. */
    PipelineSample iterate();

  private:
    const Options &options_;
    Report &report_;
    std::vector<mtperf::workload::WorkloadSpec> suite_;
};

/** One round of the train workload. */
struct TrainSample
{
    double fit = 0.0;
    double crossval = 0.0;
    double cvMae = 0.0;
};

/** The train workload: ~10k real sections, timed fit/crossval rounds. */
class TrainWorkload
{
  public:
    TrainWorkload(const Options &options, Report &report);

    /**
     * Simulate and CSV-round-trip the training sections, or read the
     * CSV back when another workload is timed and it already exists.
     */
    void setup();

    TrainSample round();

    const mtperf::Dataset &data() const { return data_; }

  private:
    const Options &options_;
    Report &report_;
    mtperf::Dataset data_;
    std::string modelDigest_;
    double cvMae_ = -1.0;
};

} // namespace perfbench

#endif // PERFBENCH_STAGES_H_
