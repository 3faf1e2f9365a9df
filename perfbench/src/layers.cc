#include "layers.h"

#include <algorithm>
#include <numeric>

#include "common/json.h"
#include "math/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "uarch/core.h"
#include "uarch/event_counters.h"
#include "workload/spec_suite.h"
#include "workload/stream_gen.h"

namespace perfbench {

using mtperf::Dataset;
using mtperf::uarch::PerfMetric;
namespace obs = mtperf::obs;

namespace {

/** Instructions per suite workload in the generator and core probes. */
constexpr std::size_t kProbeInstructions = 100000;

/** Frames encoded or decoded by the wire-protocol probe. */
constexpr std::size_t kProbeFrames = 200000;

/** Serve phases of the layer pass. */
constexpr double kServeLayerSeconds = 2.0;

/** One traced request in this many carries a trace id. */
constexpr std::size_t kTraceEvery = 16;

/** One complete ("X") span of a trace. */
struct Span
{
    std::string name; //!< first word of the span name ("sim.workload")
    std::int64_t start = 0;
    std::int64_t dur = 0;
    std::uint64_t tid = 0;
};

/** Stop the trace session and return its complete spans. */
std::vector<Span>
collectSpans()
{
    obs::stopTrace();
    const mtperf::json::JsonValue doc =
        mtperf::json::parseJson(obs::traceToJson(), "trace");
    std::vector<Span> spans;
    for (const auto &event : doc.find("traceEvents")->array()) {
        const auto *ph = event.find("ph");
        if (ph == nullptr || ph->string() != "X")
            continue;
        const std::string &name = event.find("name")->string();
        spans.push_back(Span{name.substr(0, name.find(' ')),
                             static_cast<std::int64_t>(
                                 event.find("ts")->number()),
                             static_cast<std::int64_t>(
                                 event.find("dur")->number()),
                             event.find("tid")->unsignedIntegral()});
    }
    return spans;
}

/** Durations (us) of the spans named @p name. */
std::vector<double>
durations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans)
        if (s.name == name)
            out.push_back(static_cast<double>(s.dur));
    return out;
}

/**
 * Total self time (us) of the spans named @p name: each span's
 * duration minus the union of the other spans nested inside it on
 * the same thread.
 */
double
selfMicros(const std::vector<Span> &spans, const std::string &name)
{
    double total = 0.0;
    for (const Span &outer : spans) {
        if (outer.name != name)
            continue;
        const std::int64_t end = outer.start + outer.dur;
        std::vector<std::pair<std::int64_t, std::int64_t>> inner;
        for (const Span &s : spans) {
            if (&s == &outer || s.tid != outer.tid || s.start < outer.start ||
                s.start + s.dur > end || s.dur >= outer.dur)
                continue;
            inner.emplace_back(s.start, s.start + s.dur);
        }
        std::sort(inner.begin(), inner.end());
        std::int64_t covered = 0;
        std::int64_t reach = outer.start;
        for (const auto &[lo, hi] : inner) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from)
                covered += hi - from;
            reach = std::max(reach, hi);
        }
        total += static_cast<double>(outer.dur - covered);
    }
    return total;
}

double
sum(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

/** Mean of column @p col of @p ds. */
double
columnMean(const Dataset &ds, std::size_t col)
{
    double total = 0.0;
    for (std::size_t r = 0; r < ds.size(); ++r)
        total += ds.row(r)[col];
    return ds.empty() ? 0.0 : total / static_cast<double>(ds.size());
}

double
counterDelta(const std::string &name, std::uint64_t before)
{
    return static_cast<double>(obs::counter(name).value() - before);
}

/** Per-instruction host cost of StreamGenerator::next alone. */
double
generatorNsPerInst()
{
    std::uint64_t sink = 0;
    double seconds = 0.0;
    std::size_t n = 0;
    for (const auto &spec : mtperf::workload::specLikeSuite()) {
        mtperf::workload::StreamGenerator gen(spec.phases.front().params,
                                              kProbeInstructions);
        const auto start = Clock::now();
        for (std::size_t i = 0; i < kProbeInstructions; ++i)
            sink += gen.next().addr;
        seconds += secondsSince(start);
        n += kProbeInstructions;
    }
    return sink == 1 ? 0.0 : 1e9 * seconds / static_cast<double>(n);
}

/** Per-instruction host cost of Core::execute over pre-generated ops. */
double
coreNsPerInst()
{
    double seconds = 0.0;
    std::size_t n = 0;
    std::vector<mtperf::uarch::MicroOp> ops(kProbeInstructions);
    for (const auto &spec : mtperf::workload::specLikeSuite()) {
        mtperf::workload::StreamGenerator gen(spec.phases.front().params,
                                              kProbeInstructions);
        for (auto &op : ops)
            op = gen.next();
        mtperf::uarch::Core core;
        const auto start = Clock::now();
        for (const auto &op : ops)
            core.execute(op);
        seconds += secondsSince(start);
        n += ops.size();
    }
    return 1e9 * seconds / static_cast<double>(n);
}

/** Server-side cost of one-row PREDICT frames: decode and encode. */
void
frameCosts(const Dataset &rows, double prediction, Report &report)
{
    mtperf::serve::PredictRequest request;
    request.rows = 1;
    request.cols = static_cast<std::uint32_t>(rows.numAttributes());
    const auto row = rows.row(0);
    request.values.assign(row.begin(), row.end());
    const std::string wire = mtperf::serve::encodeFrame(
        {mtperf::serve::kMsgPredict, 1,
         mtperf::serve::encodePredictRequest(request)});

    std::size_t checked = 0;
    auto start = Clock::now();
    for (std::size_t i = 0; i < kProbeFrames; ++i) {
        const mtperf::serve::Frame frame = mtperf::serve::decodeFrame(wire);
        checked += mtperf::serve::decodePredictRequest(frame.payload).rows;
    }
    report.metric("serve.frame_decode_ns",
                  1e9 * secondsSince(start) / kProbeFrames, "ns");

    mtperf::serve::PredictResponse response;
    response.predictions = {prediction};
    std::size_t bytes = 0;
    start = Clock::now();
    for (std::size_t i = 0; i < kProbeFrames; ++i) {
        bytes += mtperf::serve::encodeFrame(
                     {static_cast<mtperf::serve::MsgType>(
                          mtperf::serve::kMsgPredict |
                          mtperf::serve::kMsgReplyBit),
                      1, mtperf::serve::encodePredictResponse(response)})
                     .size();
    }
    report.metric("serve.frame_encode_ns",
                  1e9 * secondsSince(start) / kProbeFrames, "ns");
    report.check(checked == kProbeFrames && bytes > 0,
                 "layers: frame probe decoded the wrong row count");
}

void
pipelineLayers(const Options &options, Report &report,
               PipelineWorkload &pipeline)
{
    const PipelineSample untraced = pipeline.iterate();
    report.metric("trace.pipeline_s_untraced", untraced.total, "s");

    const std::uint64_t lookups = obs::counter("decode.cache_lookups").value();
    const std::uint64_t hits = obs::counter("decode.cache_hits").value();
    obs::startTrace();
    const PipelineSample s = pipeline.iterate();
    const std::vector<Span> spans = collectSpans();
    report.metric("trace.pipeline_s", s.total, "s");
    report.check(s.csvDigest == untraced.csvDigest &&
                     s.modelDigest == untraced.modelDigest,
                 "layers: tracing changed the pipeline's digests");
    report.info("pipeline.csv_digest", s.csvDigest);
    report.info("pipeline.model_digest", s.modelDigest);

    const std::vector<double> workloads = durations(spans, "sim.workload");
    report.metric("workload.runner.parallel_eff",
                  sum(workloads) / 1e6 / (options.threads * s.simulate),
                  "share");
    report.metric("workload.runner.slowest_s",
                  workloads.empty() ? 0.0
                                    : *std::max_element(workloads.begin(),
                                                        workloads.end()) /
                                          1e6,
                  "s");

    const double looked = counterDelta("decode.cache_lookups", lookups);
    report.metric("uarch.decode_hit_rate",
                  looked > 0 ? counterDelta("decode.cache_hits", hits) / looked
                             : 0.0,
                  "share");
    const Dataset &ds = s.sections;
    auto at = [](PerfMetric m) { return static_cast<std::size_t>(m); };
    report.metric("uarch.sim_cpi",
                  mtperf::mean(ds.targets()), "CPI");
    report.metric("uarch.l1d_mpki", 1000 * columnMean(ds, at(PerfMetric::L1DM)),
                  "1/kinst");
    report.metric("uarch.l2_mpki", 1000 * columnMean(ds, at(PerfMetric::L2M)),
                  "1/kinst");
    report.metric("uarch.dtlb_mpki", 1000 * columnMean(ds, at(PerfMetric::Dtlb)),
                  "1/kinst");
    report.metric("uarch.br_mpki",
                  1000 * columnMean(ds, at(PerfMetric::BrMisPr)), "1/kinst");

    report.metric("multicore.ns_per_inst",
                  1e9 * s.corun / static_cast<double>(s.corunInstructions),
                  "ns");
    double contention = 0.0;
    for (std::size_t c = 0; c < mtperf::uarch::kNumContentionMetrics; ++c)
        contention +=
            columnMean(s.corunRows, mtperf::uarch::kNumPerfMetrics + c);
    report.metric("multicore.contention_per_kinst", 1000 * contention,
                  "1/kinst");

    report.metric("data.csv_write_s", s.csvWrite, "s");
    report.metric("data.csv_read_s", s.csvRead, "s");
}

void
trainLayers(const Options &options, Report &report, TrainWorkload &train)
{
    report.metric("trace.fit_s_untraced", train.round().fit, "s");

    const std::uint64_t nodes = obs::counter("tree.nodes").value();
    const std::uint64_t fits = obs::counter("tree.model_fits").value();
    const std::uint64_t elided = obs::counter("tree.sort_elided").value();
    obs::startTrace();
    const Fitted fitted = fitModel(train.data(), options, "train.fit");
    std::vector<Span> spans = collectSpans();
    report.metric("trace.fit_s", fitted.seconds, "s");
    for (const char *stage : {"grow", "build_models", "prune", "smooth"})
        report.metric(std::string("ml.tree.") + stage + "_s",
                      selfMicros(spans, std::string("tree.") + stage) / 1e6,
                      "s");
    report.metric("ml.tree.nodes", counterDelta("tree.nodes", nodes), "count");
    report.metric("ml.tree.model_fits", counterDelta("tree.model_fits", fits),
                  "count");
    report.metric("ml.tree.sort_elided",
                  counterDelta("tree.sort_elided", elided), "count");

    obs::startTrace();
    const CrossValidated cv = crossValidateModel(
        train.data(), options.seed, options, report, "train.crossval");
    spans = collectSpans();
    const std::vector<double> folds = durations(spans, "cv.fold");
    report.metric("ml.cv.fold_s_max",
                  folds.empty() ? 0.0
                                : *std::max_element(folds.begin(),
                                                    folds.end()) / 1e6,
                  "s");
    report.metric("ml.cv.parallel_eff",
                  sum(folds) / 1e6 / (options.threads * cv.seconds), "share");

    std::vector<double> perRow;
    for (int i = 0; i < 5; ++i) {
        double seconds = 0.0;
        predictChecked(fitted.tree, train.data(), report, "train.predict",
                       &seconds);
        perRow.push_back(1e9 * seconds /
                         static_cast<double>(train.data().size()));
    }
    report.metric("ml.predict_ns_per_row", median(perRow), "ns");
}

void
serveLayers(const Options &options, Report &report, ServeWorkload &serve)
{
    const std::uint64_t batches = obs::counter("serve.batches").value();
    const std::uint64_t batchRows = obs::counter("serve.batch_rows").value();
    const obs::HistogramSnapshot service =
        obs::histogram("serve.predict_micros").snapshot();
    const ServePhase untraced = serve.closedSingle(kServeLayerSeconds);
    report.metric("trace.serve_rows_per_s_untraced", untraced.rowsPerSecond(),
                  "rows/s");
    const double batched = counterDelta("serve.batches", batches);
    report.metric("serve.rows_per_batch",
                  batched > 0 ? counterDelta("serve.batch_rows", batchRows) /
                                    batched
                              : 0.0,
                  "rows");
    obs::HistogramSnapshot serviceDelta =
        obs::histogram("serve.predict_micros").snapshot();
    serviceDelta.subtract(service);
    report.metric("serve.service_us_p99", serviceDelta.percentile(0.99), "us");

    obs::startTrace();
    const ServePhase traced = serve.closedSingle(kServeLayerSeconds,
                                                 kTraceEvery);
    const std::vector<Span> spans = collectSpans();
    report.metric("trace.serve_rows_per_s", traced.rowsPerSecond(), "rows/s");
    const std::vector<double> waits = durations(spans, "serve.queue_wait");
    report.metric("serve.queue_wait_us_p50", quantile(waits, 0.50), "us");
    report.metric("serve.queue_wait_us_p99", quantile(waits, 0.99), "us");
    report.metric("serve.reply_us_p50",
                  quantile(durations(spans, "serve.reply"), 0.50), "us");
    report.info("serve.traced_requests", std::to_string(waits.size()));

    const ServePhase open = serve.openLoop(kServeLayerSeconds, kOpenLoopRate);
    report.metric("loadgen.lag_us_p99", quantile(open.lagUs, 0.99), "us");
    report.metric("serve.open_loop_p50_us", quantile(open.latencyUs, 0.50),
                  "us");
    report.metric("serve.open_loop_p99_us", quantile(open.latencyUs, 0.99),
                  "us");
    report.info("serve.open_loop_samples",
                std::to_string(open.latencyUs.size()));
    report.metric("serve.batch_rows_per_s",
                  serve.closedBatch(kServeLayerSeconds).rowsPerSecond(),
                  "rows/s");
    // Batch predict time of the 256-row phase: the server emits
    // serve.predict spans only for traced requests, so trace them all.
    obs::startTrace();
    serve.closedBatch(kServeLayerSeconds, 1);
    report.metric("serve.batch_predict_us_p50",
                  quantile(durations(collectSpans(), "serve.predict"), 0.50),
                  "us");

    // The same server over TCP loopback, the `mtperf serve` default
    // listener. Accepted TCP sockets do not set TCP_NODELAY, so
    // pipelined replies can wait on Nagle's algorithm; these two
    // figures keep that visible (the end-to-end phases use a Unix
    // socket, where it does not apply).
    ServeWorkload tcp(options, report, "127.0.0.1");
    tcp.setup();
    report.metric("serve.tcp_rows_per_s",
                  tcp.closedSingle(kServeLayerSeconds).rowsPerSecond(),
                  "rows/s");
    report.metric(
        "serve.tcp_p99_us",
        quantile(tcp.openLoop(kServeLayerSeconds, kOpenLoopRate).latencyUs,
                 0.99),
        "us");

    const mtperf::serve::StatsSnapshot stats = serve.server().stats();
    report.metric("serve.queue_rows_max",
                  static_cast<double>(obs::gauge("serve.queue_rows").maxValue()),
                  "rows");
    report.metric("serve.retries", static_cast<double>(stats.retries),
                  "count");
    report.metric("serve.deadline_expired",
                  static_cast<double>(stats.deadlineExpired), "count");
}

} // namespace

void
measureLayers(const Options &options, Report &report,
              PipelineWorkload &pipeline, TrainWorkload &train,
              ServeWorkload &serve)
{
    report.metric("workload.gen_ns_per_inst", generatorNsPerInst(), "ns");
    report.metric("uarch.core_ns_per_inst", coreNsPerInst(), "ns");
    frameCosts(serve.rows(), serve.model().predict(serve.rows().row(0)),
               report);

    const obs::HistogramSnapshot tasks =
        obs::histogram("pool.task_micros").snapshot();
    pipelineLayers(options, report, pipeline);
    trainLayers(options, report, train);
    obs::HistogramSnapshot taskDelta =
        obs::histogram("pool.task_micros").snapshot();
    taskDelta.subtract(tasks);
    report.metric("common.pool.task_us_p50", taskDelta.percentile(0.5), "us");
    report.metric("common.pool.queue_depth_max",
                  static_cast<double>(
                      obs::gauge("pool.queue_depth").maxValue()),
                  "count");

    serveLayers(options, report, serve);
}

} // namespace perfbench
