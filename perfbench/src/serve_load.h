/**
 * @file
 * The serving load of the traced run: an in-process serve::Server on
 * the `mtperf serve` defaults (1 I/O thread, 1 shard, batch-max 256)
 * driven over the wire protocol by one driver thread multiplexing 4
 * connections.
 */

#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "data/dataset.h"
#include "ml/tree/m5prime.h"
#include "serve/server.h"

namespace perfbench {

/** Client connections of every serve phase. */
inline constexpr std::size_t kConnections = 4;

/** One-row PREDICT frames each connection keeps in flight. */
inline constexpr std::size_t kSingleRowWindow = 16;

/**
 * Offered rate of the open-loop phase, in requests per second: about
 * half the lowest single-row closed-loop capacity measured for the
 * default server on a 4-vCPU host (~100k rows/s; the median is ~220k).
 * Fixed, so that a slower server shows as latency.
 */
inline constexpr double kOpenLoopRate = 50000.0;

/** What one load phase delivered. */
struct ServePhase
{
    std::uint64_t rows = 0;        //!< rows answered correctly
    double seconds = 0.0;          //!< first send to last reply
    std::vector<double> latencyUs; //!< per request
    std::vector<double> lagUs;     //!< open loop: send time - due time

    double rowsPerSecond() const { return seconds > 0 ? rows / seconds : 0; }
};

class ServeWorkload
{
  public:
    /** @p listen is the server's address (`mtperf serve --listen`). */
    ServeWorkload(const Options &options, Report &report, std::string listen);
    ~ServeWorkload();

    /** Simulate a slice of the suite, fit, save, start the server. */
    void setup();

    /**
     * Single-row closed loop: every connection keeps
     * kSingleRowWindow one-row frames in flight. Every @p traceEvery-th
     * request carries a trace id (0 = none).
     */
    ServePhase closedSingle(double seconds, std::size_t traceEvery = 0);

    /**
     * Single-row open loop at @p rate requests/s spread over the
     * connections; each request is timed from when it was due.
     */
    ServePhase openLoop(double seconds, double rate,
                        std::size_t traceEvery = 0);

    /** 256-row closed loop: one frame in flight per connection. */
    ServePhase closedBatch(double seconds, std::size_t traceEvery = 0);

    const mtperf::M5Prime &model() const { return *model_; }
    const mtperf::Dataset &rows() const { return data_; }
    mtperf::serve::Server &server() { return *server_; }

  private:
    struct Mode;
    ServePhase drive(const Mode &mode, double seconds);

    const Options &options_;
    Report &report_;
    std::string listen_;
    mtperf::Dataset data_;
    std::unique_ptr<mtperf::M5Prime> model_;
    std::vector<double> expected_;   //!< offline predict, per row
    std::vector<std::size_t> order_; //!< replay order (from the seed)
    std::unique_ptr<mtperf::serve::Server> server_;
    std::uint64_t nextOrdinal_ = 0;  //!< requests sent so far
};

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_H_
