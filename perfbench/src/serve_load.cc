#include "serve_load.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "common/socket.h"
#include "serve/protocol.h"
#include "stages.h"
#include "workload/spec_suite.h"

namespace perfbench {

using mtperf::Dataset;
namespace serve = mtperf::serve;
namespace net = mtperf::net;

namespace {

/** The serve workload's model data: a slice of the pinned suite. */
constexpr double kServeScale = 0.05;
constexpr std::uint64_t kServeInstructions = 10000;

/** Give up on a phase whose replies stop arriving. */
constexpr double kDrainLimitSeconds = 30.0;

/**
 * Restricts the calling thread to the first CPU it may use (the
 * driver) or to all the others (the server's threads, which inherit
 * the mask when start() creates them), and restores the mask when
 * destroyed. A driver spinning on the open-loop schedule would
 * otherwise share a CPU with the server threads it wakes whenever the
 * scheduler places them together, and they would wait out its time
 * slices: a property of the harness, not of the server.
 */
class CpuSide
{
  public:
    enum Side { Driver, Server };

    explicit CpuSide(Side side)
    {
        pinned_ = pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                         &saved_) == 0 &&
                  CPU_COUNT(&saved_) >= 2;
        if (!pinned_)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        bool first = true;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &saved_))
                continue;
            if (first == (side == Driver))
                CPU_SET(cpu, &set);
            first = false;
        }
        pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    }

    ~CpuSide()
    {
        if (pinned_)
            pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }

    CpuSide(const CpuSide &) = delete;
    CpuSide &operator=(const CpuSide &) = delete;

  private:
    cpu_set_t saved_;
    bool pinned_ = false;
};

struct Pending
{
    std::size_t cursor = 0; //!< position in the replay order
    std::size_t count = 0;  //!< rows in the frame
    Clock::time_point due;  //!< latency is measured from here
};

struct Conn
{
    net::Socket sock;
    serve::FrameAssembler assembler;
    std::string out;
    std::size_t outOffset = 0;
    bool wantWrite = false;
    std::unordered_map<std::uint32_t, Pending> inflight;
    std::uint32_t nextId = 1;
};

} // namespace

/** How a phase offers load. */
struct ServeWorkload::Mode
{
    std::string phase;
    std::size_t rowsPerFrame = 1;
    std::size_t window = 0;  //!< closed loop: frames in flight per conn
    double rate = 0.0;       //!< open loop: requests per second
    std::size_t traceEvery = 0;
};

ServeWorkload::ServeWorkload(const Options &options, Report &report,
                             std::string listen)
    : options_(options), report_(report), listen_(std::move(listen))
{}

ServeWorkload::~ServeWorkload()
{
    if (server_) {
        server_->requestStop();
        server_->wait();
    }
}

void
ServeWorkload::setup()
{
    Simulated sim = simulateSuite(mtperf::workload::specLikeSuite(),
                                  kServeScale, kServeInstructions, options_,
                                  report_, "serve.simulate");
    data_ = std::move(sim.ds);
    Fitted fitted = fitModel(data_, options_, "serve.fit");
    report_.info("serve.model_digest", fitted.digest);
    const std::string path = options_.workDir + "/serve_model.m5";
    fitted.tree.saveFile(path);
    model_ = std::make_unique<mtperf::M5Prime>(std::move(fitted.tree));
    expected_ = predictChecked(*model_, data_, report_, "serve.offline",
                               nullptr);

    order_.resize(data_.size());
    std::iota(order_.begin(), order_.end(), 0);
    mtperf::Rng rng(options_.seed);
    rng.shuffle(order_);

    serve::ServerOptions server_options; // the `mtperf serve` defaults
    server_options.modelPath = path;
    server_options.listen = listen_;
    server_options.port = 0;
    server_ = std::make_unique<serve::Server>(server_options);
    const CpuSide side(CpuSide::Server);
    server_->start();
}

ServePhase
ServeWorkload::closedSingle(double seconds, std::size_t traceEvery)
{
    Mode mode{"serve.closed_single", 1, kSingleRowWindow, 0.0, traceEvery};
    return drive(mode, seconds);
}

ServePhase
ServeWorkload::openLoop(double seconds, double rate, std::size_t traceEvery)
{
    Mode mode{"serve.open_loop", 1, 0, rate, traceEvery};
    return drive(mode, seconds);
}

ServePhase
ServeWorkload::closedBatch(double seconds, std::size_t traceEvery)
{
    Mode mode{"serve.closed_batch", kChunkRows, 1, 0.0, traceEvery};
    return drive(mode, seconds);
}

ServePhase
ServeWorkload::drive(const Mode &mode, double seconds)
{
    const std::size_t width = data_.numAttributes();
    const std::size_t n = order_.size();
    const serve::StatsSnapshot before = server_->stats();
    Tally &tally = report_.tally(mode.phase, "requests");
    const CpuSide side(CpuSide::Driver);
    ServePhase result;
    std::uint64_t wrong = 0;

    const net::Endpoint endpoint = net::parseEndpoint(
        listen_.rfind("unix:", 0) == 0
            ? listen_
            : "127.0.0.1:" + std::to_string(server_->port()),
        0);
    net::Poller poller;
    std::vector<Conn> conns(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
        conns[c].sock = net::connectTo(endpoint, 10000);
        net::setNonBlocking(conns[c].sock.fd());
        poller.add(conns[c].sock.fd(), c);
    }

    const auto start = Clock::now();
    std::size_t cursor = 0; // next position in the replay order
    std::vector<double> values;
    auto send = [&](Conn &conn, const Pending &p) {
        serve::PredictRequest request;
        request.rows = static_cast<std::uint32_t>(p.count);
        request.cols = static_cast<std::uint32_t>(width);
        values.clear();
        for (std::size_t i = 0; i < p.count; ++i) {
            const auto row = data_.row(order_[(p.cursor + i) % n]);
            values.insert(values.end(), row.begin(), row.end());
        }
        request.values = values;
        const std::uint64_t ordinal = nextOrdinal_++;
        if (mode.traceEvery != 0 && ordinal % mode.traceEvery == 0)
            request.traceId = ordinal + 1;
        serve::Frame frame;
        frame.type = serve::kMsgPredict;
        frame.id = conn.nextId++;
        frame.payload = serve::encodePredictRequest(request);
        conn.out += serve::encodeFrame(frame);
        conn.inflight.emplace(frame.id, p);
        ++tally.attempted;
    };
    auto flush = [&](std::size_t c) {
        Conn &conn = conns[c];
        while (conn.outOffset < conn.out.size()) {
            const std::size_t wrote =
                net::writeSome(conn.sock.fd(), conn.out.data() + conn.outOffset,
                               conn.out.size() - conn.outOffset);
            if (wrote == 0) {
                if (!conn.wantWrite) {
                    conn.wantWrite = true;
                    poller.modify(conn.sock.fd(), c, true);
                }
                return;
            }
            conn.outOffset += wrote;
        }
        conn.out.clear();
        conn.outOffset = 0;
        if (conn.wantWrite) {
            conn.wantWrite = false;
            poller.modify(conn.sock.fd(), c, false);
        }
    };
    auto handle = [&](Conn &conn, const serve::Frame &reply) {
        const auto it = conn.inflight.find(reply.id);
        if (it == conn.inflight.end()) {
            ++tally.failed;
            return;
        }
        const Pending p = it->second;
        conn.inflight.erase(it);
        if (reply.type == serve::kMsgRetry) {
            ++tally.refused;
            send(conn, p); // resubmit; the latency clock keeps running
            return;
        }
        bool ok = reply.type == (serve::kMsgPredict | serve::kMsgReplyBit);
        if (ok) {
            const serve::PredictResponse response =
                serve::decodePredictResponse(reply.payload);
            ok = response.predictions.size() == p.count;
            for (std::size_t i = 0; ok && i < p.count; ++i)
                ok = std::memcmp(&response.predictions[i],
                                 &expected_[order_[(p.cursor + i) % n]],
                                 sizeof(double)) == 0;
            if (!ok)
                ++wrong;
        }
        if (!ok) {
            ++tally.failed;
            return;
        }
        ++tally.succeeded;
        result.rows += p.count;
        result.latencyUs.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - p.due)
                .count());
    };

    const auto stop_sending =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    const auto give_up =
        stop_sending + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainLimitSeconds));
    const double interval = mode.rate > 0 ? 1.0 / mode.rate : 0.0;
    std::uint64_t issued = 0; // open loop: requests scheduled so far
    auto due_of = [&](std::uint64_t k) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(k * interval));
    };

    std::vector<net::PollEvent> events;
    char buffer[64 * 1024];
    auto last_reply = start;
    for (;;) {
        const auto now = Clock::now();
        const bool sending = now < stop_sending;
        if (sending && mode.rate > 0) {
            for (auto due = due_of(issued); due <= now;
                 due = due_of(issued)) {
                result.lagUs.push_back(
                    std::chrono::duration<double, std::micro>(now - due)
                        .count());
                send(conns[issued % kConnections], Pending{cursor, 1, due});
                cursor = (cursor + 1) % n;
                ++issued;
            }
        } else if (sending) {
            for (Conn &conn : conns) {
                while (conn.inflight.size() < mode.window) {
                    send(conn, Pending{cursor, mode.rowsPerFrame,
                                       Clock::now()});
                    cursor = (cursor + mode.rowsPerFrame) % n;
                }
            }
        }
        std::size_t inflight = 0;
        for (std::size_t c = 0; c < kConnections; ++c) {
            flush(c);
            inflight += conns[c].inflight.size();
        }
        if (!sending && inflight == 0)
            break;
        if (now > give_up) {
            tally.failed += inflight;
            report_.check(false, mode.phase + ": " +
                                     std::to_string(inflight) +
                                     " requests never answered");
            break;
        }
        // The open loop polls without blocking while a send is due
        // within the next millisecond.
        int timeout_ms = 10;
        if (sending && mode.rate > 0) {
            const double until =
                std::chrono::duration<double, std::milli>(due_of(issued) -
                                                          Clock::now())
                    .count();
            timeout_ms = until < 1.0 ? 0 : static_cast<int>(until);
        }
        poller.wait(events, timeout_ms);
        for (const net::PollEvent &ev : events) {
            Conn &conn = conns[ev.tag];
            if (ev.readable || ev.hangup) {
                bool eof = false;
                const std::size_t got = net::readSome(
                    conn.sock.fd(), buffer, sizeof(buffer), &eof);
                if (eof) {
                    report_.check(false, mode.phase +
                                             ": server closed a connection");
                    tally.failed += conn.inflight.size();
                    return result;
                }
                conn.assembler.feed(buffer, got);
                serve::Frame frame;
                while (conn.assembler.next(frame, "server")) {
                    handle(conn, frame);
                    last_reply = Clock::now();
                }
            }
            if (ev.writable)
                flush(ev.tag);
        }
    }
    result.seconds =
        std::chrono::duration<double>(last_reply - start).count();
    for (Conn &conn : conns)
        conn.sock.close();

    // The server counts a batch's rows as it replies; give the last
    // count a moment to land before reconciling.
    serve::StatsSnapshot after = server_->stats();
    for (int i = 0; i < 100 && after.rowsPredicted - before.rowsPredicted !=
                                   result.rows;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        after = server_->stats();
    }
    tally.deadlineExpired += after.deadlineExpired - before.deadlineExpired;
    report_.check(wrong == 0, mode.phase + ": " + std::to_string(wrong) +
                                  " replies differ from offline predict");
    report_.check(after.rowsPredicted - before.rowsPredicted == result.rows,
                  mode.phase + ": server counted " +
                      std::to_string(after.rowsPredicted -
                                     before.rowsPredicted) +
                      " rows, client " + std::to_string(result.rows));
    return result;
}

} // namespace perfbench
