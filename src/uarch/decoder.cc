#include "uarch/decoder.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"

namespace mtperf::uarch {

namespace {

std::size_t
roundUpPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** The process-wide counters every decoder publishes to. */
struct DecodeCounters
{
    obs::Counter &lookups;
    obs::Counter &hits;
    obs::Counter &misses;
};

const DecodeCounters &
decodeCounters()
{
    static const DecodeCounters counters{
        obs::counter("decode.cache_lookups"),
        obs::counter("decode.cache_hits"),
        obs::counter("decode.cache_misses")};
    return counters;
}

/**
 * Registers the accounting invariant and resolves the counters, so the
 * first construction does the lookups that could throw, not a
 * destructor's publish.
 */
void
registerDecodeCacheInvariant()
{
    static const bool once = [] {
        decodeCounters();
        obs::registerInvariant("decode.cache_accounting", [] {
            const DecodeCounters &counters = decodeCounters();
            const std::uint64_t lookups = counters.lookups.value();
            const std::uint64_t hits = counters.hits.value();
            const std::uint64_t misses = counters.misses.value();
            if (hits + misses == lookups)
                return std::string();
            std::ostringstream os;
            os << "decode.cache_hits=" << hits
               << " + decode.cache_misses=" << misses
               << " != decode.cache_lookups=" << lookups;
            return os.str();
        });
        return true;
    }();
    (void)once;
}

} // namespace

Decoder::Decoder(const DecoderConfig &config) : config_(config)
{
    if (config_.decodeCacheEntries > 0) {
        const std::size_t entries =
            roundUpPow2(config_.decodeCacheEntries);
        cache_.assign(entries, CacheEntry{});
        indexMask_ = entries - 1;
    }
    registerDecodeCacheInvariant();
}

Decoder::Decoder(const Decoder &other)
    : config_(other.config_),
      lcpStalls_(other.lcpStalls_),
      counts_(other.counts_),
      published_(other.counts_), // the source publishes its own counts
      cache_(other.cache_),
      indexMask_(other.indexMask_)
{
}

Decoder::Decoder(Decoder &&other) noexcept
    : config_(other.config_),
      lcpStalls_(other.lcpStalls_),
      counts_(other.counts_),
      published_(other.published_),
      cache_(std::move(other.cache_)),
      indexMask_(other.indexMask_)
{
    other.published_ = other.counts_;
}

Decoder &
Decoder::operator=(const Decoder &other)
{
    if (this != &other) {
        publish();
        config_ = other.config_;
        lcpStalls_ = other.lcpStalls_;
        counts_ = other.counts_;
        published_ = other.counts_;
        cache_ = other.cache_;
        indexMask_ = other.indexMask_;
    }
    return *this;
}

Decoder &
Decoder::operator=(Decoder &&other) noexcept
{
    if (this != &other) {
        publish();
        config_ = other.config_;
        lcpStalls_ = other.lcpStalls_;
        counts_ = other.counts_;
        published_ = other.published_;
        cache_ = std::move(other.cache_);
        indexMask_ = other.indexMask_;
        other.published_ = other.counts_;
    }
    return *this;
}

Decoder::~Decoder()
{
    publish();
}

void
Decoder::publish()
{
    if (counts_.lookups == published_.lookups)
        return;
    const DecodeCounters &counters = decodeCounters();
    counters.lookups.add(counts_.lookups - published_.lookups);
    counters.hits.add(counts_.hits - published_.hits);
    counters.misses.add(counts_.misses - published_.misses);
    published_ = counts_;
}

Cycle
Decoder::decode(const MicroOp &op)
{
    Cycle bubble;
    if (!cache_.empty()) {
        // Instruction pcs are word-spaced, so drop the two always-zero
        // low bits before direct-mapping.
        CacheEntry &entry = cache_[(op.pc >> 2) & indexMask_];
        if (entry.pc == op.pc && entry.hasLcp == op.hasLcp) {
            ++counts_.hits;
            bubble = entry.bubble;
        } else {
            ++counts_.misses;
            bubble = op.hasLcp ? config_.lcpStallCycles : 0;
            entry = {op.pc, op.hasLcp, bubble};
        }
    } else {
        ++counts_.misses;
        bubble = op.hasLcp ? config_.lcpStallCycles : 0;
    }

    // Stall statistics are per dynamic instruction, hit or miss.
    if (op.hasLcp)
        ++lcpStalls_;
    if ((++counts_.lookups & (kPublishBatch - 1)) == 0)
        publish();
    return bubble;
}

void
Decoder::reset()
{
    publish();
    lcpStalls_ = 0;
    counts_ = {};
    published_ = {};
    if (!cache_.empty())
        cache_.assign(cache_.size(), CacheEntry{});
}

} // namespace mtperf::uarch
