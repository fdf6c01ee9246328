/**
 * @file
 * Outside-in span recorder for the campaign benchmark's traced run.
 *
 * Spans are opened by the benchmark's own code around calls into the
 * library's layers (nothing inside src/ is instrumented). Each span
 * records its layer, its parent span, and steady-clock start/end; the
 * spans stay in memory until the run folds them into totals. A
 * layer's self time is its spans' durations minus the time their child
 * spans cover, so structural spans (the whole replay, one unit) keep
 * only the glue no named layer claims.
 *
 * A disabled tracer's spans never touch the clock: the same replay code
 * serves the untraced correctness replay and the traced run, and the
 * difference between the two is the tracing overhead.
 */

#ifndef MTC_PERFBENCH_TRACER_H
#define MTC_PERFBENCH_TRACER_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

/**
 * Named layers, each reported as a per-layer self-time metric. A
 * layer's spans also cover building and freeing that layer's own
 * objects.
 */
enum class Layer : std::uint8_t
{
    Replay,      ///< structural: the whole traced replay
    Unit,        ///< structural: one (config, test) unit
    Generate,    ///< generateTest
    Instrument,  ///< analysis, plan, codec and static metrics
    Dispatch,    ///< batch arena and per-iteration RNG streams
    Execute,     ///< OperationalExecutor + runBatchInto
    Encode,      ///< SignatureCodec::encodeInto
    Perturb,     ///< PerturbationModel record + overhead totals
    Accumulate,  ///< SignatureAccumulator::record
    Sort,        ///< SignatureAccumulator::takeSortedUnique
    Digest,      ///< signature-set digest of the sorted stream
    Decode,      ///< StreamDecoder::next
    WsInfer,     ///< WsOrder::inferDelta
    Derive,      ///< EdgeDeriver::derive
    Check,       ///< CollectiveChecker::checkNextDiff
    Summarize,   ///< summarizeConfig + campaign report
    TraceRead,   ///< readTraceFile
    UnitCodec,   ///< encode/decode of unit requests and records
    Journal,     ///< CampaignJournal construction + append
    Framing,     ///< appendFrame
    Hmac,        ///< hmacSha256 frame tags (sign + verify)
    Transport,   ///< Transport sendRaw/receive over a socketpair or pipe
};

constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::Transport) + 1;

/** True for the spans whose self time is glue, not a layer's work. */
constexpr bool
structural(Layer layer)
{
    return layer == Layer::Replay || layer == Layer::Unit;
}

/** Per-layer self time folded from a span list. */
struct LayerTotals
{
    std::array<std::uint64_t, kLayerCount> selfNs{};

    double
    seconds(Layer layer) const
    {
        return static_cast<double>(
                   selfNs[static_cast<std::size_t>(layer)]) /
            1e9;
    }
};

class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled_arg) : on(enabled_arg)
    {
        if (on)
            epoch = Clock::now();
    }

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span; nests under the innermost open span. */
    class Span
    {
      public:
        Span(Tracer &tracer, Layer layer)
            : owner(tracer.on ? &tracer : nullptr)
        {
            if (owner)
                index = owner->open(layer);
        }

        ~Span()
        {
            if (owner)
                owner->close(index);
        }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *owner;
        std::size_t index = 0;
    };

    Span span(Layer layer) { return Span(*this, layer); }

    /** Self time per layer over every closed span. */
    LayerTotals totals() const;

    /** Durations in seconds of every span of @p layer, in open order. */
    std::vector<double> durations(Layer layer) const;

  private:
    struct Record
    {
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        std::int32_t parent = -1;
        Layer layer = Layer::Replay;
    };

    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch)
                .count());
    }

    std::size_t
    open(Layer layer)
    {
        Record rec;
        rec.layer = layer;
        rec.parent =
            stack.empty() ? -1 : static_cast<std::int32_t>(stack.back());
        spans.push_back(rec);
        stack.push_back(spans.size() - 1);
        spans.back().startNs = nowNs();
        return spans.size() - 1;
    }

    void
    close(std::size_t index)
    {
        spans[index].endNs = nowNs();
        stack.pop_back();
    }

    bool on;
    Clock::time_point epoch{};
    std::vector<Record> spans;
    std::vector<std::size_t> stack;
};

} // namespace perfbench

#endif // MTC_PERFBENCH_TRACER_H
