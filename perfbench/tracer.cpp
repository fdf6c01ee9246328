#include "tracer.h"

namespace perfbench
{

LayerTotals
Tracer::totals() const
{
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Record &rec : spans) {
        if (rec.parent >= 0)
            child_ns[static_cast<std::size_t>(rec.parent)] +=
                rec.endNs - rec.startNs;
    }
    LayerTotals out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::size_t layer = static_cast<std::size_t>(spans[i].layer);
        const std::uint64_t dur = spans[i].endNs - spans[i].startNs;
        out.selfNs[layer] += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
    return out;
}

std::vector<double>
Tracer::durations(Layer layer) const
{
    std::vector<double> out;
    for (const Record &rec : spans) {
        if (rec.layer == layer)
            out.push_back(static_cast<double>(rec.endNs - rec.startNs) /
                          1e9);
    }
    return out;
}

} // namespace perfbench
