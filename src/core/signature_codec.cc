#include "core/signature_codec.h"

#include <cstring>
#include <sstream>

namespace mtc
{

namespace
{

/**
 * Index of the first element of [data, data+n) equal to @p value, or
 * @p n when absent — the branch-chain candidate scan of encodeInto,
 * where "first" matters because the comparison count it implies feeds
 * the Figure-10 perturbation model.
 */
std::uint32_t
firstIndexOfU32(const std::uint32_t *data, std::uint32_t n,
                std::uint32_t value)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        if (data[i] == value)
            return i;
    }
    return n;
}

/**
 * Index of the first element where [a, a+n) and [b, b+n) differ, or
 * @p n when the ranges are equal — the delta-decode prefix probe: two
 * adjacent sorted signatures share a thread's word slice exactly when
 * this returns @p n for that slice.
 */
std::uint32_t
firstDiffU64(const std::uint64_t *a, const std::uint64_t *b,
             std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i) {
        if (a[i] != b[i])
            return i;
    }
    return n;
}

} // anonymous namespace

const char *
decodeFaultKindName(DecodeFaultKind kind)
{
    switch (kind) {
    case DecodeFaultKind::WordCountMismatch:
        return "word-count-mismatch";
    case DecodeFaultKind::IndexOverflow:
        return "index-overflow";
    case DecodeFaultKind::ResidueOverflow:
        return "residue-overflow";
    }
    return "unknown";
}

SignatureCodec::SignatureCodec(const TestProgram &program,
                               const LoadValueAnalysis &analysis,
                               const InstrumentationPlan &plan_arg)
    : prog(program), loadAnalysis(analysis), plan(plan_arg)
{
    const auto &loads = prog.loads();
    loadMeta.resize(loads.size());
    for (std::uint32_t ordinal = 0; ordinal < loads.size(); ++ordinal) {
        const LoadSlot &slot = plan.slot(ordinal);
        const LoadCandidateSet &set = loadAnalysis.candidates(ordinal);
        LoadMeta &meta = loadMeta[ordinal];
        meta.word = plan.wordBase(loads[ordinal].tid) + slot.wordIndex;
        meta.multiplier = slot.multiplier;
        meta.cardinality = set.cardinality();
        meta.opIdx = loads[ordinal].idx;
        meta.candidates = set.values.data();
    }
    threadOrdinals.resize(prog.numThreads());
    for (std::uint32_t tid = 0; tid < prog.numThreads(); ++tid) {
        const auto &thread_loads = prog.loadsOfThread(tid);
        threadOrdinals[tid].resize(thread_loads.size());
        for (std::size_t i = 0; i < thread_loads.size(); ++i)
            threadOrdinals[tid][i] = prog.loadOrdinal(thread_loads[i]);
    }
}

EncodeResult
SignatureCodec::encode(const Execution &execution) const
{
    EncodeResult result;
    encodeInto(execution, result);
    return result;
}

void
SignatureCodec::encodeInto(const Execution &execution,
                           EncodeResult &result) const
{
    result.comparisons = 0;
    result.signature.words.assign(plan.totalWords(), 0);

    const std::uint32_t num_loads =
        static_cast<std::uint32_t>(loadMeta.size());
    for (std::uint32_t ordinal = 0; ordinal < num_loads; ++ordinal) {
        const LoadMeta &meta = loadMeta[ordinal];
        const std::uint32_t value = execution.loadValues.at(ordinal);
        const std::uint32_t index =
            firstIndexOfU32(meta.candidates, meta.cardinality, value);
        if (index == meta.cardinality) {
            const auto &loads = prog.loads();
            std::ostringstream os;
            os << "instrumented assertion fired: load t"
               << loads[ordinal].tid << " op" << loads[ordinal].idx
               << " observed unexpected value " << value;
            throw SignatureAssertError(os.str());
        }
        // The branch chain compares candidates 0..index.
        result.comparisons += index + 1;
        result.signature.words[meta.word] +=
            static_cast<std::uint64_t>(index) * meta.multiplier;
    }
}

Execution
SignatureCodec::decode(const Signature &signature) const
{
    Execution execution;
    std::vector<std::uint64_t> word_scratch;
    decodeInto(signature, execution, word_scratch);
    return execution;
}

void
SignatureCodec::decodeThreadSlice(
    std::uint32_t tid, const std::uint64_t *slice, Execution &out,
    std::vector<std::uint64_t> &word_scratch) const
{
    const std::vector<std::uint32_t> &ordinals = threadOrdinals[tid];
    const std::uint32_t word_base = plan.wordBase(tid);
    const std::uint32_t thread_words = plan.wordsForThread(tid);

    // Working copy of this thread's words; weights are peeled off
    // from the last load of the thread to the first (Algorithm 1).
    word_scratch.assign(slice, slice + thread_words);

    for (std::size_t i = ordinals.size(); i-- > 0;) {
        const std::uint32_t ordinal = ordinals[i];
        const LoadMeta &meta = loadMeta[ordinal];
        std::uint64_t &word = word_scratch[meta.word - word_base];

        const std::uint64_t index = word / meta.multiplier;
        word %= meta.multiplier;

        if (index >= meta.cardinality) {
            std::ostringstream os;
            os << "corrupt signature: load t" << tid << " op"
               << meta.opIdx << " decoded index " << index << " of "
               << meta.cardinality;
            throw SignatureDecodeError(os.str(),
                                       DecodeFaultKind::IndexOverflow,
                                       tid, meta.word);
        }
        out.loadValues[ordinal] =
            meta.candidates[static_cast<std::uint32_t>(index)];
    }

    for (std::uint32_t w = 0; w < thread_words; ++w) {
        if (word_scratch[w] != 0) {
            std::ostringstream os;
            os << "corrupt signature: non-zero residue 0x" << std::hex
               << word_scratch[w] << std::dec << " in word "
               << (word_base + w) << " after decode";
            throw SignatureDecodeError(
                os.str(), DecodeFaultKind::ResidueOverflow, tid,
                word_base + w);
        }
    }
}

void
SignatureCodec::decodeInto(const Signature &signature, Execution &out,
                           std::vector<std::uint64_t> &word_scratch)
    const
{
    if (signature.words.size() != plan.totalWords()) {
        throw SignatureDecodeError(
            "signature word count mismatch",
            DecodeFaultKind::WordCountMismatch, 0, 0);
    }

    out.loadValues.assign(prog.loads().size(), kInitValue);
    out.duration = 0;
    out.coherenceOrder.clear();

    for (std::uint32_t tid = 0; tid < prog.numThreads(); ++tid) {
        decodeThreadSlice(tid, signature.words.data() + plan.wordBase(tid),
                          out, word_scratch);
    }
}

StreamDecoder::StreamDecoder(const SignatureCodec &codec_arg)
    : codec(codec_arg)
{
    const TestProgram &prog = codec.prog;
    exec.loadValues.assign(prog.loads().size(), kInitValue);
    exec.duration = 0;
    prevWords.assign(codec.plan.totalWords(), 0);
    sliceValid.assign(prog.numThreads(), 0);
    dirty.assign(prog.numThreads(), 0);
    changed.reserve(prog.numThreads());
}

const Execution &
StreamDecoder::next(const Signature &signature)
{
    const InstrumentationPlan &plan = codec.plan;
    if (signature.words.size() != plan.totalWords()) {
        throw SignatureDecodeError(
            "signature word count mismatch",
            DecodeFaultKind::WordCountMismatch, 0, 0);
    }

    const std::uint32_t num_threads = codec.prog.numThreads();
    for (std::uint32_t tid = 0; tid < num_threads; ++tid) {
        const std::uint32_t word_base = plan.wordBase(tid);
        const std::uint32_t thread_words = plan.wordsForThread(tid);
        const std::uint64_t *slice = signature.words.data() + word_base;
        if (sliceValid[tid] &&
            firstDiffU64(prevWords.data() + word_base, slice,
                         thread_words) == thread_words) {
            ++reused;
            continue;
        }
        // Mark before decoding: a throwing slice may have partially
        // overwritten this thread's values, and the next successful
        // call must re-derive everything those values feed.
        dirty[tid] = 1;
        sliceValid[tid] = 0;
        codec.decodeThreadSlice(tid, slice, exec, word_scratch);
        std::memcpy(prevWords.data() + word_base, slice,
                    sizeof(std::uint64_t) * thread_words);
        sliceValid[tid] = 1;
        ++decodedSlices;
    }

    changed.clear();
    for (std::uint32_t tid = 0; tid < num_threads; ++tid) {
        if (dirty[tid]) {
            changed.push_back(tid);
            dirty[tid] = 0;
        }
    }
    return exec;
}

} // namespace mtc
