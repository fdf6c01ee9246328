/**
 * @file
 * Property tests for the signature codec: encode/decode bijection over
 * platform-generated executions, distinct signatures for distinct
 * reads-from sets, assertion on impossible values, and robustness
 * against corrupt signatures.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/signature_codec.h"
#include "sim/executor.h"
#include "testgen/generator.h"
#include "testgen/litmus.h"

namespace mtc
{
namespace
{

// std::string, not const char *: see ExecutorSoundness in executor_test.
using Param = std::tuple<std::string /*config*/, unsigned /*word bits*/,
                         std::uint64_t /*seed*/>;

class CodecRoundTrip : public ::testing::TestWithParam<Param>
{
};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentityOnReadsFrom)
{
    const auto [config_name, word_bits, seed] = GetParam();
    const TestProgram program =
        generateTest(parseConfigName(config_name), seed);

    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis, word_bits);
    SignatureCodec codec(program, analysis, plan);

    ExecutorConfig exec = bareMetalConfig(program.config().isa);
    OperationalExecutor platform(exec);
    Rng rng(seed * 97 + 3);

    std::set<std::vector<std::uint32_t>> rf_sets;
    std::set<Signature> signatures;
    for (int run = 0; run < 64; ++run) {
        const Execution execution = platform.run(program, rng);
        const EncodeResult encoded = codec.encode(execution);
        const Execution decoded = codec.decode(encoded.signature);
        EXPECT_EQ(decoded.loadValues, execution.loadValues)
            << "decode must invert encode";

        rf_sets.insert(execution.loadValues);
        signatures.insert(encoded.signature);
    }
    // 1:1 mapping between signatures and interleavings (Section 3.1).
    EXPECT_EQ(rf_sets.size(), signatures.size());
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, CodecRoundTrip,
    ::testing::Values(
        Param{"x86-2-50-32", 64, 1}, Param{"x86-4-100-64", 64, 2},
        Param{"ARM-2-100-32", 32, 3}, Param{"ARM-4-50-64", 32, 4},
        Param{"ARM-7-50-64", 32, 5}, Param{"ARM-2-200-32", 32, 6},
        Param{"x86-7-200-64", 64, 7}),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name + "_w" + std::to_string(std::get<1>(info.param)) +
            "_s" + std::to_string(std::get<2>(info.param));
    });

TEST(Codec, ExhaustiveBijectionOnSmallProgram)
{
    // Enumerate every candidate-index tuple of a small program and
    // check signature uniqueness + decode correctness exhaustively.
    const TestProgram program = litmus::iriw();
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    const std::uint32_t num_loads =
        static_cast<std::uint32_t>(program.loads().size());
    std::vector<std::uint32_t> indices(num_loads, 0);
    std::set<Signature> seen;
    std::uint64_t combos = 0;

    for (;;) {
        Execution execution;
        execution.loadValues.resize(num_loads);
        for (std::uint32_t l = 0; l < num_loads; ++l) {
            execution.loadValues[l] =
                analysis.candidates(l).values[indices[l]];
        }
        const EncodeResult encoded = codec.encode(execution);
        EXPECT_TRUE(seen.insert(encoded.signature).second)
            << "signature collision";
        EXPECT_EQ(codec.decode(encoded.signature).loadValues,
                  execution.loadValues);
        ++combos;

        // Advance the mixed-radix counter.
        std::uint32_t l = 0;
        while (l < num_loads &&
               ++indices[l] == analysis.candidates(l).cardinality()) {
            indices[l] = 0;
            ++l;
        }
        if (l == num_loads)
            break;
    }
    EXPECT_EQ(combos, 16u); // 4 loads x 2 candidates each
}

TEST(Codec, ChainComparisonsCounted)
{
    const TestProgram program = litmus::messagePassing();
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    // Both loads observing candidate 0 costs 1 comparison each.
    Execution init_read;
    init_read.loadValues = {kInitValue, kInitValue};
    EXPECT_EQ(codec.encode(init_read).comparisons, 2u);

    // Observing candidate 1 walks both chain entries.
    Execution stored_read;
    stored_read.loadValues = {program.op(OpId{0, 1}).value,
                              program.op(OpId{0, 0}).value};
    EXPECT_EQ(codec.encode(stored_read).comparisons, 4u);
}

TEST(Codec, AssertionOnImpossibleValue)
{
    const TestProgram program = litmus::messagePassing();
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    Execution bad;
    bad.loadValues = {0x12345u, kInitValue};
    EXPECT_THROW(codec.encode(bad), SignatureAssertError);
}

TEST(Codec, DecodeRejectsCorruptSignatures)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-50-32"), 9);
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    // Wrong word count.
    Signature wrong_size;
    wrong_size.words.assign(plan.totalWords() + 1, 0);
    EXPECT_THROW(codec.decode(wrong_size), SignatureDecodeError);

    // A word beyond the maximum possible accumulated weight decodes to
    // an out-of-range index.
    Signature corrupt;
    corrupt.words.assign(plan.totalWords(), 0);
    corrupt.words[0] = ~std::uint64_t(0);
    EXPECT_THROW(codec.decode(corrupt), SignatureDecodeError);
}

TEST(Codec, BitFlipEveryWordQuarantinesOrDecodesValidly)
{
    // Post-silicon robustness sweep: flip every bit of every word of a
    // known-good signature. Each flip must either be rejected with a
    // correctly classified SignatureDecodeError (quarantinable: right
    // word, sane kind) or decode to a *different valid* execution that
    // re-encodes to the flipped signature — never a crash, never a
    // silent wrong result.
    const TestProgram program =
        generateTest(parseConfigName("x86-4-100-64"), 21);
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    ExecutorConfig exec = bareMetalConfig(program.config().isa);
    OperationalExecutor platform(exec);
    Rng rng(2021);
    const Execution execution = platform.run(program, rng);
    const Signature good = codec.encode(execution).signature;
    ASSERT_EQ(codec.decode(good).loadValues, execution.loadValues);

    std::uint64_t quarantined = 0, survived = 0;
    for (std::uint32_t w = 0; w < good.words.size(); ++w) {
        for (unsigned bit = 0; bit < plan.wordBits(); ++bit) {
            Signature flipped = good;
            flipped.words[w] ^= std::uint64_t{1} << bit;
            try {
                const Execution decoded = codec.decode(flipped);
                // Valid decode of a different word array must yield a
                // different execution (the encoding is a bijection) …
                EXPECT_NE(decoded.loadValues, execution.loadValues)
                    << "word " << w << " bit " << bit;
                // … that is itself in-range (re-encodes losslessly).
                EXPECT_EQ(codec.encode(decoded).signature, flipped)
                    << "word " << w << " bit " << bit;
                ++survived;
            } catch (const SignatureDecodeError &err) {
                EXPECT_TRUE(
                    err.kind() == DecodeFaultKind::IndexOverflow ||
                    err.kind() == DecodeFaultKind::ResidueOverflow)
                    << "word " << w << " bit " << bit;
                // The failure must be pinned to the word we corrupted.
                EXPECT_EQ(err.word(), w)
                    << "word " << w << " bit " << bit;
                EXPECT_LT(err.thread(), program.numThreads());
                ++quarantined;
            }
        }
    }
    // High bits overflow the plan's weight range, so both outcomes
    // must occur across a full sweep.
    EXPECT_GT(quarantined, 0u);
    EXPECT_GT(survived, 0u);
}

TEST(Codec, ZeroSignatureDecodesToAllFirstCandidates)
{
    const TestProgram program = litmus::messagePassing();
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    Signature zero;
    zero.words.assign(plan.totalWords(), 0);
    const Execution decoded = codec.decode(zero);
    for (std::uint32_t l = 0; l < decoded.loadValues.size(); ++l)
        EXPECT_EQ(decoded.loadValues[l], analysis.candidates(l).values[0]);
}

TEST(Signature, OrderingAndHash)
{
    Signature a{{1, 2}}, b{{1, 3}}, c{{2, 0}};
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_EQ(a, (Signature{{1, 2}}));

    SignatureHash hash;
    EXPECT_EQ(hash(a), hash(Signature{{1, 2}}));
    EXPECT_NE(hash(a), hash(b));

    EXPECT_EQ(a.toString(), "0x1:0x2");
}

TEST(Codec, ThirtyTwoBitWordsStayInRange)
{
    // ARM plans must never accumulate beyond 32 bits per word.
    const TestProgram program =
        generateTest(parseConfigName("ARM-7-100-64"), 10);
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis, 32);
    SignatureCodec codec(program, analysis, plan);

    ExecutorConfig exec = bareMetalConfig(Isa::ARMv7);
    OperationalExecutor platform(exec);
    Rng rng(77);
    for (int run = 0; run < 32; ++run) {
        const EncodeResult encoded =
            codec.encode(platform.run(program, rng));
        for (std::uint64_t word : encoded.signature.words)
            EXPECT_LE(word, 0xffffffffull);
    }
}

TEST(StreamDecoder, DeltaDecodeBitIdenticalOverSortedUniques)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-4-100-64"), 21);
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    ExecutorConfig exec = bareMetalConfig(Isa::X86);
    OperationalExecutor platform(exec);
    Rng rng(5);
    std::set<Signature> unique;
    for (int run = 0; run < 96; ++run)
        unique.insert(codec.encode(platform.run(program, rng)).signature);
    ASSERT_GT(unique.size(), 4u);

    // Walking the set in ascending order (the flow's presentation
    // order) must reproduce the full decode exactly, and adjacent
    // sorted signatures must actually share slices.
    StreamDecoder stream(codec);
    for (const Signature &signature : unique) {
        const Execution &delta = stream.next(signature);
        EXPECT_EQ(delta.loadValues, codec.decode(signature).loadValues);
    }
    EXPECT_GT(stream.slicesReused(), 0u);
    EXPECT_EQ(stream.slicesReused() + stream.slicesDecoded(),
              static_cast<std::uint64_t>(unique.size()) *
                  program.numThreads());

    // A second pass over the same sequence reuses every slice except
    // the wrap-around from the last signature back to the first.
    const std::uint64_t decoded_before = stream.slicesDecoded();
    for (const Signature &signature : unique) {
        const Execution &delta = stream.next(signature);
        EXPECT_EQ(delta.loadValues, codec.decode(signature).loadValues);
    }
    // Pass 2 sees the same adjacent transitions, so it never decodes
    // more slices than pass 1 (whose first signature was all-cold).
    EXPECT_LE(stream.slicesDecoded() - decoded_before, decoded_before);
}

TEST(StreamDecoder, CorruptSignaturesThrowIdenticallyAndRecover)
{
    const TestProgram program =
        generateTest(parseConfigName("x86-2-50-32"), 9);
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    Signature corrupt;
    corrupt.words.assign(plan.totalWords(), 0);
    corrupt.words[0] = ~std::uint64_t(0);

    std::string bare_what;
    DecodeFaultKind bare_kind{};
    try {
        codec.decode(corrupt);
        FAIL() << "corrupt signature must not decode";
    } catch (const SignatureDecodeError &err) {
        bare_what = err.what();
        bare_kind = err.kind();
    }

    // A clean signature to interleave with the corrupt one: the
    // stream decoder must classify the fault identically every time
    // and keep decoding correctly after each throw.
    OperationalExecutor platform(bareMetalConfig(Isa::X86));
    Rng rng(3);
    const Signature clean =
        codec.encode(platform.run(program, rng)).signature;
    const Execution full = codec.decode(clean);

    StreamDecoder stream(codec);
    for (int attempt = 0; attempt < 3; ++attempt) {
        try {
            stream.next(corrupt);
            FAIL() << "corrupt signature must not stream-decode";
        } catch (const SignatureDecodeError &err) {
            EXPECT_EQ(std::string(err.what()), bare_what);
            EXPECT_EQ(err.kind(), bare_kind);
        }
        EXPECT_EQ(stream.next(clean).loadValues, full.loadValues);
    }

    // Truncation faults classify identically too.
    Signature truncated = clean;
    truncated.words.pop_back();
    try {
        stream.next(truncated);
        FAIL() << "truncated signature must not stream-decode";
    } catch (const SignatureDecodeError &err) {
        EXPECT_EQ(err.kind(), DecodeFaultKind::WordCountMismatch);
    }
}

TEST(StreamDecoder, ChangedThreadsIsASoundSuperset)
{
    const TestProgram program =
        generateTest(parseConfigName("ARM-4-50-64"), 31);
    LoadValueAnalysis analysis(program);
    InstrumentationPlan plan(program, analysis);
    SignatureCodec codec(program, analysis, plan);

    OperationalExecutor platform(bareMetalConfig(Isa::ARMv7));
    Rng rng(31);
    std::set<Signature> unique;
    for (int run = 0; run < 48; ++run)
        unique.insert(codec.encode(platform.run(program, rng)).signature);

    StreamDecoder stream(codec);
    Execution prev;
    bool have_prev = false;
    for (const Signature &signature : unique) {
        const Execution &delta = stream.next(signature);
        if (have_prev) {
            // Any load whose value changed belongs to a reported
            // changed thread; threads outside the list are untouched.
            std::vector<bool> changed(program.numThreads(), false);
            for (std::uint32_t tid : stream.changedThreads())
                changed[tid] = true;
            const auto &loads = program.loads();
            for (std::size_t ordinal = 0; ordinal < loads.size();
                 ++ordinal) {
                if (delta.loadValues[ordinal] !=
                    prev.loadValues[ordinal]) {
                    EXPECT_TRUE(changed[loads[ordinal].tid]);
                }
            }
        }
        prev = delta;
        have_prev = true;
    }
}

} // anonymous namespace
} // namespace mtc
