/**
 * @file
 * The repository's campaign benchmark.
 *
 *   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  --workdir DIR [--golden HEX] [--held-out-seed N]
 *
 * Each workload is one campaign, driven through the library's public
 * entry points (runCampaign in three ExecutionModes, checkTrace), never
 * through the CLIs. The load is a closed loop: the whole unit set is
 * submitted in one call, and the call is repeated for --seconds.
 *
 * --trace 0 measures the end-to-end metrics with tracing off and prints
 * them as the last line's JSON. --trace 1 is the separate traced run:
 * it replays the same units in this benchmark's own code through each
 * layer's public functions with a span around every call (replay.h)
 * and prints per-layer self times, work counts, the program's own
 * PhaseProfiler totals, and the tracing overhead.
 *
 * Every run is gated on correctness: each campaign's deterministic
 * digest (printCampaignReport) must repeat across calls, equal the
 * digest of the benchmark's independent replay of the same units (or,
 * for offline_check, the digest of the campaign that produced the
 * trace), and — at the default seed — equal the recorded golden digest.
 * Any mismatch, and any unit that is not Ok or holds quarantined
 * signatures, is a failed operation and fails the run.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "core/instr_plan.h"
#include "core/load_analysis.h"
#include "core/signature_codec.h"
#include "core/trace_format.h"
#include "harness/campaign.h"
#include "harness/campaign_report.h"
#include "harness/dist_campaign.h"
#include "harness/trace_check.h"
#include "harness/validation_flow.h"
#include "support/error.h"
#include "support/hmac.h"
#include "support/thread_pool.h"
#include "testgen/generator.h"

#include "replay.h"
#include "tracer.h"

using namespace mtc;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

/** Threads, sandbox workers or loopback fabric workers per campaign. */
constexpr unsigned kWorkers = 4;

/** Set-up passes per run: at least kSetupRepeats, and more while
 * they total under kSetupMinSeconds (a set-up of a few milliseconds
 * needs many passes for a steady median), up to kSetupMaxRepeats. */
constexpr int kSetupRepeats = 3;
constexpr int kSetupMaxRepeats = 25;
constexpr double kSetupMinSeconds = 1.0;

/** Campaign seed of the warm-up unit run during set-up. */
constexpr std::uint64_t kWarmupSeed = 2017;

/** Fewest timed calls per run, whatever --seconds says. */
constexpr int kMinCalls = 3;

/** Timed calls behind the traced run's end-to-end reference. */
constexpr int kTracedRefCalls = 3;

enum class Path
{
    InProcess, ///< runCampaign, ExecutionMode::InProcess
    Offline,   ///< checkTrace over a trace dumped during set-up
    Fabric,    ///< runCampaign, ExecutionMode::Distributed, keyed, journaled
    Sandbox,   ///< runCampaign, ExecutionMode::Sandboxed
};

struct WorkloadSpec
{
    const char *name;
    Path path;
    std::vector<const char *> configs;
    unsigned testsPerConfig;
    std::uint64_t iterations;
};

// Why each workload exists is recorded in BENCHMARK.json.
const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> all = {
        {"inproc_exec", Path::InProcess, {"x86-4-100-64", "ARM-4-100-64"},
         16, 2048},
        {"offline_check", Path::Offline, {"ARM-7-100-64", "x86-4-200-64"},
         16, 512},
        {"fabric_units", Path::Fabric, {"x86-2-50-32", "ARM-2-50-32"},
         2000, 8},
        {"sandbox_units", Path::Sandbox, {"x86-2-50-32", "ARM-2-50-32"},
         2000, 8},
    };
    return all;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned seconds = 0;
    bool trace = false;
    std::string workdir;
    std::string golden;
    std::uint64_t heldOutSeed = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
tvSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
        static_cast<double>(tv.tv_usec) / 1e6;
}

/** User + system CPU seconds of this process and its reaped children. */
double
cpuSeconds()
{
    rusage self{}, kids{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &kids);
    return tvSeconds(self.ru_utime) + tvSeconds(self.ru_stime) +
        tvSeconds(kids.ru_utime) + tvSeconds(kids.ru_stime);
}

/**
 * Start a peak-RSS window for this process: hand freed heap back to the
 * kernel, so what earlier calls left in the allocator does not count,
 * and reset the kernel's peak mark (VmHWM) to the current RSS.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak RSS in MB of this process since resetPeakRss(). */
double
selfPeakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

/** Peak RSS in MB of the largest child reaped so far. Every call forks
 * the same workers, so this is the largest per-call child peak. */
double
childPeakRssMb()
{
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(kids.ru_maxrss) / 1024.0;
}

/** What one campaign (or its replay) produced, as the gate sees it. */
struct Verdict
{
    std::string digest;
    std::string report;     ///< printCampaignReport's deterministic lines
    std::size_t badUnits = 0; ///< not Ok, or holding quarantined signatures
};

Verdict
verdictOf(const std::vector<ConfigSummary> &summaries,
          std::size_t planned_units)
{
    Verdict v;
    std::ostringstream out, err;
    printCampaignReport(out, err, "perfbench", summaries);
    v.report = out.str();
    const std::string tag = "campaign digest: ";
    const std::size_t at = v.report.rfind(tag);
    if (at != std::string::npos)
        v.digest = v.report.substr(at + tag.size(), 16);
    std::size_t ok = 0;
    for (const ConfigSummary &s : summaries) {
        ok += s.tests;
        v.badUnits += s.quarantinedSignatures;
        v.badUnits += s.degraded ? 1 : 0;
    }
    v.badUnits += planned_units > ok ? planned_units - ok : 0;
    v.badUnits = std::min(v.badUnits, planned_units);
    return v;
}

/** One workload's campaign, set up and callable. */
class Workload
{
  public:
    Workload(const WorkloadSpec &spec_arg, const Options &opts_arg)
        : spec(spec_arg), opts(opts_arg)
    {
        for (const char *name : spec.configs)
            configs.push_back(parseConfigName(name));
        campaign.seed = opts.seed;
        campaign.iterations = spec.iterations;
        campaign.testsPerConfig = spec.testsPerConfig;
        campaign.runConventional = false; // the Fig. 9 A/B baseline only
        campaign.threads = kWorkers;
        keyPath = opts.workdir + "/fabric.key";
        tracePath = opts.workdir + "/campaign.trace";
        replayTracePath = opts.workdir + "/replay.trace";
        switch (spec.path) {
        case Path::InProcess:
        case Path::Offline:
            break;
        case Path::Fabric:
            campaign.mode = ExecutionMode::Distributed;
            campaign.distWorkers = kWorkers;
            campaign.distKeyFile = keyPath;
            campaign.journalPath = opts.workdir + "/fabric.journal";
            break;
        case Path::Sandbox:
            campaign.mode = ExecutionMode::Sandboxed;
            break;
        }
        plan = UnitPlan::build(configs, campaign);
    }

    const WorkloadSpec &spec;
    const Options &opts;
    std::vector<TestConfig> configs;
    CampaignConfig campaign;
    UnitPlan plan;
    std::string keyPath;
    std::string tracePath;
    std::string replayTracePath; ///< the replay's own offline trace

    /** Digest of the campaign that produced the offline trace. */
    Verdict producer;

    std::size_t units() const { return plan.units.size(); }

    /** One set-up pass: everything before the timed call, including
     * the offline trace dump and a warm-up unit. */
    void
    setup()
    {
        if (spec.path == Path::Offline) {
            CampaignConfig producing = campaign;
            producing.dumpTracePath = tracePath;
            producer = verdictOf(runCampaign(configs, producing), units());
            return;
        }
        if (spec.path == Path::Fabric) {
            std::ofstream key(keyPath, std::ios::trunc);
            key << "perfbench-fabric-key-"
                << hex64(opts.seed * 0x9e3779b97f4a7c15ull) << '\n';
            if (!key)
                throw ConfigError("perfbench: cannot write " + keyPath);
        }
        // The warm-up unit's seed is fixed, so set-up time does not
        // vary with the workload seed.
        CampaignConfig warm = campaign;
        warm.seed = kWarmupSeed;
        warm.testsPerConfig = 1;
        runCampaign({configs.front()}, warm);
    }

    /** The measured call: the whole unit set at once. */
    Verdict
    call()
    {
        if (spec.path != Path::Offline)
            return verdictOf(runCampaign(configs, campaign), units());
        TraceCheckOptions check;
        check.tracePath = tracePath;
        check.threads = kWorkers;
        const TraceCheckReport report = checkTrace(check);
        Verdict v = verdictOf(report.summaries, units());
        if (report.unitsVerified != units() || report.anyFault())
            v.badUnits = units();
        return v;
    }

    /** The same units in-process at the same parallelism (and with the
     * same journal), so the difference is the fabric or sandbox alone. */
    Verdict
    inProcessTwin()
    {
        CampaignConfig twin = campaign;
        twin.mode = ExecutionMode::InProcess;
        return verdictOf(runCampaign(configs, twin), units());
    }
};

/** The untraced replay of every unit on kWorkers threads: the
 * independent digest every timed call is checked against. */
Verdict
parallelReplay(const UnitPlan &plan)
{
    Tracer off(false);
    std::vector<std::vector<TestOutcome>> outcomes = plan.emptyOutcomes();
    {
        ThreadPool pool(kWorkers);
        pool.parallelFor(plan.units.size(), [&](std::size_t u) {
            const auto [c, t] = plan.units[u];
            ReplayCounts counts;
            outcomes[c][t] = replayUnit(plan.configs[c], plan.flows[c],
                                        plan.tests[c][t], false, off,
                                        counts);
        });
    }
    return verdictOf(summarizeOutcomes(plan, outcomes, off),
                     plan.units.size());
}

/** What one serial replay did. */
struct ReplayRun
{
    Verdict verdict;
    ReplayCounts counts;
    double wallS = 0.0;
    std::uint64_t journalBytes = 0;

    /** Wall-clock of each unit on the workload's timed path. */
    std::vector<double> unitSeconds;
};

/**
 * offline_check's set-up, replayed: produce every unit untraced and
 * dump them to Workload::replayTracePath. @return the seconds the dump
 * (writeCampaignTrace) alone took.
 */
double
dumpReplayTrace(const Workload &w)
{
    const UnitPlan &plan = w.plan;
    Tracer off(false);
    ReplayCounts unused;
    std::vector<std::vector<TestOutcome>> outcomes = plan.emptyOutcomes();
    for (const auto &[c, t] : plan.units)
        outcomes[c][t] = replayUnit(plan.configs[c], plan.flows[c],
                                    plan.tests[c][t], true, off, unused);
    const auto t0 = Clock::now();
    writeCampaignTrace(w.replayTracePath, plan.configs, plan.campaign,
                       plan.tests, outcomes);
    return secondsSince(t0);
}

/**
 * Replay the workload's units serially on the calling thread, through
 * the same layers its timed call crosses: units alone (in-process), the
 * keyed socketpair wire plus journal (fabric), the pipe wire (sandbox),
 * or trace read and re-check of the trace dumpReplayTrace left (offline).
 */
ReplayRun
serialReplay(Workload &w, Tracer &tracer)
{
    const UnitPlan &plan = w.plan;
    ReplayRun run;
    const auto t0 = Clock::now();
    std::vector<std::vector<TestOutcome>> outcomes = plan.emptyOutcomes();
    std::vector<ConfigSummary> summaries;
    {
        auto root = tracer.span(Layer::Replay);
        const auto run_unit = [&](std::size_t c, std::size_t t) {
            return replayUnit(plan.configs[c], plan.flows[c],
                              plan.tests[c][t], false, tracer, run.counts);
        };
        switch (w.spec.path) {
        case Path::InProcess:
            for (const auto &[c, t] : plan.units)
                outcomes[c][t] = run_unit(c, t);
            break;
        case Path::Fabric:
        case Path::Sandbox: {
            const bool fabric = w.spec.path == Path::Fabric;
            std::optional<Wire> wire;
            if (fabric)
                wire.emplace(loadFabricKey(w.keyPath));
            else
                wire.emplace();
            std::unique_ptr<CampaignJournal> journal;
            const std::string journal_path =
                w.opts.workdir + "/replay.journal";
            if (fabric) {
                auto span = tracer.span(Layer::Journal);
                journal = std::make_unique<CampaignJournal>(
                    journal_path,
                    campaignIdentity(plan.configs, plan.campaign), false);
            }
            for (const auto &[c, t] : plan.units) {
                std::vector<std::uint8_t> request;
                {
                    auto span = tracer.span(Layer::UnitCodec);
                    request = encodeUnitRequest(c, t);
                }
                const std::vector<std::uint8_t> got =
                    wire->ship(request, tracer);
                {
                    auto span = tracer.span(Layer::UnitCodec);
                    if (decodeUnitRequest(got) != std::make_pair(c, t))
                        throw Error("perfbench: request mangled on the wire");
                }
                const TestOutcome outcome = run_unit(c, t);
                std::vector<std::uint8_t> payload;
                {
                    auto span = tracer.span(Layer::UnitCodec);
                    payload = encodeUnitRecord(unitRecord(plan, c, t, outcome));
                }
                const std::vector<std::uint8_t> back =
                    wire->ship(payload, tracer);
                UnitRecord record;
                {
                    auto span = tracer.span(Layer::UnitCodec);
                    record = decodeUnitRecord(back);
                    outcomes[c][t] = record.outcome;
                }
                if (journal) {
                    auto span = tracer.span(Layer::Journal);
                    journal->append(record);
                }
            }
            journal.reset();
            if (fabric)
                run.journalBytes = std::filesystem::file_size(journal_path);
            break;
        }
        case Path::Offline: {
            std::optional<TraceFile> trace;
            {
                auto span = tracer.span(Layer::TraceRead);
                trace.emplace(readTraceFile(w.replayTracePath));
            }
            {
                auto span = tracer.span(Layer::UnitCodec);
                decodeCampaignSpec(trace->header.spec);
            }
            std::map<std::string, std::size_t> by_name;
            for (std::size_t c = 0; c < plan.configs.size(); ++c)
                by_name[plan.configs[c].name()] = c;
            // A unit that fails its re-check keeps an empty (Failed)
            // slot, which the summary and its digest then show.
            for (const TraceRecord &rec : trace->records) {
                UnitRecord unit;
                {
                    auto span = tracer.span(Layer::UnitCodec);
                    unit = decodeUnitRecord(rec.body);
                }
                const auto it = by_name.find(unit.configName);
                if (it == by_name.end() ||
                    unit.testIndex >= plan.tests[it->second].size())
                    continue;
                const std::size_t c = it->second;
                if (recheckUnit(plan.configs[c], plan.flows[c],
                                plan.tests[c][unit.testIndex], unit, tracer,
                                run.counts))
                    outcomes[c][unit.testIndex] = unit.outcome;
            }
            break;
        }
        }
        summaries = summarizeOutcomes(plan, outcomes, tracer);
    }
    run.wallS = secondsSince(t0);
    run.verdict = verdictOf(summaries, plan.units.size());
    run.unitSeconds = tracer.durations(Layer::Unit);
    return run;
}

/**
 * The program's own PhaseProfiler totals over the same units
 * (FlowConfig::profile), run serially like the traced replay. With
 * @p recheck (offline_check) only the re-check counts: each unit's
 * signature stream is produced unprofiled, then put through the
 * checking stage (checkSignatureStream, with checkTrace's threads).
 */
PhaseBreakdown
programProfile(const UnitPlan &plan, bool recheck)
{
    PhaseBreakdown total;
    for (const auto &[c, t] : plan.units) {
        FlowConfig flow = plan.flows[c];
        flow.profile = !recheck;
        flow.keepSignatures = recheck;
        flow.seed = plan.tests[c][t].flowSeed;
        const TestProgram program =
            generateTest(plan.configs[c], plan.tests[c][t].genSeed);
        const FlowResult result = ValidationFlow(flow).runTest(program);
        if (!recheck) {
            total.merge(result.profile);
            continue;
        }
        flow.threads = kWorkers;
        LoadValueAnalysis analysis(program, flow.analysis);
        InstrumentationPlan iplan(program, analysis);
        SignatureCodec codec(program, analysis, iplan);
        PhaseProfiler prof(true);
        FlowResult chk;
        std::vector<bool> verdicts;
        std::vector<std::size_t> decoded;
        checkSignatureStream(program, codec, flow.exec.model, flow,
                             result.signatureStream, prof, chk, verdicts,
                             decoded);
        total.merge(prof.take());
    }
    return total;
}

/** name -> (value, unit), printed in insertion order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, value, unit});
    }

    void
    printTable(std::ostream &out) const
    {
        for (const Entry &e : entries) {
            char line[160];
            std::snprintf(line, sizeof line, "  %-28s %16.6f %s\n",
                          e.name.c_str(), e.value, e.unit.c_str());
            out << line;
        }
    }

    std::string
    json() const
    {
        std::ostringstream out;
        out << '{';
        for (std::size_t i = 0; i < entries.size(); ++i) {
            char value[64];
            std::snprintf(value, sizeof value, "%.17g", entries[i].value);
            out << (i ? ", " : "") << '"' << entries[i].name
                << "\": {\"value\": " << value << ", \"unit\": \""
                << entries[i].unit << "\"}";
        }
        out << '}';
        return out.str();
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries;
};

/** Failed-operation ledger behind `attempted`/`failed`. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    charge(std::size_t units, std::size_t bad, const std::string &why)
    {
        attempted += units;
        failed += bad;
        if (bad)
            problems.push_back(why + ": " + std::to_string(bad) + " of " +
                               std::to_string(units) + " units");
    }

    /** A digest gate: a mismatch fails every unit it covers. */
    void
    gate(std::size_t units, const std::string &got,
         const std::string &want, const std::string &what)
    {
        std::cout << what << ": " << (got == want ? "match " : "MISMATCH ")
                  << got << " vs " << want << "\n";
        if (got != want) {
            failed += units;
            problems.push_back(what + " mismatch");
        }
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
addLayerMetrics(Metrics &m, const LayerTotals &lt, double trace_write_s)
{
    const auto s = [&](Layer l) { return lt.seconds(l); };
    m.add("testgen.generate_s", s(Layer::Generate), "s");
    m.add("core.instrument_s", s(Layer::Instrument), "s");
    m.add("sim.dispatch_s", s(Layer::Dispatch), "s");
    m.add("sim.execute_s", s(Layer::Execute), "s");
    m.add("core.encode_s", s(Layer::Encode), "s");
    m.add("core.perturbation_s", s(Layer::Perturb), "s");
    m.add("core.accumulate_s", s(Layer::Accumulate), "s");
    m.add("core.sort_s", s(Layer::Sort), "s");
    m.add("core.digest_s", s(Layer::Digest), "s");
    m.add("core.decode_s", s(Layer::Decode), "s");
    m.add("graph.ws_infer_s", s(Layer::WsInfer), "s");
    m.add("graph.derive_s", s(Layer::Derive), "s");
    m.add("core.check_s", s(Layer::Check), "s");
    m.add("harness.summarize_s", s(Layer::Summarize), "s");
    m.add("core.trace_write_s", trace_write_s, "s");
    m.add("core.trace_read_s", s(Layer::TraceRead), "s");
    m.add("harness.unit_codec_s", s(Layer::UnitCodec), "s");
    m.add("harness.journal_append_s", s(Layer::Journal), "s");
    m.add("support.framing_s", s(Layer::Framing), "s");
    m.add("support.hmac_s", s(Layer::Hmac), "s");
    m.add("support.transport_s", s(Layer::Transport), "s");
}

int
runBenchmark(const Options &opts, const WorkloadSpec &spec)
{
    std::filesystem::create_directories(opts.workdir);
    Workload w(spec, opts);
    Ledger ledger;
    Metrics metrics;

    const unsigned nproc = std::thread::hardware_concurrency();
    std::cout << "perfbench: workload=" << spec.name << " seed=" << opts.seed
              << " seconds=" << opts.seconds << " trace=" << opts.trace
              << " units=" << w.units() << "\n"
              << "machine: nproc=" << nproc << " workers=" << kWorkers
              << " held_out_seed=" << opts.heldOutSeed << "\n";

    // --- Set-up, repeated; setup_s is the median pass ---------------
    std::vector<double> setups;
    double setup_total = 0.0;
    const int min_setups = opts.trace ? 1 : kSetupRepeats;
    for (int i = 0; i < min_setups ||
         (!opts.trace && i < kSetupMaxRepeats &&
          setup_total < kSetupMinSeconds);
         ++i) {
        const auto t0 = Clock::now();
        w.setup();
        setups.push_back(secondsSince(t0));
        setup_total += setups.back();
    }
    if (spec.path == Path::Offline)
        ledger.charge(w.units(), w.producer.badUnits, "trace producer");

    // --- Timed calls, tracing off ------------------------------------
    std::vector<double> walls, cpus, rates, peaks;
    Verdict first;
    const int min_calls = opts.trace ? kTracedRefCalls : kMinCalls;
    const auto window = Clock::now();
    for (int n = 0;; ++n) {
        if (n >= min_calls &&
            (opts.trace || secondsSince(window) >= opts.seconds))
            break;
        resetPeakRss();
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        const Verdict v = w.call();
        const double wall = secondsSince(t0);
        cpus.push_back(cpuSeconds() - cpu0);
        peaks.push_back(selfPeakRssMb());
        walls.push_back(wall);
        rates.push_back(static_cast<double>(w.units()) / wall);
        ledger.charge(w.units(), v.badUnits, "timed call");
        if (n == 0) {
            first = v;
            std::cout << v.report;
        } else if (v.digest != first.digest) {
            ledger.gate(w.units(), v.digest, first.digest,
                        "repeat vs first digest");
        }
    }
    // The larger of the campaign process's per-call peak (median over
    // calls) and the largest child's peak. A forked child's RSS already
    // holds the pages it shares with the parent, so they are not added.
    const double peak_rss = std::max(median(peaks), childPeakRssMb());
    std::cout << "timed calls: " << walls.size() << " wall_s median "
              << median(walls) << " min "
              << *std::min_element(walls.begin(), walls.end()) << " max "
              << *std::max_element(walls.begin(), walls.end())
              << "; set-up passes: " << setups.size() << "\n";

    // --- Correctness gates --------------------------------------------
    const auto golden = [&]() {
        if (!opts.golden.empty())
            ledger.gate(w.units(), first.digest, opts.golden,
                        "campaign vs golden digest");
    };

    if (!opts.trace) {
        if (spec.path == Path::Offline) {
            ledger.gate(w.units(), first.digest, w.producer.digest,
                        "check vs producer digest");
        } else {
            const Verdict replay = parallelReplay(w.plan);
            ledger.charge(w.units(), replay.badUnits, "replay");
            ledger.gate(w.units(), first.digest, replay.digest,
                        "campaign vs replay digest");
        }
        golden();
        metrics.add("units_per_s", median(rates), "1/s");
        metrics.add("cpu_s", median(cpus), "s");
        metrics.add("peak_rss_mb", peak_rss, "MB");
        metrics.add("setup_s", median(setups), "s");
    } else {
        golden();
        const double e2e_s = median(walls);
        double twin_s = 0.0;
        if (spec.path == Path::Fabric || spec.path == Path::Sandbox) {
            std::vector<double> twin_walls;
            for (int i = 0; i < kTracedRefCalls; ++i) {
                const auto t0 = Clock::now();
                const Verdict v = w.inProcessTwin();
                twin_walls.push_back(secondsSince(t0));
                ledger.gate(w.units(), v.digest, first.digest,
                            "in-process twin vs campaign digest");
            }
            twin_s = median(twin_walls);
        }

        const PhaseBreakdown prof =
            programProfile(w.plan, spec.path == Path::Offline);
        // offline_check's trace dump is set-up: only the dump is timed,
        // and the replays below start at the trace read.
        const double trace_write_s =
            spec.path == Path::Offline ? dumpReplayTrace(w) : 0.0;

        Tracer off(false);
        const ReplayRun untraced = serialReplay(w, off);
        Tracer tracer(true);
        const ReplayRun traced = serialReplay(w, tracer);
        ledger.charge(w.units(), traced.verdict.badUnits, "traced replay");
        ledger.gate(w.units(), traced.verdict.digest,
                    spec.path == Path::Offline ? w.producer.digest
                                               : first.digest,
                    "traced replay vs campaign digest");
        ledger.gate(w.units(), untraced.verdict.digest,
                    traced.verdict.digest, "untraced vs traced replay digest");

        const LayerTotals lt = tracer.totals();
        double attributed = 0.0;
        for (std::size_t i = 0; i < kLayerCount; ++i) {
            if (!structural(static_cast<Layer>(i)))
                attributed += static_cast<double>(lt.selfNs[i]) / 1e9;
        }
        const ReplayCounts &k = traced.counts;
        const double exec_s = lt.seconds(Layer::Execute);
        const std::vector<double> &us = traced.unitSeconds;
        double mean_unit = 0.0;
        for (double u : us)
            mean_unit += u / static_cast<double>(us.size());
        const double slowest =
            us.empty() ? 0.0 : *std::max_element(us.begin(), us.end());

        addLayerMetrics(metrics, lt, trace_write_s);
        metrics.add("sim.iterations", static_cast<double>(k.iterations),
                    "count");
        metrics.add("sim.ns_per_iter",
                    ratio(exec_s * 1e9, static_cast<double>(k.iterations)),
                    "ns");
        metrics.add("core.dedup_ratio",
                    ratio(static_cast<double>(k.iterations),
                          static_cast<double>(k.uniqueSignatures)),
                    "ratio");
        metrics.add("core.slice_reuse_frac",
                    ratio(static_cast<double>(k.sliceReuses),
                          static_cast<double>(k.sliceReuses + k.sliceDecodes)),
                    "fraction");
        metrics.add("graph.diff_edges", static_cast<double>(k.diffEdges),
                    "count");
        metrics.add("core.check_work", static_cast<double>(k.checkWork),
                    "count");
        metrics.add("core.complete_sort_frac",
                    ratio(static_cast<double>(k.completeSorts),
                          static_cast<double>(k.graphsChecked)),
                    "fraction");
        metrics.add("harness.journal_bytes",
                    static_cast<double>(traced.journalBytes), "bytes");
        metrics.add("dist.fabric_overhead_s",
                    spec.path == Path::Fabric ? e2e_s - twin_s : 0.0, "s");
        metrics.add("harness.sandbox_overhead_s",
                    spec.path == Path::Sandbox ? e2e_s - twin_s : 0.0, "s");
        metrics.add("harness.straggler_ratio", ratio(slowest, mean_unit),
                    "ratio");
        metrics.add("harness.unattributed_s", traced.wallS - attributed, "s");
        metrics.add("trace.replay_s", traced.wallS, "s");
        metrics.add("trace.untraced_replay_s", untraced.wallS, "s");
        metrics.add("trace.overhead_frac",
                    ratio(traced.wallS, untraced.wallS) - 1.0, "fraction");
        metrics.add("trace.e2e_s", e2e_s, "s");
        metrics.add("trace.replay_vs_e2e", ratio(traced.wallS, e2e_s),
                    "ratio");
        const auto phase_s = [&](Phase p) {
            return static_cast<double>(prof.phaseNs(p)) / 1e9;
        };
        metrics.add("profiler.execute_s", phase_s(Phase::Execute), "s");
        metrics.add("profiler.encode_s", phase_s(Phase::Encode), "s");
        metrics.add("profiler.decode_s", phase_s(Phase::Decode), "s");
        metrics.add("profiler.check_s", phase_s(Phase::Check), "s");
        const double coverage = ratio(attributed, traced.wallS);
        std::cout << "coverage: named layers hold " << coverage * 100.0
                  << "% of the traced replay's " << traced.wallS << " s\n";
        if (coverage < 0.95)
            std::cout << "warning: named layers cover under 95% of the "
                         "traced replay\n";
    }

    // A gate failure fails units already attempted.
    ledger.failed = std::min(ledger.failed, ledger.attempted);
    const double fail_frac =
        ratio(static_cast<double>(ledger.failed),
              static_cast<double>(ledger.attempted));
    std::cout << "fail_frac: " << fail_frac << " (" << ledger.failed
              << " of " << ledger.attempted << " unit attempts)\n";
    for (const std::string &p : ledger.problems)
        std::cout << "failure: " << p << "\n";
    std::cout << "metrics:\n";
    metrics.printTable(std::cout);
    std::cout << "{\"correct\": " << (ledger.failed ? "false" : "true")
              << ", \"attempted\": " << ledger.attempted
              << ", \"failed\": " << ledger.failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return ledger.failed ? 3 : 0;
}

std::uint64_t
parseU64(const std::string &flag, const std::string &text)
{
    return parseEnvCount(flag.c_str(), text.c_str(), true);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    try {
        Options opts;
        bool have_trace = false;
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc)
                throw ConfigError(flag + " needs a value");
            const std::string value = argv[++i];
            if (flag == "--workload") {
                opts.workload = value;
            } else if (flag == "--seed") {
                opts.seed = parseU64(flag, value);
            } else if (flag == "--seconds") {
                opts.seconds = static_cast<unsigned>(parseU64(flag, value));
            } else if (flag == "--trace") {
                opts.trace = parseU64(flag, value) != 0;
                have_trace = true;
            } else if (flag == "--workdir") {
                opts.workdir = value;
            } else if (flag == "--golden") {
                opts.golden = value;
            } else if (flag == "--held-out-seed") {
                opts.heldOutSeed = parseU64(flag, value);
            } else {
                throw ConfigError("unknown flag " + flag);
            }
        }
        if (opts.workdir.empty() || !have_trace)
            throw ConfigError("--workdir and --trace are required");
        for (const WorkloadSpec &spec : workloads()) {
            if (opts.workload == spec.name)
                return runBenchmark(opts, spec);
        }
        throw ConfigError("unknown workload '" + opts.workload + "'");
    } catch (const std::exception &err) {
        std::cerr << "campaign_bench: " << err.what() << "\n";
        return 1;
    }
}
