#!/usr/bin/env bash
# Tier-1 CI: build + ctest twice — plain and under ASan+UBSan (the
# MTC_SANITIZE CMake option) — then re-run both suites with the
# parallel engine active (MTC_THREADS=4) so scheduling bugs and
# pool-shutdown races can't hide behind the serial default, then
# scaling- and hotpath-bench smoke runs so the BENCH_*.json emitters
# can't silently rot (the hotpath smoke also proves the lockstep
# engine stays bit-identical to scalar stepping, and the scaling smoke
# that a sharded collective check returns the unsharded verdicts), a
# streaming-check smoke (inline campaign vs its trace re-checked by
# mtc_check), and a kill-and-resume smoke: a journaled campaign is
# SIGKILLed mid-run and resumed, and its summary must match an
# uninterrupted run verbatim.
# The sandbox passes then prove real crash containment end to end: a
# --die-after drill SIGSEGVs a worker mid-campaign and the run must
# finish every other unit and exit with the documented crash code, and
# the kill-and-resume smoke is repeated in sandbox and distributed
# mode. The parity smoke runs one faulted campaign through
# mtc_validate in every execution mode and requires the summary and
# exit code of mtc_coordinator --serial, byte for byte. The
# distributed smoke closes the loop for the TCP fabric: a coordinator
# plus two external workers, one SIGKILLed mid-run, and the summary
# (digests included) must be byte-identical to the serial run. The
# trace round-trip smoke covers the offline split: a --dump-trace
# campaign re-checked by mtc_check must reproduce the inline summary
# byte for byte at 1 and 4 checker threads, and a torn copy of the
# trace must exit with the classified trace-fault code. The stress
# pass last repeats the fork- and socket-heavy suites 20 times under
# 2x core oversubscription.
# Usage: tools/ci.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="${1:-$(nproc)}"

run_suite() {
    local build_dir="$1"; shift
    echo "=== configure ${build_dir} ($*) ==="
    cmake -B "${build_dir}" -S . "$@"
    echo "=== build ${build_dir} ==="
    cmake --build "${build_dir}" -j "${jobs}"
    echo "=== ctest ${build_dir} ==="
    ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

run_suite build -DMTC_SANITIZE=OFF
run_suite build-asan -DMTC_SANITIZE=ON

# Parallel engine pass: campaigns fan (config, test) units across 4
# workers. Results must stay bit-identical to the serial runs above;
# the sanitized pass additionally checks the pool's shutdown/join
# discipline under ASan+UBSan.
echo "=== ctest build (MTC_THREADS=4) ==="
MTC_THREADS=4 ctest --test-dir build --output-on-failure -j "${jobs}"
echo "=== ctest build-asan (MTC_THREADS=4) ==="
MTC_THREADS=4 ctest --test-dir build-asan --output-on-failure -j "${jobs}"

echo "=== bench/scaling --smoke --sandbox --distributed ==="
./build/bench/scaling --smoke --sandbox --distributed
grep -q '"sandbox":' BENCH_scaling.smoke.json
grep -q '"distributed":' BENCH_scaling.smoke.json
grep -q '"trace_check":' BENCH_scaling.smoke.json

# Hot-path smoke at an explicit batch width: the bench exits non-zero
# if the batched and scalar passes diverge (signature-set digests
# included), and the grep guards the JSON field against emitter
# drift. The ASan pass runs the same lockstep engine under
# ASan+UBSan so SoA indexing bugs can't hide in the fast build.
echo "=== bench/hotpath --smoke --batch 8 (plain) ==="
./build/bench/hotpath --smoke --batch 8
grep -q '"deterministic": true' BENCH_hotpath.smoke.json
echo "=== bench/hotpath --smoke --batch 8 (asan) ==="
./build-asan/bench/hotpath --smoke --batch 8
grep -q '"deterministic": true' BENCH_hotpath.smoke.json

# Streaming-check smoke: a faulted campaign through the streaming
# decode→check pipeline (its trace dumped via MTC_DUMP_TRACE), then
# the dumped trace re-checked offline by mtc_check verifying 1 and 4
# units at once. Every campaign line — digests and the
# fault/quarantine accounting included — must be byte-identical, and
# so must the exit codes; this is the inline vs offline bit-identity
# gate end to end, in the plain and sanitized trees. A second leg runs
# a campaign with a real MESI LSQ bug the same way, each run exiting
# 2 with identical campaign lines. (The overlapped decode→check
# pipeline and the barrier oracle are gated by stream_check_test.)
stream_smoke() {
    # $1 tree, $2 tag, $3 the exit code every run must share ("" =
    # any but 1, a config error), the rest the campaign flags.
    local bin_dir="$1" tag="$2" want="$3"; shift 3
    local inline="build/ci_stream_${tag}.inline.txt"
    local offline="build/ci_stream_${tag}.offline.txt"
    local trace="build/ci_stream_${tag}.trace"
    rm -f "${inline}" "${offline}" "${trace}"
    local rc=0
    MTC_DUMP_TRACE="${trace}" "${bin_dir}/tools/mtc_validate" "$@" \
        > "${inline}" || rc=$?
    if [ -n "${want}" ]; then
        [ "${rc}" -eq "${want}" ]
    else
        [ "${rc}" -ne 1 ]
    fi
    local threads offline_rc
    for threads in 1 4; do
        offline_rc=0
        "${bin_dir}/tools/mtc_check" "${trace}" --threads "${threads}" \
            > "${offline}" || offline_rc=$?
        [ "${offline_rc}" -eq "${rc}" ]
        diff <(grep '^campaign' "${inline}") \
             <(grep '^campaign' "${offline}")
    done
    rm -f "${inline}" "${offline}" "${trace}"
}

stream_faulted=(--config ARM-4-100-64 --tests 6 --iterations 1024
                --seed 3 --fault-bitflip 0.01 --fault-truncate 0.005)
# Violating leg: a real LSQ bug on the MESI platform puts cyclic
# graphs and contradicted coherence orders through the incremental
# ws inference and edge derivation.
stream_lsq=(--config x86-4-50-8 --platform mesi --bug lsq
            --bug-prob 0.5 --tests 4 --iterations 1024 --seed 3)
echo "=== streaming-check smoke (plain) ==="
stream_smoke ./build plain "" "${stream_faulted[@]}"
stream_smoke ./build plain 2 "${stream_lsq[@]}"
echo "=== streaming-check smoke (asan) ==="
stream_smoke ./build-asan asan "" "${stream_faulted[@]}"
stream_smoke ./build-asan asan 2 "${stream_lsq[@]}"

# Kill-and-resume smoke: run a journaled campaign, SIGKILL it mid-run
# (tearing whatever record was in flight), resume from the journal,
# and require the resumed summary to match an uninterrupted run line
# for line — exit code included. Fault injection is on so the
# quarantine/confirmation stats are part of the comparison; the
# verdict exit codes (2 violation / 3 corruption-only) are expected
# outcomes, a config error (1) is not.
resume_smoke() {
    local bin="$1" tag="$2" kill_after="$3"; shift 3
    local extra=("$@")
    local j="build/ci_resume_${tag}.journal"
    local base="build/ci_resume_${tag}.base.txt"
    local resumed="build/ci_resume_${tag}.resumed.txt"
    local args=(--config x86-4-100-64 --tests 16 --iterations 2048
                --seed 7 --fault-bitflip 0.005 "${extra[@]}")
    rm -f "${j}" "${base}" "${resumed}"
    local base_rc=0 resume_rc=0
    "${bin}" "${args[@]}" > "${base}" || base_rc=$?
    [ "${base_rc}" -ne 1 ]
    timeout -s KILL "${kill_after}" \
        "${bin}" "${args[@]}" --journal "${j}" > /dev/null || true
    "${bin}" "${args[@]}" --journal "${j}" --resume \
        > "${resumed}" || resume_rc=$?
    [ "${resume_rc}" -eq "${base_rc}" ]
    grep -Eq "^resume: [0-9]+ completed tests replayed" "${resumed}"
    diff <(grep -E "^campaign|fault summary" "${base}") \
         <(grep -E "^campaign|fault summary" "${resumed}")
    rm -f "${j}" "${base}" "${resumed}"
}

echo "=== kill-and-resume smoke (plain) ==="
resume_smoke ./build/tools/mtc_validate plain 2
echo "=== kill-and-resume smoke (asan) ==="
resume_smoke ./build-asan/tools/mtc_validate asan 4

# Sandbox kill-and-resume: same contract with every unit executed in a
# forked worker (the baseline for the summary diff is the in-process
# run above being bit-identical is already covered by sandbox_test, so
# here the sandboxed run is its own baseline and the resumed summary
# must match it). The ASan pass exercises the MTC_SANITIZE_BUILD
# rlimit gating: --sandbox-mem-mb must warn-and-skip, not break.
echo "=== kill-and-resume smoke (sandbox, plain) ==="
resume_smoke ./build/tools/mtc_validate sbx 2 --sandbox --threads 2
echo "=== kill-and-resume smoke (sandbox, asan) ==="
resume_smoke ./build-asan/tools/mtc_validate sbx_asan 4 \
    --sandbox --threads 2 --sandbox-mem-mb 2048

# Distributed kill-and-resume: mtc_validate is the fabric's coordinator
# and the journal's only writer. The SIGKILL lands on it; PDEATHSIG
# ends its loopback fleet, the resume brings up a fresh one, and the
# resumed summary must match the uninterrupted distributed run.
echo "=== kill-and-resume smoke (distributed, plain) ==="
resume_smoke ./build/tools/mtc_validate dist 1 --distributed 2
echo "=== kill-and-resume smoke (distributed, asan) ==="
resume_smoke ./build-asan/tools/mtc_validate dist_asan 4 --distributed 2

# Containment smoke: a --die-after drill raises a REAL SIGSEGV in a
# worker mid-campaign. The campaign must survive it, complete every
# test (the respawned worker retries the killed unit, so 6 of 6 tests
# with failed=0), report the lost worker with its waitpid
# classification and the child's crash report, and exit with the
# documented platform-crash code 4.
containment_smoke() {
    local bin="$1" tag="$2"
    local out="build/ci_contain_${tag}.txt"
    local rc=0
    "${bin}" --config x86-2-50-32 --tests 6 --iterations 256 --seed 11 \
        --sandbox --threads 2 --die-after 40 --crash-retries 1 \
        > "${out}" 2>&1 || rc=$?
    [ "${rc}" -eq 4 ]
    grep -Eq "^campaign summary: x86-2-50-32 tests=6 .* failed=0 " \
        "${out}"
    grep -q "lost its worker" "${out}"
    grep -qF "lost its worker (death 1): worker killed by signal 11 (SIGSEGV); report: crash signal=11 (SIGSEGV) unit=x86-2-50-32#0" "${out}"
    grep -q "^platform crashes: 1$" "${out}"
    rm -f "${out}"
}

echo "=== crash-containment smoke (plain) ==="
containment_smoke ./build/tools/mtc_validate plain
echo "=== crash-containment smoke (asan) ==="
containment_smoke ./build-asan/tools/mtc_validate asan

# Front-end parity smoke: both campaign CLIs are flag layers over one
# engine (runCampaign), so the same faulted campaign must print the
# same `campaign` lines and exit with the same code whichever front
# end runs it and however its units are spread: mtc_validate in
# process at 1 and 4 threads, on 2 sandbox workers and on a 2-worker
# loopback fabric, each byte-compared against mtc_coordinator
# --serial. The platform-deadlock example (PUTX/GETX race on the MESI
# platform) must exit with the crash code 4, not as a violation.
parity_smoke() {
    local bin_dir="$1" tag="$2"
    local validate="${bin_dir}/tools/mtc_validate"
    local base="build/ci_parity_${tag}.base.txt"
    local out="build/ci_parity_${tag}.out.txt"
    local args=(--config x86-2-50-32 --tests 6 --iterations 1024
                --seed 5 --fault-bitflip 0.01 --fault-drop 0.01)
    rm -f "${base}" "${out}"
    local base_rc=0
    "${bin_dir}/tools/mtc_coordinator" "${args[@]}" --serial \
        > "${base}" || base_rc=$?
    [ "${base_rc}" -ne 1 ]
    local mode
    for mode in "--threads 1" "--threads 4" "--sandbox --threads 2" \
                "--distributed 2"; do
        local rc=0
        # shellcheck disable=SC2086 # the mode is a flag list
        "${validate}" "${args[@]}" ${mode} > "${out}" 2> /dev/null \
            || rc=$?
        [ "${rc}" -eq "${base_rc}" ]
        diff <(grep '^campaign' "${base}") <(grep '^campaign' "${out}")
    done
    local deadlock_rc=0
    "${validate}" --config x86-4-50-64 --platform mesi --bug putx \
        --bug-prob 1.0 --cache-lines 2 --tests 2 --iterations 64 \
        > "${out}" 2> /dev/null || deadlock_rc=$?
    [ "${deadlock_rc}" -eq 4 ]
    rm -f "${base}" "${out}"
}

echo "=== front-end parity smoke (plain) ==="
parity_smoke ./build plain
echo "=== front-end parity smoke (asan) ==="
parity_smoke ./build-asan asan

# Distributed-fabric smoke: the same campaign once serial in-process
# (mtc_coordinator --serial) and once served over the TCP fabric to
# two external mtc_worker processes, one of which is SIGKILLed
# mid-run so its leased units are reassigned to the survivor. Exit
# codes must match and every `campaign ...` summary line — the
# per-config digests and the campaign digest included — must be
# byte-identical: the bit-identity gate, end to end, across a real
# worker death.
dist_smoke() {
    local bin_dir="$1" tag="$2"
    local coord="${bin_dir}/tools/mtc_coordinator"
    local worker="${bin_dir}/tools/mtc_worker"
    local base="build/ci_dist_${tag}.base.txt"
    local distd="build/ci_dist_${tag}.dist.txt"
    local disterr="build/ci_dist_${tag}.dist.err"
    local pf="build/ci_dist_${tag}.port"
    # Units heavy enough (8192 iterations) that the fleet is still
    # mid-campaign when the kill below lands, even on a fast machine.
    local args=(--config x86-2-50-32 --config ARM-2-50-32 --tests 6
                --iterations 8192 --seed 13)
    rm -f "${base}" "${distd}" "${disterr}" "${pf}"
    local base_rc=0 dist_rc=0
    "${coord}" "${args[@]}" --serial > "${base}" || base_rc=$?
    [ "${base_rc}" -ne 1 ]
    # No loopback fleet (--workers 0): the coordinator waits for the
    # external workers below, exactly the multi-host attach flow.
    timeout -s KILL 300 \
        "${coord}" "${args[@]}" --workers 0 --port-file "${pf}" \
        > "${distd}" 2> "${disterr}" &
    local coord_pid=$!
    for _ in $(seq 1 100); do [ -s "${pf}" ] && break; sleep 0.1; done
    [ -s "${pf}" ]
    local port
    port="$(cat "${pf}")"
    # The doomed worker is slow (200ms/unit), so the units it holds
    # leases on at kill time are guaranteed still unreported.
    "${worker}" --connect "127.0.0.1:${port}" --name doomed \
        --unit-delay-ms 200 > /dev/null 2>&1 &
    local doomed_pid=$!
    "${worker}" --connect "127.0.0.1:${port}" --name steady \
        > /dev/null 2>&1 &
    local steady_pid=$!
    sleep 0.5
    kill -9 "${doomed_pid}" 2> /dev/null || true
    wait "${coord_pid}" || dist_rc=$?
    wait "${steady_pid}" 2> /dev/null || true
    wait "${doomed_pid}" 2> /dev/null || true
    [ "${dist_rc}" -eq "${base_rc}" ]
    # The kill must have been observed as a mid-campaign worker loss,
    # and the merged summary must still match serial byte for byte.
    grep -q "lost worker 'doomed'" "${disterr}"
    diff <(grep '^campaign' "${base}") <(grep '^campaign' "${distd}")
    rm -f "${base}" "${distd}" "${disterr}" "${pf}"
}

echo "=== distributed-fabric smoke (plain) ==="
dist_smoke ./build plain
echo "=== distributed-fabric smoke (asan) ==="
dist_smoke ./build-asan asan

# Trace round-trip smoke: the offline-checking gate. A faulted
# campaign runs once with --dump-trace, then mtc_check re-checks the
# trace standalone at 1 and 4 threads, and every `campaign` summary
# line — per-config digests and the campaign digest included — must
# be byte-identical to the inline run, with matching exit codes. A
# truncated copy of the same trace must then land on the documented
# trace-fault code 7 with the same classified diagnostics at 1 and 4
# threads, never a crash.
trace_smoke() {
    local bin_dir="$1" tag="$2"
    local coord="${bin_dir}/tools/mtc_coordinator"
    local check="${bin_dir}/tools/mtc_check"
    local trace="build/ci_trace_${tag}.trace"
    local dist_trace="build/ci_trace_${tag}.dist.trace"
    local torn="build/ci_trace_${tag}.torn.trace"
    local inline_out="build/ci_trace_${tag}.inline.txt"
    local dist_out="build/ci_trace_${tag}.distrun.txt"
    local check_out="build/ci_trace_${tag}.check.txt"
    local torn_out="build/ci_trace_${tag}.torn.txt"
    local torn_err="build/ci_trace_${tag}.torn.err"
    local torn_err4="build/ci_trace_${tag}.torn4.err"
    local args=(--config x86-2-50-32 --config ARM-2-50-32 --tests 4
                --iterations 1024 --seed 23 --fault-bitflip 0.01)
    rm -f "${trace}" "${dist_trace}" "${torn}" "${inline_out}" \
        "${dist_out}" "${check_out}" "${torn_out}" "${torn_err}" \
        "${torn_err4}"
    local inline_rc=0 dist_rc=0 torn_rc=0 torn4_rc=0
    "${coord}" "${args[@]}" --serial --dump-trace "${trace}" \
        > "${inline_out}" || inline_rc=$?
    [ "${inline_rc}" -ne 1 ]
    # The distributed producer (2 loopback workers, units reported out
    # of order) must dump a trace whose offline check still lands on
    # the very same summary lines as the serial inline run.
    "${coord}" "${args[@]}" --workers 2 --dump-trace "${dist_trace}" \
        > "${dist_out}" 2> /dev/null || dist_rc=$?
    [ "${dist_rc}" -eq "${inline_rc}" ]
    # Both traces, checked one unit at a time and 4 units at once.
    local t threads
    for t in "${trace}" "${dist_trace}"; do
        for threads in 1 4; do
            local check_rc=0
            "${check}" "${t}" --threads "${threads}" > "${check_out}" \
                || check_rc=$?
            [ "${check_rc}" -eq "${inline_rc}" ]
            diff <(grep '^campaign' "${inline_out}") \
                 <(grep '^campaign' "${check_out}")
        done
    done
    # Tear off the trace tail: the checker must recover the longest
    # intact prefix, report the loss as a classified fault, and exit
    # with the trace-fault code — crashing or hanging fails the gate —
    # with the same diagnostics at any thread count.
    head -c "$(($(stat -c %s "${trace}") * 3 / 5))" "${trace}" \
        > "${torn}"
    "${check}" "${torn}" --threads 1 > "${torn_out}" 2> "${torn_err}" \
        || torn_rc=$?
    [ "${torn_rc}" -eq 7 ]
    grep -q "trace fault \[truncated\]" "${torn_err}"
    grep -q "^trace check:" "${torn_out}"
    "${check}" "${torn}" --threads 4 > /dev/null 2> "${torn_err4}" \
        || torn4_rc=$?
    [ "${torn4_rc}" -eq 7 ]
    diff <(grep 'trace fault' "${torn_err}") \
         <(grep 'trace fault' "${torn_err4}")
    rm -f "${trace}" "${dist_trace}" "${torn}" "${inline_out}" \
        "${dist_out}" "${check_out}" "${torn_out}" "${torn_err}" \
        "${torn_err4}"
}

echo "=== trace round-trip smoke (plain) ==="
trace_smoke ./build plain
echo "=== trace round-trip smoke (asan) ==="
trace_smoke ./build-asan asan

# Chaos smoke: the hardened-fabric gate. A keyed coordinator drives a
# 3-worker loopback fleet through seeded network faults (drops,
# duplicates, corruption) with a 100% Byzantine audit, while the last
# worker silently corrupts every result it sends. The campaign must
# finish, quarantine exactly the corrupt worker, and land on
# `campaign` summary lines byte-identical to the serial run — faults
# and lies may cost time, never bits. A wrong-key worker attaching
# mid-run must be turned away before any lease (fatal exit 3).
chaos_smoke() {
    local bin_dir="$1" tag="$2"
    local coord="${bin_dir}/tools/mtc_coordinator"
    local worker="${bin_dir}/tools/mtc_worker"
    local base="build/ci_chaos_${tag}.base.txt"
    local distd="build/ci_chaos_${tag}.dist.txt"
    local disterr="build/ci_chaos_${tag}.dist.err"
    local wkey="build/ci_chaos_${tag}.wrong.out"
    local pf="build/ci_chaos_${tag}.port"
    local key="build/ci_chaos_${tag}.key"
    local badkey="build/ci_chaos_${tag}.badkey"
    local args=(--config x86-2-50-32 --config ARM-2-50-32 --tests 4
                --iterations 2048 --seed 17)
    rm -f "${base}" "${distd}" "${disterr}" "${wkey}" "${pf}" \
        "${key}" "${badkey}"
    head -c 32 /dev/urandom | base64 > "${key}"
    head -c 32 /dev/urandom | base64 > "${badkey}"
    local base_rc=0 dist_rc=0 wrong_rc=0
    "${coord}" "${args[@]}" --serial > "${base}" || base_rc=$?
    [ "${base_rc}" -ne 1 ]
    timeout -s KILL 300 \
        "${coord}" "${args[@]}" --workers 3 --port-file "${pf}" \
        --fabric-key-file "${key}" --audit-rate 1.0 \
        --drill-corrupt-results \
        --net-fault-drop 0.03 --net-fault-dup 0.03 \
        --net-fault-corrupt 0.02 --net-fault-seed 7 \
        > "${distd}" 2> "${disterr}" &
    local coord_pid=$!
    for _ in $(seq 1 100); do [ -s "${pf}" ] && break; sleep 0.1; done
    [ -s "${pf}" ]
    local port
    port="$(cat "${pf}")"
    # An impostor with the wrong key must fail the mutual proof and
    # exit fatally — without ever seeing a lease or the campaign spec.
    "${worker}" --connect "127.0.0.1:${port}" --name impostor \
        --fabric-key-file "${badkey}" > "${wkey}" 2>&1 || wrong_rc=$?
    [ "${wrong_rc}" -eq 3 ]
    grep -q "key proof" "${wkey}"
    wait "${coord_pid}" || dist_rc=$?
    [ "${dist_rc}" -eq "${base_rc}" ]
    # The corrupt worker (the fleet's last, loop-2) must have been
    # caught by the audit and quarantined...
    grep -q "quarantining worker 'loop-2'" "${disterr}"
    grep -Eq "fabric byzantine: .*quarantined=loop-2" "${distd}"
    # ...and the summary must not have moved by a bit.
    diff <(grep '^campaign' "${base}") <(grep '^campaign' "${distd}")
    rm -f "${base}" "${distd}" "${disterr}" "${wkey}" "${pf}" \
        "${key}" "${badkey}"
}

echo "=== chaos smoke: faults + Byzantine quarantine (plain) ==="
chaos_smoke ./build plain
echo "=== chaos smoke: faults + Byzantine quarantine (asan) ==="
chaos_smoke ./build-asan asan

# Stress pass: the fork- and socket-heavy suites repeated 20 times
# while busy loops oversubscribe every core 2x, so a test that waits
# on elapsed time where it means to wait on an event fails here
# instead of once in a while in tier-1. The script starts and stops
# its own load; it touches no other process.
stress_pass() {
    local loads=() rc=0 t
    for _ in $(seq 1 $((2 * $(nproc)))); do
        (while :; do :; done) &
        loads+=("$!")
    done
    for t in dist_test checkpoint_resume_test sandbox_test \
             trace_check_test; do
        ./build/tests/"${t}" --gtest_repeat=20 --gtest_brief=1 \
            > "build/ci_stress_${t}.txt" 2>&1 &
    done
    for t in dist_test checkpoint_resume_test sandbox_test \
             trace_check_test; do
        wait -n || rc=$?
    done
    kill "${loads[@]}"
    wait "${loads[@]}" 2> /dev/null || true
    if [ "${rc}" -ne 0 ]; then
        grep -h -B2 -A20 "FAILED\|Failure" build/ci_stress_*.txt || true
        return 1
    fi
    rm -f build/ci_stress_*.txt
}

echo "=== stress pass: 20 repeats under 2x oversubscription ==="
stress_pass

echo "=== CI OK: plain, sanitized, parallel, resume, sandbox, parity, distributed, trace, chaos and stress suites all green ==="
