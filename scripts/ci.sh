#!/usr/bin/env bash
# Tier-1 gate plus lint: what every PR must keep green.
#
#   no tracked out/                 — generated frames, traces and figures
#       under out/ are gitignored; the leg fails if `git ls-files out`
#       lists anything, so regenerated artifacts cannot creep back in
#   cargo fmt --all -- --check      — formatting is canonical
#   cargo build --release           — workspace builds clean
#   cargo test --workspace -q (threads 1 and 4) — every test of every
#       workspace crate (a superset of the tier-1 root-package tests),
#       exercised serial and with the partition-parallel executor
#       enabled so both code paths stay equivalent
#   perfbench self-tests            — the interaction benchmark's own
#       tests (it is a separate cargo project, perfbench/Cargo.toml)
#   cargo clippy --all-targets -D warnings — workspace-wide lint of
#       every target (libraries, binaries, tests, benches, examples),
#       warnings are errors
#   cargo bench obs_overhead        — observability + governance budgets:
#       disabled recorder path < 2% of a warm render, recording +
#       per-operator attribution < 5% and armed budget checks < 2% of a
#       cold Figure 1 demand (asserts inside)
#   chaos leg                       — deterministic fault injection
#       (tests/chaos.rs), once unarmed and once with TIOGA2_FAULTS set so
#       the env-resolved global fault plan path is exercised too
#   kill-and-recover leg            — crash sessions at random fault
#       sites and rebuild them from the event journal alone
#       (tests/kill_recover.rs): byte-identical canvases, demand
#       results, and catalog at 1, 2, and 8 recovery workers
#   delta-equivalence leg           — property tests that a committed
#       tuple edit propagated as a delta (tests/delta_equivalence.rs)
#       leaves every cache byte-identical to recompute-from-scratch,
#       run serial and with the parallel executor, with chaos faults
#       injected mid-delta
#   governed leg                    — the whole root test suite under a
#       generous TIOGA2_BUDGET: governance checkpoints run everywhere and
#       must never trip on healthy workloads
#   example self_monitor            — the self-hosted sys.* pipeline
#       headless; exits non-zero if the latency canvas renders empty
#   fleet chaos leg                 — network-fault injection against a
#       live tiogad (tests/fleet_chaos.rs): torn frames, dropped
#       connections, stalled replies, and fsync faults, each followed by
#       a kill + restart that must recover byte-identically with
#       exactly-once retry semantics; run serial and with the parallel
#       executor
#   tiogad smoke leg                — start the multi-session daemon on
#       an ephemeral port with fleet telemetry, a journal, and an armed
#       slowlog; drive a scripted client session end-to-end over the
#       wire protocol (build + demand + save), scrape GET /metrics over
#       a raw TCP socket (no curl in the image) and assert the daemon
#       and per-tenant fleet metric families are present, assert the
#       session journal carries non-zero request IDs on its demand
#       events, then stop the daemon with the shutdown verb and assert
#       a clean exit
#   kill-and-restart smoke leg      — start tiogad with a journal and
#       fsync-on-commit, build a session over the wire, SIGKILL the
#       daemon mid-flight, restart it on the same journal directory
#       (the dead pid's lockfile must be reclaimed), and assert the
#       recovered session replays byte-identical demand output; then
#       SIGTERM the successor and assert it drains and exits 0
#   figures + out/BENCH_figures.json — regenerate every paper figure
#       (includes the A8 crash/recover/diff of journal recovery, which
#       arms its own fault plan and fails on any differing pixel, the
#       A9 tiogad scaling ablation with its shared-snapshot memory
#       proof, the A11 fleet-telemetry overhead gate, and the A12
#       fleet-recovery scaling + fsync-on-commit <5% overhead gate) and
#       check the emitted JSON is non-empty and carries every A-section
#       measurement key
#
# Run from the repository root:  ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TRACKED_OUT=$(git ls-files out)
[ -z "$TRACKED_OUT" ] || { echo "ci: generated files under out/ are tracked by git:" >&2; echo "$TRACKED_OUT" >&2; exit 1; }
cargo fmt --all -- --check
cargo build --release
TIOGA2_THREADS=1 cargo test --workspace -q
TIOGA2_THREADS=4 cargo test --workspace -q
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets -- -D warnings
cargo bench -p tioga2-bench --bench obs_overhead
cargo test -q --test chaos
TIOGA2_FAULTS='scan:0=err' cargo test -q --test chaos env_fault_plan
cargo test -q --test kill_recover
TIOGA2_THREADS=1 cargo test -q --test fleet_chaos
TIOGA2_THREADS=4 cargo test -q --test fleet_chaos
TIOGA2_THREADS=1 cargo test -q --test delta_equivalence
TIOGA2_THREADS=4 cargo test -q --test delta_equivalence
TIOGA2_BUDGET='rows=50000000,ms=600000' cargo test -q
cargo run --release --example self_monitor

# tiogad smoke: daemon on an ephemeral port with telemetry + journal +
# armed slowlog, one scripted session, a /metrics scrape, clean shutdown.
rm -f /tmp/tiogad_ci_port /tmp/tiogad_ci_mport
rm -rf /tmp/tiogad_ci_journal
cargo run --release -p tioga2-server --bin tiogad -- \
    --addr 127.0.0.1:0 --port-file /tmp/tiogad_ci_port \
    --metrics-addr 127.0.0.1:0 --metrics-port-file /tmp/tiogad_ci_mport \
    --journal-dir /tmp/tiogad_ci_journal --slowlog 0 \
    --stations 60 --obs-per-station 4 > /tmp/tiogad_ci_log 2>&1 &
TIOGAD_PID=$!
for _ in $(seq 1 100); do [ -s /tmp/tiogad_ci_port ] && break; sleep 0.1; done
[ -s /tmp/tiogad_ci_port ] || { echo "ci: tiogad never wrote its port file" >&2; cat /tmp/tiogad_ci_log >&2; exit 1; }
PORT=$(cat /tmp/tiogad_ci_port)
[ -s /tmp/tiogad_ci_mport ] || { echo "ci: tiogad never wrote its metrics port file" >&2; cat /tmp/tiogad_ci_log >&2; exit 1; }
MPORT=$(cat /tmp/tiogad_ci_mport)
# Capture the whole scripted session before grepping: `grep -q` on the
# live pipe would close it at the first match and cut the session short.
printf "table Stations\nrestrict 0 state = 'LA'\nshow 1 3\nsave smoke\nprograms\nstats\nquit\n" \
    | cargo run --release -q -p tioga2-server --bin tioga2-client -- \
        --addr "127.0.0.1:$PORT" --session ci-smoke > /tmp/tiogad_ci_out
grep -q "tuples" /tmp/tiogad_ci_out || { echo "ci: tiogad smoke session produced no demand output" >&2; kill $TIOGAD_PID; exit 1; }
grep -q "saved 'smoke'" /tmp/tiogad_ci_out || { echo "ci: tiogad smoke session did not save its program" >&2; kill $TIOGAD_PID; exit 1; }
# Scrape GET /metrics over a raw TCP socket (the image has no curl) and
# assert both the daemon gauges and the per-tenant fleet families.
exec 3<>"/dev/tcp/127.0.0.1/$MPORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
cat <&3 > /tmp/tiogad_ci_metrics
exec 3<&- 3>&-
grep -q "HTTP/1.0 200 OK" /tmp/tiogad_ci_metrics || { echo "ci: /metrics scrape did not return 200" >&2; kill $TIOGAD_PID; exit 1; }
for fam in tioga2_daemon_uptime_seconds tioga2_daemon_attaches_total \
           tioga2_fleet_demand_latency_ns_bucket tioga2_fleet_demand_latency_ns_count; do
    grep -q "$fam" /tmp/tiogad_ci_metrics \
        || { echo "ci: /metrics scrape is missing the '$fam' family" >&2; kill $TIOGAD_PID; exit 1; }
done
grep -q 'tenant="' /tmp/tiogad_ci_metrics || { echo "ci: /metrics fleet series carry no tenant label" >&2; kill $TIOGAD_PID; exit 1; }
# Request-ID round-trip: the session journal's demand events must carry
# the client frames' non-zero request IDs.
grep -rq '"req":[1-9]' /tmp/tiogad_ci_journal || { echo "ci: session journal has no non-zero request IDs on demand events" >&2; kill $TIOGAD_PID; exit 1; }
echo shutdown | cargo run --release -q -p tioga2-server --bin tioga2-client -- --addr "127.0.0.1:$PORT"
wait $TIOGAD_PID || { echo "ci: tiogad exited non-zero" >&2; exit 1; }
grep -q "clean shutdown" /tmp/tiogad_ci_log || { echo "ci: tiogad did not shut down cleanly" >&2; cat /tmp/tiogad_ci_log >&2; exit 1; }

# Kill-and-restart smoke: SIGKILL a journaled fsync-on-commit daemon
# mid-flight, restart it on the same journal dir, and demand the
# recovered session byte-for-byte; then drain the successor via SIGTERM.
rm -f /tmp/tiogad_ci_kr_port
rm -rf /tmp/tiogad_ci_kr_journal
# The daemon is exec'd directly (not via `cargo run`, whose wrapper
# process would absorb the SIGKILL and leave the real daemon running —
# and holding the journal lock).
./target/release/tiogad \
    --addr 127.0.0.1:0 --port-file /tmp/tiogad_ci_kr_port \
    --journal-dir /tmp/tiogad_ci_kr_journal --fsync \
    --stations 60 --obs-per-station 4 > /tmp/tiogad_ci_kr_log 2>&1 &
KR_PID=$!
for _ in $(seq 1 100); do [ -s /tmp/tiogad_ci_kr_port ] && break; sleep 0.1; done
[ -s /tmp/tiogad_ci_kr_port ] || { echo "ci: kill-restart tiogad never wrote its port file" >&2; cat /tmp/tiogad_ci_kr_log >&2; exit 1; }
KR_PORT=$(cat /tmp/tiogad_ci_kr_port)
printf "table Stations\nrestrict 0 state = 'LA'\nquit\n" \
    | ./target/release/tioga2-client \
        --addr "127.0.0.1:$KR_PORT" --session kr-smoke > /dev/null
printf "show 1 3\nquit\n" \
    | ./target/release/tioga2-client \
        --addr "127.0.0.1:$KR_PORT" --session kr-smoke > /tmp/tiogad_ci_kr_before
grep -q "tuples" /tmp/tiogad_ci_kr_before || { echo "ci: kill-restart session produced no demand output" >&2; kill $KR_PID; exit 1; }
kill -9 $KR_PID
wait $KR_PID 2>/dev/null || true   # reap: the lockfile's pid must be dead before restart
./target/release/tiogad \
    --addr "127.0.0.1:$KR_PORT" \
    --journal-dir /tmp/tiogad_ci_kr_journal --fsync \
    --stations 60 --obs-per-station 4 > /tmp/tiogad_ci_kr_log2 2>&1 &
KR2_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening" /tmp/tiogad_ci_kr_log2 2>/dev/null && break; sleep 0.1
done
printf "show 1 3\nquit\n" \
    | ./target/release/tioga2-client \
        --addr "127.0.0.1:$KR_PORT" --session kr-smoke > /tmp/tiogad_ci_kr_after
diff /tmp/tiogad_ci_kr_before /tmp/tiogad_ci_kr_after \
    || { echo "ci: session 'kr-smoke' did not recover byte-identically after SIGKILL + restart" >&2; kill $KR2_PID; exit 1; }
kill -TERM $KR2_PID
wait $KR2_PID || { echo "ci: tiogad exited non-zero after SIGTERM drain" >&2; cat /tmp/tiogad_ci_kr_log2 >&2; exit 1; }
grep -q "SIGTERM, draining" /tmp/tiogad_ci_kr_log2 || { echo "ci: tiogad never reported the SIGTERM drain" >&2; cat /tmp/tiogad_ci_kr_log2 >&2; exit 1; }
grep -q "clean shutdown" /tmp/tiogad_ci_kr_log2 || { echo "ci: drained tiogad did not shut down cleanly" >&2; cat /tmp/tiogad_ci_kr_log2 >&2; exit 1; }

cargo run --release -p tioga2-bench --bin figures
test -s out/BENCH_figures.json || { echo "ci: out/BENCH_figures.json is missing or empty" >&2; exit 1; }
for key in a5_plan_pushdown a6_parallel_scaling_t1 a6_parallel_scaling_t2 \
           a6_parallel_scaling_t4 a7_self_monitoring a8_journal_recovery \
           a9_server_scaling_s1 a9_server_scaling_s4 a9_server_scaling_s16 \
           a9_server_scaling_s64 \
           a10_edit_delta_1k a10_edit_invalidate_1k \
           a10_edit_delta_10k a10_edit_invalidate_10k \
           a10_edit_delta_100k a10_edit_invalidate_100k \
           a11_telemetry_on a11_telemetry_off \
           a12_recovery_1sessions a12_recovery_4sessions \
           a12_recovery_16sessions a12_recovery_64sessions \
           a12_fsync_off a12_fsync_on; do
    grep -q "\"$key\"" out/BENCH_figures.json \
        || { echo "ci: out/BENCH_figures.json is missing '$key'" >&2; exit 1; }
done

echo "ci: no tracked out/ + fmt + build + workspace tests (1 and 4 workers) + perfbench tests + clippy + budgets + chaos + kill-recover + fleet-chaos + governed suite + self-monitor + tiogad smoke + kill-restart smoke + figures all green"
