#!/bin/sh
# --idle-exit-ms counts wall time since the last byte read, not waits:
# with --idle-exit-ms 1500 --interval-ms 1000, and the trace's mtime
# bumped every 100 ms without new bytes (`touch -m` raises the same
# change notification an append does), lima_monitor must not exit
# before 1.5 s, and must exit by 1.9 s: the last wait is cut to the
# idle time left, not slept out to a whole interval.
# Usage: monitor_idle_exit_smoke.sh LIMA_MONITOR_BIN WORK_DIR
set -u

Monitor="$1"
Work="$2"

rm -rf "$Work"
mkdir -p "$Work"
Trace="$Work/idle.trace"
Out="$Work/monitor.out"
Prom="$Work/monitor.prom"

cat > "$Trace" <<'EOF'
LIMATRACE 1
procs 1
region 0 loop
activity 0 comp
re 0 0.0 0
ab 0 0.0 0
ae 0 0.5 0
EOF

fail() {
  echo "monitor_idle_exit_smoke: $1" >&2
  cat "$Out" >&2
  exit 1
}

Start=$(date +%s%N)
"$Monitor" "$Trace" --window 1 --follow --idle-exit-ms 1500 \
    --interval-ms 1000 --log-json --metrics-out "$Prom" > "$Out" 2>&1 &
Pid=$!
(while :; do touch -m "$Trace"; sleep 0.1; done) &
Toucher=$!
Status=0
wait "$Pid" || Status=$?
End=$(date +%s%N)
kill "$Toucher" 2> /dev/null
wait "$Toucher" 2> /dev/null

Elapsed=$(((End - Start) / 1000000))
[ "$Status" -eq 0 ] || fail "exit status $Status, expected 0"
[ "$Elapsed" -ge 1500 ] || fail "exited after $Elapsed ms, before the 1500 ms idle limit"
[ "$Elapsed" -le 1900 ] || fail "exited after $Elapsed ms, over 400 ms past the 1500 ms idle limit"
# Unless change notification was switched off (the monitor.watch fault
# site), the touches must have woken the monitor early, or this test
# would not exercise early wake-ups at all.
case "${LIMA_FAULTS:-}" in
*monitor.watch*) ;;
*)
  grep -q '^lima_monitor_wakeups_total{cause="notify"} [1-9]' "$Prom" \
      || fail "no notification wake-ups: the touches went unseen"
  ;;
esac

echo "monitor_idle_exit_smoke: OK ($Elapsed ms)"
