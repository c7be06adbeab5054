#!/bin/sh
# Signal promptness of an idle follower: lima_monitor follows a trace
# that stops growing, with --interval-ms 60000 so that a signal serviced
# only when the wait times out would take a minute.  SIGUSR1 must write
# the --metrics-out dump within 2 s, and SIGTERM must end the monitor
# with status 0 within 2 s.  --http keeps a second thread running, so
# the kernel may run the handlers on either thread.
# Usage: monitor_signal_smoke.sh LIMA_MONITOR_BIN WORK_DIR
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

"$Monitor" "$Trace" --window 1 --follow --interval-ms 60000 --log-json \
    --http 127.0.0.1:0 --metrics-out "$Prom" > "$Out" 2>&1 &
Pid=$!

fail() {
  echo "monitor_signal_smoke: $1" >&2
  cat "$Out" >&2
  kill -KILL "$Pid" 2> /dev/null
  exit 1
}

# Up once the status server has announced itself; the whole trace is
# read within milliseconds of that, so half a second later the monitor
# is in its 60 s wait.
Tries=0
until grep -q 'status server listening' "$Out"; do
  kill -0 "$Pid" 2> /dev/null || fail "monitor died before listening"
  [ "$Tries" -lt 100 ] || fail "status server never announced an address"
  sleep 0.1
  Tries=$((Tries + 1))
done
sleep 0.5
[ ! -e "$Prom" ] || fail "metrics dump written before SIGUSR1"

kill -USR1 "$Pid"
Tries=0
until [ -s "$Prom" ]; do
  [ "$Tries" -lt 20 ] || fail "no metrics dump within 2 s of SIGUSR1"
  sleep 0.1
  Tries=$((Tries + 1))
done
grep -q '^lima_monitor_wakeups_total{cause="signal"} [1-9]' "$Prom" \
    || fail "the dump does not count the signal wake-up"

kill -TERM "$Pid"
# A zombie still answers kill -0; the exit is seen through the log.
Tries=0
until grep -q 'stream complete' "$Out"; do
  [ "$Tries" -lt 20 ] || fail "still running 2 s after SIGTERM"
  sleep 0.1
  Tries=$((Tries + 1))
done
Status=0
wait "$Pid" || Status=$?
[ "$Status" -eq 0 ] || fail "exit status $Status after SIGTERM, expected 0"

echo "monitor_signal_smoke: OK"
