#!/bin/sh
# Resilience smoke for lima_monitor --follow: the followed trace is
# rotated to a new inode, then truncated in place (copytruncate), and
# the monitor must survive both, keep window numbering monotonic across
# segments, and count each reopen in lima_reopen_total.  A second run
# restarted from the --checkpoint file must replay the final trace
# without re-reporting any window (no double-counting).  The monitor is
# stopped while the writer is mid-line: that fragment must not be parsed
# as a record, while a non-follow EOF still parses a final unterminated
# line.
# Usage: monitor_rotation_smoke.sh LIMA_MONITOR_BIN WORK_DIR CHECKER_SH
set -eu

Monitor="$1"
Work="$2"
Checker="$3"

rm -rf "$Work"
mkdir -p "$Work"
Work=$(cd "$Work" && pwd -P)
Trace="$Work/rotating.trace"
Out="$Work/monitor.out"
Prom="$Work/monitor.prom"
Ck="$Work/monitor.ckpt"

Pid=""
wait_for() { # pattern file
  _i=0
  while [ "$_i" -lt 200 ]; do
    if grep -q "$1" "$2" 2>/dev/null; then
      return 0
    fi
    _i=$((_i + 1))
    sleep 0.1
  done
  echo "rotation_smoke: timed out waiting for $1" >&2
  cat "$2" >&2 || true
  [ -n "$Pid" ] && kill "$Pid" 2>/dev/null
  exit 1
}

# Byte offset the monitor has read from the followed trace, from its
# descriptor's pos in /proc/<pid>/fdinfo.
read_pos() {
  for _fd in /proc/"$Pid"/fd/*; do
    if [ "$(readlink "$_fd" 2>/dev/null)" = "$Trace" ]; then
      sed -n 's/^pos:[[:space:]]*//p' /proc/"$Pid"/fdinfo/"${_fd##*/}"
      return
    fi
  done
}

# Segment A: windows 0..2 complete while following (watermark 3.5),
# window 3 flushes when the segment is retired.
cat > "$Trace" <<'EOF'
LIMATRACE 1
procs 2
region 0 loop
activity 0 comp
re 0 0.0 0
re 1 0.0 0
ab 0 0.0 0
ae 0 1.0 0
ab 1 0.0 0
ae 1 1.0 0
ab 0 1.0 0
ae 0 2.0 0
ab 1 1.0 0
ae 1 2.0 0
ab 0 2.0 0
ae 0 3.2 0
ab 1 2.0 0
ae 1 3.2 0
ab 0 3.2 0
ae 0 3.5 0
ab 1 3.2 0
ae 1 3.5 0
EOF

"$Monitor" "$Trace" --follow --interval-ms 50 --window 1 --log-json \
    --checkpoint "$Ck" --metrics-out "$Prom" > "$Out" 2>&1 &
Pid=$!

wait_for '"window":2,' "$Out"

# Rotate: the old file moves away, a fresh segment (its own header, its
# own t = 0) lands at the path.  Windows continue at global index 4
# (window 3 is flushed from the retired segment).
mv "$Trace" "$Trace.1"
cat > "$Trace" <<'EOF'
LIMATRACE 1
procs 2
region 0 loop
activity 0 comp
re 0 0.0 0
re 1 0.0 0
ab 0 0.0 0
ae 0 1.0 0
ab 1 0.0 0
ae 1 1.0 0
ab 0 1.0 0
ae 0 2.5 0
ab 1 1.0 0
ae 1 2.5 0
EOF

wait_for '"window":5,' "$Out"

# Truncate in place (copytruncate rotation): same inode shrinks to
# zero, then a shorter third segment is appended.  The retired segment
# flushes global window 6; the new one reports 7 and, at exit, 8.
: > "$Trace"
sleep 0.5
cat >> "$Trace" <<'EOF'
LIMATRACE 1
procs 2
region 0 loop
activity 0 comp
re 0 0.0 0
re 1 0.0 0
ab 0 0.0 0
ae 0 1.0 0
ab 1 0.0 0
ae 1 1.0 0
ab 0 1.0 0
ae 0 1.5 0
ab 1 1.0 0
ae 1 1.5 0
EOF

wait_for '"window":7,' "$Out"

# The writer is mid-line when the monitor is stopped: once the monitor
# has read the fragment, SIGTERM must leave it unparsed (strict mode
# would otherwise fail it as a wrong field count).
Whole=$(wc -c < "$Trace")
printf 'ab 0 2.' >> "$Trace"
Size=$(wc -c < "$Trace")
_i=0
while [ "$(read_pos)" != "$Size" ]; do
  _i=$((_i + 1))
  if [ "$_i" -ge 200 ]; then
    echo "rotation_smoke: monitor never read the partial line" >&2
    kill "$Pid" 2>/dev/null
    exit 1
  fi
  sleep 0.1
done

kill -TERM "$Pid"
Rc=0
wait "$Pid" || Rc=$?
if [ "$Rc" -ne 0 ]; then
  echo "rotation_smoke: monitor exited $Rc after SIGTERM" >&2
  cat "$Out" >&2
  exit 1
fi

# Windows 0..8, each exactly once, strictly increasing.
Indices=$(grep '"msg":"window"' "$Out" |
  sed 's/.*"window":\([0-9][0-9]*\),.*/\1/')
Got=$(printf '%s\n' "$Indices" | tr '\n' ' ' | sed 's/ $//')
Want="0 1 2 3 4 5 6 7 8"
if [ "$Got" != "$Want" ]; then
  echo "rotation_smoke: expected windows '$Want', got '$Got'" >&2
  cat "$Out" >&2
  exit 1
fi

# Both reopen reasons must be counted in the metrics dump.
if ! grep -q 'lima_reopen_total{reason="rotate"} 1' "$Prom" ||
   ! grep -q 'lima_reopen_total{reason="truncate"} 1' "$Prom"; then
  echo "rotation_smoke: missing lima_reopen_total counters" >&2
  cat "$Prom" >&2
  exit 1
fi
sh "$Checker" "$Prom"

# The checkpoint recorded the final segment base and the last window.
grep -q '^LIMACKPT 1$' "$Ck"
grep -q '^base 7$' "$Ck"
grep -q '^reported 8$' "$Ck"
grep -q '^emitted 9$' "$Ck"

grep -q '"msg":"stopped mid-line, partial last line not parsed"' "$Out"

# Without --follow, EOF ends the stream, so the unterminated last line
# is a record and is parsed (and rejected: exit 4, malformed record).
Out3="$Work/monitor3.out"
Rc=0
"$Monitor" "$Trace" --window 1 --log-json > "$Out3" 2>&1 || Rc=$?
if [ "$Rc" -ne 4 ] || ! grep -q 'wrong field count' "$Out3"; then
  echo "rotation_smoke: non-follow EOF did not parse the last line ($Rc)" >&2
  cat "$Out3" >&2
  exit 1
fi
head -c "$Whole" "$Trace" > "$Trace.whole"
mv "$Trace.whole" "$Trace"

# Restart against the final trace with the checkpoint: every window it
# can compute was already reported, so the replay must emit none, yet
# --min-windows 9 still passes on the restored count.
Out2="$Work/monitor2.out"
"$Monitor" "$Trace" --window 1 --log-json --checkpoint "$Ck" \
    --min-windows 9 > "$Out2" 2>&1
Rerun=$(grep -c '"msg":"window"' "$Out2" || true)
if [ "$Rerun" -ne 0 ]; then
  echo "rotation_smoke: restart re-reported $Rerun windows" >&2
  cat "$Out2" >&2
  exit 1
fi
grep -q '"msg":"checkpoint restored"' "$Out2"

echo "rotation_smoke: OK (9 windows once each across 3 segments)"
