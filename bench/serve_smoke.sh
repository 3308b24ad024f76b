#!/usr/bin/env bash
# Campaign-daemon smoke: start `dflysim --serve` on a unix socket, submit the
# trimmed Fig-4 campaign over the socket, and require the streamed JSONL to be
# byte-identical to the same plan run directly via `--plan=FILE --jsonl=-`,
# a submission that sets the removed cell_threads key to be rejected, and a
# submission whose PAR paths outrun three VCs to fail its own cells while the
# daemon keeps serving. Then the crash half: submit again, SIGKILL the daemon
# mid-campaign, restart it on the same spool, and require the resumed spool
# output to be byte-identical too (docs/DAEMON.md). Invoked by the
# serve_smoke CTest as
#   serve_smoke.sh <dflysim> <examples/fig4_campaign.cfg> <work dir> [backgrounds]
set -u

DFLYSIM=$1
CAMPAIGN=$2
WORK=$3
# Three backgrounds by default keep the smoke cheap enough for a 1-core CI
# box while still exercising multi-cell streaming and a mid-campaign kill
# point. A slow instrumented build passes a cheaper comma-separated list.
BACKGROUNDS=${4:-None,UR,CosmoFlow}

SETS=(--set=plan.routings=MIN
      --set=plan.targets=FFT3D
      --set=plan.backgrounds="$BACKGROUNDS"
      --set=scale=64)

SOCK=$WORK/serve_smoke.sock
SPOOL=$WORK/serve_smoke.spool
REF=$WORK/serve_smoke_ref.jsonl
OUT=$WORK/serve_smoke.jsonl
REJECT=$WORK/serve_smoke_reject.err
OVERRUN=$WORK/serve_smoke_overrun.err
rm -rf "$SOCK" "$SPOOL" "$REF" "$OUT" "$REJECT" "$OVERRUN"

cleanup() {
  [ -n "${SRV:-}" ] && kill "$SRV" 2>/dev/null
  wait 2>/dev/null
}
trap cleanup EXIT

wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    sleep 0.1
  done
  echo "FAIL: daemon never bound $SOCK"
  exit 1
}

echo "== reference run (direct --plan, no daemon) =="
"$DFLYSIM" --plan="$CAMPAIGN" "${SETS[@]}" --jobs=2 --jsonl=- 2>/dev/null > "$REF" || {
  echo "FAIL: reference run exited $?"
  exit 1
}

echo "== daemon up, submit over the socket =="
"$DFLYSIM" --serve="$SOCK" --spool="$SPOOL" --jobs=2 2>"$WORK/serve_smoke_daemon.log" &
SRV=$!
wait_for_socket
"$DFLYSIM" --submit="$SOCK" --plan="$CAMPAIGN" "${SETS[@]}" 2>/dev/null > "$OUT" || {
  echo "FAIL: submit exited $?"
  exit 1
}
if cmp "$REF" "$OUT"; then
  echo "PASS: socket-streamed JSONL is byte-identical to the direct --plan run"
else
  echo "FAIL: socket-streamed JSONL differs from the direct --plan run"
  exit 1
fi

echo "== submit with the removed cell_threads key; the daemon must reject it =="
if "$DFLYSIM" --submit="$SOCK" --plan="$CAMPAIGN" "${SETS[@]}" --set=cell_threads=2 \
    >/dev/null 2>"$REJECT"; then
  echo "FAIL: a submission setting cell_threads was accepted"
  exit 1
fi
if grep -q "unknown key 'cell_threads'" "$REJECT"; then
  echo "PASS: a submission setting cell_threads is rejected with the key named"
else
  echo "FAIL: the cell_threads rejection does not name the key:"
  cat "$REJECT"
  exit 1
fi

echo "== submit PAR with three VCs; its cells must fail, not the daemon =="
"$DFLYSIM" --submit="$SOCK" --plan="$CAMPAIGN" "${SETS[@]}" --set=net.num_vcs=3 \
    --set=plan.routings=PAR >/dev/null 2>"$OVERRUN"
STATUS=$?
if [ "$STATUS" -ne 2 ]; then
  echo "FAIL: the VC-overrun submission exited $STATUS, expected 2"
  cat "$OVERRUN"
  exit 1
fi
if grep -q "FAILED: .*net.num_vcs 3" "$OVERRUN"; then
  echo "PASS: the VC-overrun submission exits 2 with its cell_failed lines"
else
  echo "FAIL: no cell_failed line names net.num_vcs:"
  cat "$OVERRUN"
  exit 1
fi
if ! kill -0 "$SRV" 2>/dev/null; then
  echo "FAIL: the daemon died on the VC-overrun submission"
  exit 1
fi

echo "== submit again, SIGKILL the daemon mid-campaign =="
"$DFLYSIM" --submit="$SOCK" --plan="$CAMPAIGN" "${SETS[@]}" >/dev/null 2>&1 &
CLIENT=$!
JOURNAL=$SPOOL/c000003.journal
for _ in $(seq 1 3000); do
  [ -s "$JOURNAL" ] && break
  kill -0 "$SRV" 2>/dev/null || break
  sleep 0.1
done
if kill -9 "$SRV" 2>/dev/null; then
  echo "killed daemon pid $SRV after $(wc -l <"$JOURNAL" 2>/dev/null || echo 0) journaled cells"
else
  echo "note: daemon exited before the kill landed"
fi
wait "$SRV" 2>/dev/null
wait "$CLIENT" 2>/dev/null
SRV=

echo "== restart the daemon; it must resume the spooled campaign unprompted =="
"$DFLYSIM" --serve="$SOCK" --spool="$SPOOL" --jobs=2 2>>"$WORK/serve_smoke_daemon.log" &
SRV=$!
wait_for_socket
for _ in $(seq 1 3000); do
  [ -f "$SPOOL/c000003.done" ] && break
  sleep 0.1
done
"$DFLYSIM" --shutdown="$SOCK" >/dev/null 2>&1
wait "$SRV" 2>/dev/null
SRV=

if [ ! -f "$SPOOL/c000003.done" ]; then
  echo "FAIL: restarted daemon never finished the spooled campaign"
  exit 1
fi
if cmp "$SPOOL/c000003.jsonl" "$REF"; then
  echo "PASS: resumed spool JSONL is byte-identical to the uninterrupted reference"
else
  echo "FAIL: resumed spool JSONL differs from the reference"
  exit 1
fi
