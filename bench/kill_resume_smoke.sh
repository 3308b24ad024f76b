#!/usr/bin/env bash
# Crash-safety smoke: SIGKILL a journaled campaign mid-run, `--resume` it,
# and require the reassembled JSON Lines output to be byte-identical to an
# uninterrupted reference run — the full journal/truncate/resume path under a
# real hard kill, not an in-process emulation. Invoked by the
# kill_resume_smoke CTest as
#   kill_resume_smoke.sh <dflysim> <examples/fig4_campaign.cfg> <work dir> [backgrounds]
#
# The campaign is trimmed via --set to one target at scale 64 and, by
# default, six backgrounds: enough cells that the kill lands mid-campaign,
# small enough for CI. A slow instrumented build passes a shorter
# comma-separated background list so the three runs fit the test's timeout.
set -u

DFLYSIM=$1
CAMPAIGN=$2
WORK=$3
BACKGROUNDS=${4:-None,UR,LU,FFT3D,CosmoFlow,DL}

ARGS=(--plan="$CAMPAIGN"
      --set=plan.routings=MIN
      --set=plan.targets=FFT3D
      --set=plan.backgrounds="$BACKGROUNDS"
      --set=scale=64
      --jobs=2)

REF=$WORK/kill_resume_ref.jsonl
OUT=$WORK/kill_resume.jsonl
JOURNAL=$WORK/kill_resume.journal
rm -f "$REF" "$OUT" "$JOURNAL"

echo "== reference run (uninterrupted, no journal) =="
"$DFLYSIM" "${ARGS[@]}" --jsonl="$REF" >/dev/null || {
  echo "FAIL: reference run exited $?"
  exit 1
}

echo "== journaled run, killed with SIGKILL mid-campaign =="
"$DFLYSIM" "${ARGS[@]}" --jsonl="$OUT" --journal="$JOURNAL" >/dev/null &
PID=$!

# Wait until at least one cell is durably journaled, then kill -9. If the
# campaign wins the race and finishes first, the resume below degenerates to
# a no-op replay — still a valid (if weaker) check, so just note it.
for _ in $(seq 1 3000); do
  [ -s "$JOURNAL" ] && break
  kill -0 "$PID" 2>/dev/null || break
  sleep 0.1
done
if kill -9 "$PID" 2>/dev/null; then
  echo "killed pid $PID after $(wc -l <"$JOURNAL" 2>/dev/null || echo 0) journaled cells"
else
  echo "note: campaign finished before the kill landed; resume is a pure replay"
fi
wait "$PID" 2>/dev/null

echo "== resume =="
"$DFLYSIM" "${ARGS[@]}" --jsonl="$OUT" --journal="$JOURNAL" --resume || {
  echo "FAIL: resume run exited $?"
  exit 1
}

if cmp "$OUT" "$REF"; then
  echo "PASS: resumed campaign JSONL is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed campaign JSONL differs from the uninterrupted reference"
  exit 1
fi
