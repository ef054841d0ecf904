#!/usr/bin/env sh
# Kill/restart chaos harness for the durability layer (docs/robustness.md
# §11, docs/serving.md §9). Two legs, both against the real binaries:
#
#   serve  SIGKILL csq_serve mid-load (several kill delays, serial and
#          threaded), restart with --journal --recover, and verify from the
#          journal file itself: every journaled (admitted) request is
#          answered exactly once on restart, and every
#          response the client saw before the crash is re-delivered with
#          byte-identical content. A torn journal tail must be absorbed,
#          never fatal.
#   sweep  SIGKILL csq_cli sweep --checkpoint mid-sweep (every finished
#          row is already journaled), resume, and cmp the CSV against an
#          uninterrupted golden run — byte-identical output for an
#          arbitrary interruption point.
#
# The assertions hold for *any* kill timing, so the harness is not flaky:
# an unlucky (too-early/too-late) kill degrades coverage, not correctness.
# Deterministic in-process crash drills live in tests/test_durable.cc
# (`ctest -L durable`); this script is the end-to-end SIGKILL version the
# CI durable stage runs under ASan (tools/check_warnings.sh,
# CSQ_SKIP_DURABLE=1 to skip).
#
# usage: tools/chaos_crash.sh [build-dir]   (default: ./build)
set -u

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
serve_bin="$build_dir/tools/csq_serve"
cli_bin="$build_dir/tools/csq_cli"

fail() {
  printf 'chaos_crash: FAIL %s\n' "$1" >&2
  exit 1
}
note() {
  printf 'chaos_crash: %s\n' "$1"
}

[ -x "$serve_bin" ] || fail "csq_serve not built at $serve_bin"
[ -x "$cli_bin" ] || fail "csq_cli not built at $cli_bin"
command -v python3 >/dev/null 2>&1 || fail "python3 required for the journal verifier"

tmp=$(mktemp -d) || fail "mktemp"
trap 'rm -rf "$tmp"' EXIT INT TERM

# --- journal verifier -------------------------------------------------------
# Decodes the CSQJ1 framing (stopping at the first torn frame, like replay())
# and checks the exactly-once + byte-identity contract against the pre-crash
# and post-recovery response captures.
cat > "$tmp/verify_journal.py" << 'PYEOF'
import binascii, json, sys

journal, pre_path, post_path = sys.argv[1], sys.argv[2], sys.argv[3]
data = open(journal, "rb").read()

pos, reqs, completed, order = 0, {}, set(), []
while pos < len(data):
    nl = data.find(b"\n", pos)
    if nl < 0:
        break  # torn tail
    parts = data[pos:nl].split(b" ")
    if len(parts) != 5 or parts[0] != b"CSQJ1":
        break
    kind, seq, length, crc = parts[1], int(parts[2]), int(parts[3]), parts[4]
    start, end = nl + 1, nl + 1 + length
    if end >= len(data) or data[end:end + 1] != b"\n":
        break
    payload = data[start:end]
    if format(binascii.crc32(payload) & 0xFFFFFFFF, "08x").encode() != crc:
        break
    if kind == b"req" and seq not in reqs:
        reqs[seq] = payload
        order.append(seq)
    elif kind == b"res" and seq in reqs:
        completed.add(seq)
    pos = end + 1

def lines(path):
    raw = open(path, "rb").read()
    parts = raw.split(b"\n")
    if raw and not raw.endswith(b"\n"):
        parts = parts[:-1]  # drop the line the kill tore mid-write
    return [p for p in parts if p]

def rid(line):
    try:
        return json.loads(line)["id"]
    except Exception:
        return None

pre, post = lines(pre_path), lines(post_path)

# Exactly-once: each journaled request answered once on recovery — no more,
# no less. (Completed frames re-emit before re-executed ones, so with a
# threaded pre-crash run the recovery order can differ from journal order.)
want_ids = [rid(reqs[s]) for s in order]
got_ids = [rid(l) for l in post]
assert len(got_ids) == len(set(got_ids)), "duplicate response id after recovery"
assert sorted(got_ids) == sorted(want_ids), (
    f"recovered ids {sorted(got_ids)!r} != journaled ids {sorted(want_ids)!r}")

# Byte-identity: anything delivered before the crash for an *admitted*
# request is re-delivered with the same bytes — a duplicate is only legal
# when it is indistinguishable. Responses for requests that were never
# admitted (shed with Overloaded under load, malformed lines) are exempt:
# they were never journaled, by design, and do not reappear after recovery.
post_by_id = {rid(l): l for l in post}
admitted = set(want_ids)
for line in pre:
    i = rid(line)
    if i not in admitted:
        continue
    assert i in post_by_id, f"pre-crash response {i!r} missing after recovery"
    assert post_by_id[i] == line, f"response bytes changed across crash for id {i!r}"

print(f"verified: {len(order)} journaled, {len(completed)} completed pre-crash, "
      f"{len(pre)} delivered pre-crash, {len(post)} answered on recovery")
PYEOF

# --- serve leg --------------------------------------------------------------
# requests.ndjson: a fixed load the producer drips into the server slowly
# enough (~20 ms/line) that the kill lands mid-stream, with requests
# journaled but not yet answered.
i=0
while [ "$i" -lt 30 ]; do
  if [ $((i % 5)) -eq 2 ]; then
    # A heavier request every few lines, so a kill can land while one is
    # in flight: journaled, unanswered — the re-execute path on recovery.
    printf '{"id":"s%d","op":"sweep","axis":"rho_s","from":0.1,"to":0.9,"points":512,"rho_l":0.4,"mean_s":1,"mean_l":1,"scv_l":1}\n' "$i"
  else
    printf '{"id":"c%d","op":"analyze","rho_s":0.5,"rho_l":0.4,"mean_s":1,"mean_l":1,"scv_l":1}\n' "$i"
  fi
  i=$((i + 1))
done > "$tmp/requests.ndjson"

drip() {
  while IFS= read -r line; do
    printf '%s\n' "$line" 2>/dev/null || exit 1  # server gone: stop producing
    sleep 0.02
  done < "$tmp/requests.ndjson"
}

serve_leg() {
  delay=$1
  workers=$2
  tag="d${delay}w${workers}"
  journal="$tmp/journal_$tag.ndjson"
  drip | "$serve_bin" --workers "$workers" --journal="$journal" --fsync-every 1 \
    > "$tmp/pre_$tag.ndjson" 2>/dev/null &
  pid=$!
  sleep "$delay"
  kill -KILL "$pid" 2>/dev/null
  wait "$pid" 2>/dev/null
  if [ ! -f "$journal" ]; then
    # Killed inside process startup: nothing admitted, nothing to verify.
    note "SKIP  serve($tag): killed before the journal existed"
    return 0
  fi
  "$serve_bin" --workers 0 --journal="$journal" --recover \
    < /dev/null > "$tmp/post_$tag.ndjson" 2>"$tmp/err_$tag" \
    || fail "serve($tag): recovery exited nonzero: $(cat "$tmp/err_$tag")"
  python3 "$tmp/verify_journal.py" "$journal" \
    "$tmp/pre_$tag.ndjson" "$tmp/post_$tag.ndjson" \
    || fail "serve($tag): recovery contract violated"
  note "PASS  serve kill+recover ($tag)"
}

# Vary the cut point (early/mid/late) and exercise the threaded path too.
serve_leg 0.05 0
serve_leg 0.20 0
serve_leg 0.40 0
serve_leg 0.20 2

# A second kill *during recovery* must still converge on the next restart.
journal="$tmp/journal_double.ndjson"
drip | "$serve_bin" --workers 0 --journal="$journal" --fsync-every 1 \
  > "$tmp/pre_double.ndjson" 2>/dev/null &
pid=$!
sleep 0.15
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
"$serve_bin" --workers 0 --journal="$journal" --recover \
  < /dev/null > /dev/null 2>&1 &
pid=$!
sleep 0.05
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
"$serve_bin" --workers 0 --journal="$journal" --recover \
  < /dev/null > "$tmp/post_double.ndjson" 2>/dev/null \
  || fail "serve(double): second recovery exited nonzero"
: > "$tmp/pre_empty.ndjson"  # pre-crash capture not comparable after two lives
python3 "$tmp/verify_journal.py" "$journal" \
  "$tmp/pre_empty.ndjson" "$tmp/post_double.ndjson" \
  || fail "serve(double): recovery contract violated after a second crash"
note "PASS  serve double-crash recovery converges"

# --- sweep leg --------------------------------------------------------------
sweep_flags="sweep --x rho_s --from 0.1 --to 1.2 --points 20 --rho-l 0.4 --csv"
"$cli_bin" $sweep_flags > "$tmp/golden.csv" 2>/dev/null \
  || fail "sweep: golden run failed"
"$cli_bin" $sweep_flags --checkpoint "$tmp/sweep.ckpt" > /dev/null 2>&1 &
pid=$!
sleep 0.10
kill -KILL "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
"$cli_bin" $sweep_flags --checkpoint "$tmp/sweep.ckpt" \
  > "$tmp/resumed.csv" 2>/dev/null \
  || fail "sweep: resume run failed"
cmp -s "$tmp/golden.csv" "$tmp/resumed.csv" \
  || fail "sweep: resumed CSV differs from the uninterrupted golden run"
note "PASS  sweep kill+resume is byte-identical"

note "all chaos drills passed"
