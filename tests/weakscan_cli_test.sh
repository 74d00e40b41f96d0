#!/usr/bin/env bash
# End-to-end flows of the weakscan tool on one small corpus (48 x 256-bit,
# two planted weak pairs): engine parity, stop/resume, SIGKILL tree resume,
# scan-vs-tree victim sets, probe, the PEM round trip, strict number parsing
# and the exit-code table. Usage: weakscan_cli_test.sh <weakscan-binary>
set -u
weakscan=$(realpath "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect <code> <log> <args...>: run weakscan, require exit <code>.
expect() {
  local want=$1 log=$2
  shift 2
  "$weakscan" "$@" > "$log" 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    cat "$log" >&2
    fail "weakscan $* exited $got, want $want"
  fi
}

hits() { grep '^  keys ' "$1"; }

expect 0 gen.log generate corpus.keys 48 256 2 20150525
cp corpus.keys pristine.keys

# Every engine finds the same planted factors.
for engine in auto vector staged scalar; do
  expect 0 "scan_$engine.log" scan corpus.keys --engine "$engine" \
    --checkpoint "$engine.ckpt"
  hits "scan_$engine.log" > "keys_$engine.txt"
done
[ "$(wc -l < keys_auto.txt)" -eq 2 ] || fail "expected 2 planted hits"
for engine in vector staged scalar; do
  cmp -s keys_auto.txt "keys_$engine.txt" || fail "--engine $engine differs"
done

# Time-sliced scan: exit 3, then the rerun completes with the same hits.
expect 3 slice1.log scan corpus.keys --chunk-blocks 2 --group-size 8 \
  --stop-after 1 --checkpoint sliced.ckpt
expect 0 slice2.log scan corpus.keys --chunk-blocks 2 --group-size 8 \
  --checkpoint=sliced.ckpt
grep -q '(resumed)' slice2.log || fail "sliced scan did not resume"
hits slice2.log | cmp -s - keys_auto.txt || fail "resumed scan hits differ"

# SIGKILL mid-tree, resume: gcds byte-identical to an uninterrupted run.
expect 0 tree_ref.log tree corpus.keys --checkpoint ref.btr --gcds-out ref.txt
expect 137 tree_kill.log tree corpus.keys --kill-after-levels 3
expect 0 tree_resume.log tree corpus.keys --gcds-out resumed.txt
grep -q '(resumed)' tree_resume.log || fail "tree did not resume"
cmp -s ref.txt resumed.txt || fail "resumed tree gcds differ"

# A journal in the retired BGCDBTR1 format (square residues) is refused by
# name, exit 2, and left as it was.
printf 'BGCDBTR1%016d' 0 > v1.btr
cp v1.btr v1_before.btr
expect 2 tree_v1.log tree corpus.keys --checkpoint v1.btr
grep -q 'BGCDBTR1' tree_v1.log || fail "v1 journal refusal does not name it"
cmp -s v1.btr v1_before.btr || fail "v1 journal was modified"

# The pairwise and the product-tree answers name the same victims.
awk '{print $2; print $4}' keys_auto.txt | sort -nu > victims_scan.txt
grep '^  key ' tree_ref.log | awk '{print $2+0}' | sort -nu > victims_tree.txt
[ -s victims_scan.txt ] || fail "no victims"
cmp -s victims_scan.txt victims_tree.txt || fail "scan and tree victims differ"

# scan and tree never write the corpus file.
cmp -s corpus.keys pristine.keys || fail "corpus file was modified"

# probe: a weak key against a corpus holding its partner exits 1; a clean
# key exits 0. Both candidates are left out of the corpus they probe.
modulus() { awk '$1 == "modulus" {print $2}' corpus.keys | sed -n "$(($1 + 1))p"; }
weak=$(modulus "$(head -1 victims_scan.txt)")
clean=$(modulus "$(seq 0 47 | grep -vxFf victims_scan.txt | head -1)")
grep -v -e "$weak" -e "$clean" corpus.keys > rest.keys
expect 1 probe_weak.log probe rest.keys "$weak"
expect 0 probe_clean.log probe rest.keys "$clean"

# PEM round trip: export, import, rescan, same hits.
expect 0 export.log export-pem corpus.keys corpus.pem
expect 0 import.log import-pem corpus.pem imported.keys
expect 0 scan_pem.log scan imported.keys
hits scan_pem.log | cmp -s - keys_auto.txt || fail "PEM round trip hits differ"

# Malformed command lines exit 2 and leave the corpus alone.
for args in "scan corpus.keys --chunk-blocks" \
            "scan corpus.keys --chunk-blocks abc" \
            "scan corpus.keys --chunk-blocks 4x" \
            "scan corpus.keys --chunk-blocks=-1" \
            "scan corpus.keys --threads 18446744073709551616" \
            "scan corpus.keys --metrics-interval nan" \
            "scan corpus.keys --generate 8 256 1" \
            "scan corpus.keys --discard-checkpoint=yes" \
            "tree corpus.keys --stop-after-levels -3" \
            "tree corpus.keys --bogus" \
            "intake --port 65536" \
            "generate new.keys abc 256 1" \
            "generate new.keys 8 256x 1" \
            "generate new.keys 8 256 -1" \
            "generate new.keys 8 256 1 99999999999999999999" \
            "generate new.keys 8 256" \
            "probe corpus.keys" \
            "frobnicate"; do
  # shellcheck disable=SC2086  # word-split the case on purpose
  expect 2 bad.log $args
done
[ ! -e new.keys ] || fail "a rejected generate wrote its file"
cmp -s corpus.keys pristine.keys || fail "corpus file was modified"
echo "weakscan CLI flows OK"
