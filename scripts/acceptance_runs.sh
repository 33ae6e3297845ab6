#!/bin/bash
# Produce every cached training run consumed by tests/test_acceptance.py.
#
# Runs land in runs_cache/<name> with a <name>.done marker.  A run is skipped
# only when its marker exists and its run-manifest.txt records the bits epoch
# of the current code, so re-invoking the script repeats the unfinished runs
# and re-makes the runs of another epoch (after a BITS_EPOCH bump).  Up to nproc
# runs go at once, each a single process with one BLAS thread; `hyar train`
# fixes glibc's malloc thresholds itself, so freed temporaries stay mapped
# instead of going back to the OS and faulting in again.  Neither setting
# changes the bits of metrics.csv/eval.csv.  det-b-full resumes det-b-half's checkpoint, so it
# starts only once det-b-half has succeeded.  Budget: about 5.6M env steps.
# The epoch-2 det-* runs logged 182-212 RL steps/s each and their epoch-3
# re-makes 176-193 (20k-step platform runs, two at a time on a shared
# 2-core box, one BLAS thread); no 200k-300k-step run of the current code
# has been timed, so the batch's wall time is unverified.
set -u
cd "$(dirname "$0")/.." || exit 1
PY="${PYTHON:-python3}"
JOBS="$(nproc 2>/dev/null || echo 1)"
export OPENBLAS_NUM_THREADS=1
EPOCH="$($PY -c 'import hyar.numkit as nk; print(nk.BITS_EPOCH)')" || exit 1
mkdir -p runs_cache

# the directory a run writes: its --out, or that of the checkpoint it resumes
out_dir() {
  while [ $# -gt 0 ]; do
    case "$1" in
      --out) echo "$2"; return ;;
      --resume) dirname "$2"; return ;;
    esac
    shift
  done
}

# true when run NAME, writing to DIR, finished under the current bits epoch
current() {
  [ -f "runs_cache/$1.done" ] &&
    grep -qx "bits_epoch = $EPOCH" "$2/run-manifest.txt" 2>/dev/null
}

run() {
  local name="$1"; shift
  if current "$name" "$(out_dir "$@")"; then echo "skip $name"; return 0; fi
  rm -f "runs_cache/$name.done"
  echo "=== $name start $(date '+%F %T')"
  if $PY -m hyar.cli train "$@" >"runs_cache/$name.log" 2>&1; then
    touch "runs_cache/$name.done"
    echo "=== $name ok $(date '+%F %T')"
  else
    local code=$?
    echo "=== $name FAILED exit=$code (see runs_cache/$name.log)"
    return "$code"
  fi
}

# start "$@" in the background once fewer than JOBS jobs are running
spawn() {
  while [ "$(jobs -rp | wc -l)" -ge "$JOBS" ]; do wait -n; done
  "$@" &
}

# determinism and resume material (criterion 9): det-a is one uninterrupted
# 20k run, det-b is the same run stopped at 10k and resumed, det-c repeats
# det-a from scratch.  A re-made det-b-half voids det-b-full, whose manifest
# it overwrites.
det_b() {
  current det-b-half runs_cache/det-b || rm -f runs_cache/det-b-full.done
  run det-b-half --env platform --seed 11 --steps 10000 --out runs_cache/det-b &&
    run det-b-full --resume runs_cache/det-b/final.ckpt --steps 20000
}
spawn run det-a --env platform --seed 11 --steps 20000 --out runs_cache/det-a
spawn det_b
spawn run det-c --env platform --seed 11 --steps 20000 --out runs_cache/det-c

# learning runs (criteria 5-7)
for s in 0 1 2 3 4; do
  spawn run platform-s$s --env platform --seed $s --steps 200000 --out runs_cache/platform-s$s
done
for s in 0 1 2 3 4; do
  spawn run goal-s$s --env goal --seed $s --steps 300000 --out runs_cache/goal-s$s
done
for s in 0 1 2 3 4; do
  spawn run hm4-s$s --env hard_move --n 4 --seed $s --steps 300000 --out runs_cache/hm4-s$s
done
for s in 0 1 2 3 4; do
  spawn run hm8-s$s --env hard_move --n 8 --seed $s --steps 300000 --out runs_cache/hm8-s$s
done
wait
echo "all runs finished $(date '+%F %T')"
