#!/usr/bin/env sh
# Output identity between two builds of the CLI: a change that claims to
# leave every answer alone must print the same bytes as the build before it.
#
#   tools/compare_outputs.sh OLD_BIN NEW_BIN [SEED]
#
# Each binary builds its own scale-0.25 inputs from SEED (default 7): a
# store file, a 4-shard store directory, text logs with their config
# snapshot, and --precursors logs. Then, per binary, it prints
#   - every `analyze --report`, plain and --csv, on the store file, on the
#     shard directory and on the text logs, for the whole fleet and for the
#     `--class near-line --exclude-h` cohort;
#   - `inspect` of the config snapshot, plain and --csv;
#   - `replicate` (4 fixed replicates at scale 0.25): its report, its
#     STORREP1 table and the table re-rendered by `analyze --replicates`;
#   - `predict` over the --precursors logs, for the whole fleet and for the
#     `--class near-line --exclude-h` cohort,
# and cmp's each output against the other binary's. Exits 1 at the first
# difference, naming it; the work directory is kept for a look and its path
# printed. Both binaries run at --threads 4 where a command takes it.
set -eu

if [ $# -lt 2 ]; then
  echo "usage: $0 OLD_BIN NEW_BIN [SEED]" >&2
  exit 2
fi
old=$1
new=$2
seed=${3:-7}
scale=0.25
work=$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")

reports="afr afr-total burstiness correlation lifetime vulnerability events"

# run_all BIN DIR: every output of BIN into DIR, one file per output.
run_all() {
  bin=$1
  dir=$2
  mkdir -p "$dir"
  "$bin" store build --out "$dir/fleet.store" --scale $scale --seed "$seed" --threads 4 \
    > /dev/null 2>&1
  "$bin" store build --out "$dir/fleet.shards" --shards 4 --scale $scale --seed "$seed" \
    --threads 4 > /dev/null 2>&1
  "$bin" simulate --logs "$dir/fleet.log" --snapshot "$dir/fleet.snap" --scale $scale \
    --seed "$seed" --threads 4 > /dev/null 2>&1
  "$bin" simulate --precursors --logs "$dir/precursors.log" \
    --snapshot "$dir/precursors.snap" --scale $scale --seed "$seed" --threads 4 \
    > /dev/null 2>&1
  for report in $reports; do
    for csv in "" --csv; do
      for cohort in "" "--class near-line --exclude-h"; do
        tag="$report${csv:+-csv}${cohort:+-cohort}"
        # $csv and $cohort are split on purpose: each holds flags.
        "$bin" analyze --input "$dir/fleet.store" --report "$report" $csv $cohort \
          > "$dir/out.file.$tag" 2> /dev/null
        "$bin" analyze --input "$dir/fleet.shards" --report "$report" $csv $cohort \
          > "$dir/out.shards.$tag" 2> /dev/null
        "$bin" analyze --logs "$dir/fleet.log" --snapshot "$dir/fleet.snap" \
          --report "$report" $csv $cohort > "$dir/out.logs.$tag" 2> /dev/null
      done
    done
  done
  for csv in "" --csv; do
    "$bin" inspect --snapshot "$dir/fleet.snap" $csv > "$dir/out.inspect${csv:+-csv}" \
      2> /dev/null
  done
  # The table's provenance manifest names the build, so only the table and
  # the reports are compared.
  "$bin" replicate --out "$dir/replicate.table" --scale $scale --seed "$seed" \
    --max-replicates 4 --min-replicates 4 --threads 4 > "$dir/out.replicate" 2> /dev/null
  cp "$dir/replicate.table" "$dir/out.replicate.table"
  "$bin" analyze --replicates "$dir/replicate.table" > "$dir/out.replicate.render" \
    2> /dev/null
  "$bin" predict --logs "$dir/precursors.log" --snapshot "$dir/precursors.snap" \
    > "$dir/out.predict" 2> /dev/null
  "$bin" predict --logs "$dir/precursors.log" --snapshot "$dir/precursors.snap" \
    --class near-line --exclude-h > "$dir/out.predict-cohort" 2> /dev/null
}

run_all "$old" "$work/old"
run_all "$new" "$work/new"

count=0
for a in "$work"/old/out.*; do
  name=$(basename "$a")
  if ! cmp "$a" "$work/new/$name"; then
    echo "FAIL: $name differs between $old and $new (outputs kept in $work)" >&2
    exit 1
  fi
  count=$((count + 1))
done
echo "$count outputs cmp-identical between $old and $new"
rm -rf "$work"
