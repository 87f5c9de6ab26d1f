#!/bin/sh
# benchdiff.sh OLD NEW — compare two `go test -bench -benchmem` output
# files, benchstat-style: per benchmark name (CPU suffix stripped,
# repeated -count runs averaged), print old vs new ns/op, B/op, and
# allocs/op with percentage deltas. POSIX sh + awk only.
#
# Typical use: run the same benchmark tree under two configurations
# (or two commits), normalize the sub-benchmark names so they line up,
# and diff:
#
#   go test -bench 'X/variantA' ... | sed 's|/variantA/|/|' > a.txt
#   go test -bench 'X/variantB' ... | sed 's|/variantB/|/|' > b.txt
#   scripts/benchdiff.sh a.txt b.txt
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 old.txt new.txt" >&2
    exit 2
fi
[ -r "$1" ] || { echo "benchdiff: cannot read $1" >&2; exit 2; }
[ -r "$2" ] || { echo "benchdiff: cannot read $2" >&2; exit 2; }

awk -v OLD="$1" -v NEW="$2" '
function ingest(file, which,    line, n, parts, name, i) {
    while ((getline line < file) > 0) {
        n = split(line, parts, /[ \t]+/)
        if (parts[1] !~ /^Benchmark/ || n < 4) continue
        name = parts[1]
        sub(/-[0-9]+$/, "", name) # strip GOMAXPROCS suffix
        names[name] = 1
        cnt[which, name]++
        for (i = 3; i + 1 <= n; i += 2)
            sum[which, name, parts[i + 1]] += parts[i]
    }
    close(file)
}
function have(which, name) { return cnt[which, name] > 0 }
function avg(which, name, unit) { return sum[which, name, unit] / cnt[which, name] }
function delta(o, v) {
    if (o == 0) return "n/a"
    return sprintf("%+.1f%%", (v - o) * 100 / o)
}
BEGIN {
    ingest(OLD, "o")
    ingest(NEW, "n")
    nunits = split("ns/op B/op allocs/op", ulist, " ")
    printf "%-52s %-10s %14s %14s %9s\n", "benchmark", "unit", "old", "new", "delta"
    # Sort names (simple exchange sort: benchmark lists are short).
    k = 0
    for (name in names) order[++k] = name
    for (i = 1; i <= k; i++)
        for (j = i + 1; j <= k; j++)
            if (order[j] < order[i]) { t = order[i]; order[i] = order[j]; order[j] = t }
    for (i = 1; i <= k; i++) {
        name = order[i]
        if (!have("o", name) || !have("n", name)) {
            printf "%-52s %-10s %14s %14s %9s\n", name, "-", \
                (have("o", name) ? "present" : "missing"), \
                (have("n", name) ? "present" : "missing"), "-"
            continue
        }
        for (u = 1; u <= nunits; u++) {
            unit = ulist[u]
            if ((("o" SUBSEP name SUBSEP unit) in sum) && (("n" SUBSEP name SUBSEP unit) in sum)) {
                o = avg("o", name, unit)
                v = avg("n", name, unit)
                printf "%-52s %-10s %14.0f %14.0f %9s\n", name, unit, o, v, delta(o, v)
            }
        }
    }
}
' </dev/null
