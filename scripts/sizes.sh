#!/usr/bin/env bash
# Prints ROADMAP's tracked size counters, one fixed definition each, from the
# root of a checkout. A PR's "Counts:" line in CHANGES.md is this output at
# the parent and at the change — not a recount. Lines are `wc -l` lines
# (comments and blanks included), so moving a comment moves the counter.
set -euo pipefail
cd "$(dirname "$0")/.."

# gofiles PATTERN...: tracked-or-not Go files under the checkout, build
# outputs excluded, filtered by find(1) predicates.
gofiles() { find . -name '*.go' -not -path './.bench_build/*' "$@"; }
lines() { xargs cat | wc -l | tr -d ' '; }
# fields FILE TYPE: field lines of one struct declaration.
fields() {
  awk -v t="$2" '$0 ~ "^type " t " struct \\{" { on = 1; next }
                 on && /^}/ { on = 0 }
                 on && /^\t[A-Za-z_]/ { n++ }
                 END { print n + 0 }' "$1"
}

printf 'non-test Go outside bench/:        %s\n' "$(gofiles -not -name '*_test.go' -not -path './bench/*' | lines)"
printf 'internal/core non-test:            %s\n' "$(gofiles -not -name '*_test.go' -path './internal/core/*' | lines)"
printf 'internal/sim non-test:             %s\n' "$(gofiles -not -name '*_test.go' -path './internal/sim/*' | lines)"
printf 'test Go outside bench/:            %s\n' "$(gofiles -name '*_test.go' -not -path './bench/*' | lines)"
printf 'bench/ (all Go):                   %s\n' "$(gofiles -path './bench/*' | lines)"
printf 'Benchmark* funcs:                  %s\n' "$(gofiles -name '*_test.go' | xargs grep -h '^func Benchmark' | wc -l | tr -d ' ')"
# Rows of experiments.All (one per pdmsbench -fig value; "all" runs them in
# turn) against the functions that lay a table out for the terminal.
printf 'reproduction rows / printers:      %s / %s\n' "$(grep -c '^		ID: ' internal/experiments/reproduction.go)" \
  "$(gofiles -not -name '*_test.go' \( -path './cmd/pdmsbench/*' -o -path './internal/experiments/*' \) | xargs awk '/^func /{f=FILENAME $0} /eval\.Table\(/{p[f]=1} END{print length(p)}')"
# Cells REPRODUCTION.json records as null instead of the printed value: a
# table row is one line, and every null cell follows a '[' or a ','.
printf 'unpinned reproduction cells:       %s\n' "$(grep '^ \[' REPRODUCTION.json | grep -oE '[[,]null' | wc -l | tr -d ' ')"
printf 'internal/experiments exported:     %s\n' "$(gofiles -not -name '*_test.go' -path './internal/experiments/*' | xargs grep -hE '^(func|type|var|const) [A-Z]' | wc -l | tr -d ' ')"
printf 'CI steps:                          %s\n' "$(grep -c '^      - name: ' .github/workflows/ci.yml)"
printf 'DetectOptions+Workload+Scenario:   %s fields\n' "$(( $(fields internal/core/detect.go DetectOptions) + $(fields internal/sim/workload.go Workload) + $(fields internal/sim/scenario.go Scenario) ))"
# Suppressions in product code: the analyzer's own source and fixtures name
# the marker without using it.
printf 'pdms:nojournal-ok suppressions:    %s\n' "$(gofiles -not -name '*_test.go' -not -path './internal/analysis/*' | xargs grep -h 'pdms:nojournal-ok' | wc -l | tr -d ' ')"
# How many places outside core must change when a mutation kind is added:
# the byte codec (record.go) and the log's framing checks (wal.go).
printf 'case core.Mut files outside core:  %s\n' "$(gofiles -not -name '*_test.go' -not -path './internal/core/*' | xargs grep -l 'case core\.Mut' | wc -l | tr -d ' ')"
# The canonical-encoding policy (minimal varints, 0/1 bools, bounded lengths,
# no trailing bytes): how many files implement a strict reader, and the size
# of the codecs built on it.
printf 'strict readers:                    %s\n' "$(gofiles -not -name '*_test.go' | xargs grep -l 'non-minimal varint' | wc -l | tr -d ' ')"
printf 'codec lines (wire, wal record, canon): %s\n' "$(gofiles -not -name '*_test.go' \( -path './internal/wire/wire.go' -o -path './internal/wal/record.go' -o -path './internal/canon/*' \) | lines)"
# What a run emits: the per-epoch record types and the run-result types
# internal/sim declares (a type alias is not a second struct).
structs() { gofiles -not -name '*_test.go' -path './internal/sim/*' | xargs grep -h "^type [A-Za-z]*$1 struct" | wc -l | tr -d ' '; }
printf 'sim epoch-record / result structs: %s / %s\n' "$(structs EpochTrace)" "$(structs Result)"
# Stepped transports that implement delivery themselves (a Step method).
printf 'stepped transport types:           %s\n' "$(gofiles -not -name '*_test.go' -path './internal/network/*' | xargs grep -hE '^func \([a-z]+ \*?[A-Za-z]+\) Step\(\) int' | wc -l | tr -d ' ')"
printf 'context.Context in non-test Go:    %s\n' "$(gofiles -not -name '*_test.go' | xargs grep -l 'context\.Context' | wc -l | tr -d ' ')"
