#!/bin/sh
# loc.sh DIR [BASE]: non-blank, non-comment Go lines outside benchmark/ and
# _test.go files, per package directory, for DIR — and, given BASE (another
# checkout of the repository), for BASE and the difference. Exits non-zero
# when DIR's total is over RATCHET.
set -e

# RATCHET is ROADMAP's ceiling on the engine's total ("LOC ratchet"); a
# re-anchor of ROADMAP that moves the ceiling edits it here too.
RATCHET=22600

count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './.git/*' | sort | xargs awk '
		FNR == 1 { block = 0; pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg) }
		{
			line = $0
			sub(/^[ \t]+/, "", line)
			if (block) { if (index(line, "*/")) block = 0; next }
			if (line == "" || substr(line, 1, 2) == "//") next
			if (substr(line, 1, 2) == "/*") { if (!index(line, "*/")) block = 1; next }
			n[pkg]++
		}
		END { for (p in n) print p, n[p] }' | sort)
}

head=$(count "$1")
if [ -z "$2" ]; then
	echo "$head" | awk '{ printf "%-32s %7d\n", $1, $2; t += $2 } END { printf "%-32s %7d\n", "total", t }'
else
	{ count "$2" | sed 's/^/base /'; echo "$head" | sed 's/^/head /'; } | awk '
		{ seen[$2] = 1; v[$1, $2] = $3 }
		END {
			for (p in seen) printf "%s %d %d\n", p, v["base", p], v["head", p]
		}' | sort | awk '
		BEGIN { printf "%-32s %7s %7s %7s\n", "package", "base", "head", "net" }
		{ printf "%-32s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; b += $2; h += $3 }
		END { printf "%-32s %7d %7d %+7d\n", "total", b, h, h - b }'
fi
total=$(echo "$head" | awk '{ t += $2 } END { print t + 0 }')
if [ "$total" -gt "$RATCHET" ]; then
	echo "loc: $total engine lines is over the ROADMAP ratchet of $RATCHET" >&2
	exit 1
fi
