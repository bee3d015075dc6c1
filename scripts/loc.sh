#!/bin/sh
# loc.sh DIR [BASE]: non-blank, non-comment Go lines outside benchmark/ and
# _test.go files, per package directory, for DIR — and, given BASE (another
# checkout of the repository), for BASE and the difference.
set -e

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

if [ -z "$2" ]; then
	count "$1" | awk '{ printf "%-32s %7d\n", $1, $2; t += $2 } END { printf "%-32s %7d\n", "total", t }'
	exit
fi
{ count "$2" | sed 's/^/base /'; count "$1" | sed 's/^/head /'; } | awk '
	{ seen[$2] = 1; v[$1, $2] = $3 }
	END {
		for (p in seen) printf "%s %d %d\n", p, v["base", p], v["head", p]
	}' | sort | awk '
	BEGIN { printf "%-32s %7s %7s %7s\n", "package", "base", "head", "net" }
	{ printf "%-32s %7d %7d %+7d\n", $1, $2, $3, $3 - $2; b += $2; h += $3 }
	END { printf "%-32s %7d %7d %+7d\n", "total", b, h, h - b }'
