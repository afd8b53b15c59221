#!/usr/bin/env bash
# surface.sh prints the four numbers a simplicity change is judged by, so a
# PR quotes them instead of recounting by hand. Run from anywhere; compare
# the output of the parent checkout with the change's.
#
#   surface.sh --check FILE   also compares with the numbers committed in FILE
#                             (this script's output at some earlier commit,
#                             path relative to the repo root) and exits 1 when
#                             any has grown: a change that adds lines, flags,
#                             fields or kinds edits FILE and says why.
set -euo pipefail
cd "$(dirname "$0")/.."
check=
if [ "${1:-}" = --check ]; then
	check=${2:?surface.sh --check needs the file holding the committed numbers}
fi

# Non-test Go lines of the root module (benchmark/ is its own module).
lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -print0 | xargs -0 cat | wc -l)

# Flag definitions under cmd/: every flag.X / flag.XVar / fs.X registration.
flags=$(grep -rhE --include='*.go' --exclude='*_test.go' \
	'\b(flag|fs)\.(Bool|Int|Int64|Uint|Uint64|String|Duration|Float64)(Var)?\(' cmd | wc -l)

# Exported fields of every config struct (a type named or ending in Config,
# Options or Scale) in the packages a tunable travels through.
fields=$(find internal/server internal/dtm internal/cluster internal/harness internal/wal \
	-name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat |
	awk '
		/^type ([A-Z][A-Za-z0-9]*)?(Config|Options|Scale) struct \{/ { in_cfg = 1; next }
		in_cfg && /^\}/ { in_cfg = 0 }
		in_cfg && /^\t[A-Z][A-Za-z0-9]*(, [A-Z][A-Za-z0-9]*)* / {
			decl = $0; sub(/^\t/, "", decl)
			while (match(decl, /^[A-Z][A-Za-z0-9]*, /)) { n++; decl = substr(decl, RLENGTH + 1) }
			n++
		}
		END { print n + 0 }')

# Wire kinds: the constants of wire.Kind (numKinds is the unexported sentinel).
kinds=$(awk '/^\tKind[A-Z][A-Za-z]*( Kind = iota)?$/ { n++ } END { print n + 0 }' internal/wire/wire.go)

now=$(printf '%-19s %d\n' go_lines_non_test "$lines" cmd_flag_defs "$flags" config_fields "$fields" wire_kinds "$kinds")
echo "$now"
[ -n "$check" ] || exit 0

grown=0
while read -r name value; do
	committed=$(awk -v n="$name" '$1 == n { print $2 }' "$check")
	if [ -z "$committed" ]; then
		echo "surface: $check has no line for $name" >&2
		grown=1
	elif [ "$value" -gt "$committed" ]; then
		echo "surface: $name grew from $committed to $value; if that is meant, update $check and say why" >&2
		grown=1
	fi
done <<<"$now"
exit "$grown"
