#!/usr/bin/env sh
# Checks every `path.rs:N` reference in docs/*.md and README.md: the
# nearest backticked span before it names what the line holds, and that
# name (its last `::` segment, without `!` or `()`) must occur within
# three lines of line N of that file. A span that is itself a reference,
# or is not a name, fails: write one `symbol` — `path.rs:N` pair per
# symbol.
#
# usage: scripts/doc_refs.sh
set -eu
cd "$(dirname "$0")/.."

TAB=$(printf '\t')
refs=0
bad=""
for doc in docs/*.md README.md; do
    # One line per reference: doc, the span before it, path, line.
    found=$(awk -v doc="$doc" '
        { text = text $0 "\n" }
        END {
            n = split(text, part, "`")
            prev = ""
            for (i = 2; i <= n; i += 2) {
                tok = part[i]
                if (tok ~ /^[A-Za-z0-9_\/.-]+\.rs:[0-9]+$/) {
                    k = index(tok, ":")
                    print doc "\t" prev "\t" substr(tok, 1, k - 1) "\t" substr(tok, k + 1)
                }
                prev = tok
            }
        }' "$doc")
    [ -n "$found" ] || continue
    while IFS="$TAB" read -r d name path line; do
        refs=$((refs + 1))
        sym=${name##*::}
        sym=${sym%"()"}
        sym=${sym%!}
        case $sym in
            '' | *[!A-Za-z0-9_]*)
                bad="$bad
$d: \`$path:$line\` follows \`$name\`, which is not a name"
                continue
                ;;
        esac
        if [ ! -f "$path" ]; then
            bad="$bad
$d: \`$path:$line\`: no such file"
            continue
        fi
        lo=$((line > 3 ? line - 3 : 1))
        hi=$((line + 3))
        if ! sed -n "${lo},${hi}p" "$path" | grep -qw -- "$sym"; then
            bad="$bad
$d: \`$name\` is not within 3 lines of $path:$line"
        fi
    done <<EOF
$found
EOF
done

if [ -n "$bad" ]; then
    echo "doc_refs.sh: stale references:$bad" >&2
    exit 1
fi
echo "doc_refs.sh: $refs references, each names its line"
