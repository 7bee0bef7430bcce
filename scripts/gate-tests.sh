#!/bin/sh
# Guard the named gates: every test name listed in a Makefile
# `-race -run '...'` pattern (the chaos and *-equiv targets) must exist
# in the packages that line tests. `go test -run` treats a pattern that
# matches nothing as success ("no tests to run"), so a renamed or deleted
# gate test would otherwise shrink its gate without a sound.
set -eu
cd "$(dirname "$0")/.."
GO="${GO:-go}"

# One line per gate invocation: "<pattern> <package>...".
gates=$(sed -n "s/^[[:space:]]*\$(GO) test -race -run '\([^']*\)' \(.*\)\$/\1 \2/p" Makefile)
if [ -z "$gates" ]; then
    echo "gate-tests: no -race -run gates found in the Makefile" >&2
    exit 1
fi

status=0
while read -r pattern pkgs; do
    # shellcheck disable=SC2086 # pkgs is a word list on purpose
    listed=$($GO test -list '.*' $pkgs)
    for name in $(printf '%s\n' "$pattern" | tr '|' ' '); do
        name=${name#^}
        name=${name%\$}
        if ! printf '%s\n' "$listed" | grep -qx "$name"; then
            echo "gate-tests: $name (pattern '$pattern') matches no test in $pkgs" >&2
            status=1
        fi
    done
done <<EOF
$gates
EOF
[ "$status" -eq 0 ] && echo "gate-tests: every gate test name resolves"
exit "$status"
