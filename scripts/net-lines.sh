#!/bin/sh
# Lines added, removed and net in the working tree against a base
# revision (default HEAD), for program code and for tests:
#
#   scripts/net-lines.sh [base-rev]
#
# "code" is crates/ src/ examples/ minus crates/*/tests/; "tests" is
# tests/ and crates/*/tests/. Unit-test modules inside src/ count as
# code. New files count once they are staged (`git add`).
set -eu
base=${1:-HEAD}

count() {
    label=$1
    shift
    git diff --numstat "$base" -- "$@" | awk -v label="$label" '
        { add += $1; del += $2 }
        END { printf "%-5s +%d -%d net %+d\n", label, add, del, add - del }'
}

count code crates/ src/ examples/ ':(exclude)crates/*/tests/'
count tests tests/ 'crates/*/tests/'
