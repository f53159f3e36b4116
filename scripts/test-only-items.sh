#!/bin/sh
# Public items that only tests, examples or comments name:
#
#   scripts/test-only-items.sh
#
# Lists every `pub` fn, struct, enum, trait and const under crates/*/src
# whose name appears in no code outside `#[cfg(test)]` items, comment
# lines and its own definition. Code is crates/*/src, src/ and
# wavebench/src; tests/, crates/*/tests/, examples and the vendored stubs
# are not callers, and neither are `use` lines or a type's own `impl`
# blocks. The search is by name, so an item that shares its name with a
# used one is never listed. Prints one `kind name file:line` row per
# item.
set -eu
cd "$(dirname "$0")/.."

# Sorted, so a `#[cfg(test)] mod x;` is read before the file it names.
find crates/*/src src wavebench/src -name '*.rs' | sort | xargs awk '
# The line without string contents and trailing comments.
function code(s) {
    gsub(/"([^"\\]|\\.)*"/, "\"\"", s)
    sub(/(^|[[:space:]])\/\/.*$/, "", s)
    return s
}
FNR == 1 {
    depth = 0; skip = 0; pending = 0; nimpl = 0; in_use = 0
    if (FILENAME in test_file) nextfile
}
{
    c = code($0)
    delta = gsub(/\{/, "{", c) - gsub(/\}/, "}", c)
    if (skip) {
        depth += delta
        if (depth > skip_at) entered = 1
        if ((entered && depth <= skip_at) || (!entered && c ~ /;[[:space:]]*$/)) skip = 0
        next
    }
    if (c ~ /^[[:space:]]*#\[cfg\(test\)\]/) { pending = 1; next }
    if (pending && c ~ /^[[:space:]]*#\[/) next
    if (pending) {
        pending = 0
        if (c ~ /^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]+[a-z_0-9]+;/) {
            m = c
            sub(/^[[:space:]]*(pub[[:space:]]+)?mod[[:space:]]+/, "", m)
            sub(/;.*/, "", m)
            dir = FILENAME
            if (dir ~ /\/(mod|lib|main)\.rs$/) sub(/\/[^\/]*$/, "", dir)
            else sub(/\.rs$/, "", dir)
            test_file[dir "/" m ".rs"] = 1
            next
        }
        skip_at = depth; entered = 0; depth += delta
        if (depth > skip_at) entered = 1
        skip = !((entered && depth <= skip_at) || (!entered && c ~ /;[[:space:]]*$/))
        next
    }
    if (c ~ /^[[:space:]]*$/) { depth += delta; next }
    # An import or re-export names an item without calling it.
    if (in_use || c ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?use[[:space:]]/) {
        in_use = (c !~ /;[[:space:]]*$/)
        next
    }

    # The type an `impl ... {}` block opened on this line belongs to.
    if (c ~ /^[[:space:]]*impl[[:space:]<]/) {
        t = c
        sub(/[[:space:]]*(where|\{).*$/, "", t)
        if (t ~ /[[:space:]]for[[:space:]]/) {
            sub(/^.*[[:space:]]for[[:space:]]+/, "", t)
        } else {
            sub(/^[[:space:]]*impl/, "", t)
            while (t ~ /^[[:space:]]*</) {
                n = 0
                for (i = 1; i <= length(t); i++) {
                    ch = substr(t, i, 1)
                    if (ch == "<") n++
                    if (ch == ">" && --n == 0) break
                }
                t = substr(t, i + 1)
            }
        }
        sub(/^[[:space:]]*/, "", t)
        sub(/[^A-Za-z0-9_].*$/, "", t)
        nimpl++; impl_type[nimpl] = t; impl_depth[nimpl] = depth
    }
    cur = (nimpl > 0) ? impl_type[nimpl] : ""

    def = ""
    if (FILENAME ~ /^crates\/[^\/]*\/src\// &&
        match(c, /^[[:space:]]*pub[[:space:]]+(const[[:space:]]+)?(unsafe[[:space:]]+)?(fn|struct|enum|trait|const)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
        d = substr(c, RSTART, RLENGTH)
        def = d; sub(/^.*[[:space:]]/, "", def)
        kind = d; sub(/[[:space:]]+[A-Za-z0-9_]+$/, "", kind); sub(/^.*[[:space:]]/, "", kind)
        defs++; def_name[defs] = def; def_kind[defs] = kind; def_at[defs] = FILENAME ":" FNR
    }

    s = c
    gsub(/[^A-Za-z0-9_]/, " ", s)
    nt = split(s, tok, " ")
    split("", seen)
    for (i = 1; i <= nt; i++) {
        w = tok[i]
        if (w in seen) continue
        seen[w] = 1
        if (w == def || w == cur) continue
        uses[w]++
    }

    depth += delta
    while (nimpl > 0 && depth <= impl_depth[nimpl]) nimpl--
}
END {
    for (k = 1; k <= defs; k++)
        if (!(def_name[k] in uses))
            printf "%s %s %s\n", def_kind[k], def_name[k], def_at[k]
}
' | sort -k3
