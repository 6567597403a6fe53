#!/bin/sh
# Documentation gate: type-check and parse the odoc markup in every
# public .mli of every library under lib/ with ocamldoc, and fail on
# exported values that nothing outside their own module uses.  The
# toolchain in CI has no odoc, so `dune build @doc` alone proves
# nothing; this script is what the `doc` alias actually runs.
# ocamldoc hard-fails on malformed markup (unclosed {b ...}, bad
# {!refs} syntax) while cross-library references it cannot resolve
# only warn, so the gate catches broken comments without demanding a
# fully linked doc tree.  A module it cannot find ("Module ... not
# found", "Module or module type ... not found") fails the gate: each
# library is documented with all its interfaces, so that warning means
# an in-library reference or alias is broken.
#
# Usage: check_docs.sh <build-root> <out-dir>
#   <build-root>  the dune context root (contains lib/engine/...)
#   <out-dir>     scratch space for logs and dump sinks
set -eu

root=$1
out=$2
mkdir -p "$out"

objs() { echo "$root/lib/$1/.$1.objs/byte"; }

# Capitalise a library name into its module name: engine -> Engine.
cap() {
    printf '%s%s' "$(printf '%s' "$1" | cut -c1 | tr '[:lower:]' '[:upper:]')" \
        "$(printf '%s' "$1" | cut -c2-)"
}

# Every in-repo library's compiled interfaces go on the include path.
incs=""
for dir in "$root"/lib/*/; do
    dep=$(basename "$dir")
    [ -d "$(objs "$dep")" ] && incs="$incs -I $(objs "$dep")"
done

# doc_lib <lib>: parse + type-check every interface of the library.
# A wrapped multi-module library needs its alias module opened
# (Engine, Obs); a single-module library must not open the very module
# it defines; a wrapped library with a main module of the library's
# own name (daemon) opens the generated `Lib__` alias instead, since
# the main module is the thing being checked.
doc_lib() {
    lib=$1
    set -- "$root/lib/$lib"/*.mli
    if [ -f "$root/lib/$lib/$lib.mli" ]; then
        if [ $# -eq 1 ]; then opens=""; else opens="-open $(cap "$lib")__"; fi
    else
        opens="-open $(cap "$lib")"
    fi
    # shellcheck disable=SC2086
    if ! ocamlfind ocamldoc -package fmt,unix,qcheck-core \
        $incs $opens -dump "$out/$lib.odump" "$@" \
        >"$out/$lib.log" 2>&1; then
        echo "check_docs: ocamldoc failed for $lib:" >&2
        cat "$out/$lib.log" >&2
        exit 1
    fi
    if missing_modules "$out/$lib.log" >&2; then
        echo "check_docs: unresolved module in $lib" >&2
        exit 1
    fi
    # Surface real warnings; unresolvable cross-library {!refs} are
    # expected (no linked doc tree) and filtered out.
    grep -v "^Warning: Element .* not found" "$out/$lib.log" || true
    echo "doc ok: $lib ($# interfaces)"
}

# missing_modules <log>: print ocamldoc's unresolved-module warnings;
# succeeds when there is at least one.
missing_modules() {
    grep -E "^Warning: Module (or module type )?.* not found" "$1"
}

for dir in "$root"/lib/*/; do
    doc_lib "$(basename "$dir")"
done

# Negative self-test: a planted reference to a module the library does
# not have must be reported as unresolved.
mkdir -p "$out/modcheck"
printf '(** See {!module:No_such_module}. *)\nval x : int\n' \
    >"$out/modcheck/planted.mli"
ocamlfind ocamldoc -dump "$out/modcheck/planted.odump" \
    "$out/modcheck/planted.mli" >"$out/modcheck/planted.log" 2>&1 || true
if ! missing_modules "$out/modcheck/planted.log" >/dev/null; then
    echo "check_docs: a planted unresolved module went unreported" >&2
    exit 1
fi
echo "unresolved-module self-test ok"

# --- dead-export check ---
# check_exports <tree>: every `val` (at any indentation) in
# <tree>/lib/*/*.mli must be named, as a word, in some .ml/.mli under
# lib, bin, bench, examples or test outside its own module's two files.
# A word match can miss a dead value whose name collides with another
# identifier, but it never flags a live one.  One pass builds the
# (file, word) index; awk then resolves every value against it.
check_exports() {
    tree=$1
    dirs=""
    for d in lib bin bench examples test; do
        [ -d "$tree/$d" ] && dirs="$dirs $tree/$d"
    done
    # shellcheck disable=SC2086
    find $dirs \( -name '*.ml' -o -name '*.mli' \) | sort >"$out/export-files"
    grep -H -E "^[[:space:]]*val [a-z_]" "$tree"/lib/*/*.mli \
        | sed -E "s/^([^:]*):[[:space:]]*val ([a-z_][A-Za-z0-9_']*).*/\1 \2/" \
        >"$out/export-vals"
    # shellcheck disable=SC2046
    grep -o -H -E "[A-Za-z_][A-Za-z0-9_']*" $(cat "$out/export-files") \
        | sort -u >"$out/export-words"
    awk '
        NR == FNR { n++; mli[n] = $1; name[n] = $2; ids[$2] = ids[$2] " " n; next }
        {
            i = index($0, ":"); file = substr($0, 1, i - 1); word = substr($0, i + 1)
            if (!(word in ids)) next
            k = split(ids[word], e, " ")
            for (j = 1; j <= k; j++)
                if (file != mli[e[j]] && file != substr(mli[e[j]], 1, length(mli[e[j]]) - 1))
                    live[e[j]] = 1
        }
        END {
            bad = 0
            for (j = 1; j <= n; j++)
                if (!(j in live)) { print "check_docs: unused export " name[j] " in " mli[j]; bad = 1 }
            exit bad
        }' "$out/export-vals" "$out/export-words" >&2
}

check_exports "$root"
echo "exports ok: every lib val is used outside its own module"

# Negative self-test: a planted unused value must be flagged, and a
# value used from another directory must not be.
plant="$out/exportcheck"
rm -rf "$plant"
mkdir -p "$plant/lib/demo" "$plant/bin"
printf 'val used_elsewhere : int\nval planted_unused_value : int\n' \
    >"$plant/lib/demo/demo.mli"
printf 'let used_elsewhere = 1\nlet planted_unused_value = 2\n' \
    >"$plant/lib/demo/demo.ml"
printf 'let () = print_int Demo.used_elsewhere\n' >"$plant/bin/main.ml"
if check_exports "$plant" 2>"$out/exportcheck.log"; then
    echo "check_docs: export checker failed to flag a planted unused val" >&2
    exit 1
fi
if ! grep -q "planted_unused_value" "$out/exportcheck.log" \
    || grep -q "used_elsewhere" "$out/exportcheck.log"; then
    echo "check_docs: export checker flagged the wrong values:" >&2
    cat "$out/exportcheck.log" >&2
    exit 1
fi
echo "export checker self-test ok"

# --- markdown link check ---
# Every relative link target written as [text](target) in the user-facing
# markdown docs must exist on disk (anchors and external URLs are
# skipped).  Catches the classic drift: a renamed or promised-but-absent
# document.
check_links() {
    ok=0
    for md in "$@"; do
        dir=$(dirname "$md")
        for target in $(grep -o '](\([^)]*\))' "$md" 2>/dev/null \
                            | sed 's/^](//; s/)$//'); do
            case $target in
            http://* | https://* | mailto:* | \#*) continue ;;
            esac
            path=${target%%#*}
            [ -z "$path" ] && continue
            if ! [ -e "$dir/$path" ]; then
                echo "check_docs: dead link in $md -> $target" >&2
                ok=1
            fi
        done
    done
    return $ok
}

docs_root=$(dirname "$0")
check_links \
    "$docs_root/../README.md" \
    "$docs_root/../DESIGN.md" \
    "$docs_root/../EXPERIMENTS.md" \
    "$docs_root"/*.md
echo "markdown links ok"

# Negative self-test: the checker must actually flag a dead link, or the
# pass above proves nothing.
mkdir -p "$out/linkcheck"
printf 'see [gone](no-such-file.md) but [not](https://example.org) this\n' \
    >"$out/linkcheck/bad.md"
if check_links "$out/linkcheck/bad.md" 2>/dev/null; then
    echo "check_docs: link checker failed to flag a dead link" >&2
    exit 1
fi
echo "link checker self-test ok"

echo "documentation gate passed"
