#!/bin/sh
# Documentation gate: type-check and parse the odoc markup in every
# public .mli of the core libraries with ocamldoc.  The toolchain in CI
# has no odoc, so `dune build @doc` alone proves nothing; this script is
# what the `doc` alias actually runs.  ocamldoc hard-fails on malformed
# markup (unclosed {b ...}, bad {!refs} syntax) while cross-library
# references it cannot resolve only warn, so the gate catches broken
# comments without demanding a fully linked doc tree.
#
# Usage: check_docs.sh <build-root> <out-dir>
#   <build-root>  the dune context root (contains lib/engine/...)
#   <out-dir>     scratch space for logs and dump sinks
set -eu

root=$1
out=$2
mkdir -p "$out"

objs() { echo "$root/lib/$1/.$1.objs/byte"; }

# doc_one <lib> <-open flags...> -- <mli...>: parse + type-check the
# listed interfaces with every in-repo dependency's compiled interfaces
# on the include path.  Wrapped multi-module libraries need their alias
# module opened (Engine, Obs); single-module libraries must not open
# the very module they define; a wrapped library with a main module of
# the library's own name (daemon) opens the generated `Lib__` alias
# instead, since the main module is the thing being checked.
doc_one() {
    lib=$1
    shift
    opens=""
    while [ "$1" != "--" ]; do
        opens="$opens -open $1"
        shift
    done
    shift
    incs=""
    for dep in engine packet netgraph netsim tcp mptcp measure lp core audit fuzz obs fluid validate events serve daemon; do
        [ -d "$(objs "$dep")" ] && incs="$incs -I $(objs "$dep")"
    done
    # shellcheck disable=SC2086
    if ! ocamlfind ocamldoc -package fmt,unix,qcheck-core \
        $incs $opens -dump "$out/$lib.odump" "$@" \
        >"$out/$lib.log" 2>&1; then
        echo "check_docs: ocamldoc failed for $lib:" >&2
        cat "$out/$lib.log" >&2
        exit 1
    fi
    # Surface real warnings; unresolvable cross-library {!refs} are
    # expected (no linked doc tree) and filtered out.
    grep -v "^Warning: Element .* not found" "$out/$lib.log" || true
    echo "doc ok: $lib"
}

doc_one engine Engine -- \
    "$root/lib/engine/time.mli" \
    "$root/lib/engine/heap.mli" \
    "$root/lib/engine/wheel.mli" \
    "$root/lib/engine/rng.mli" \
    "$root/lib/engine/sched.mli" \
    "$root/lib/engine/tap.mli" \
    "$root/lib/engine/pool.mli" \
    "$root/lib/engine/int_table.mli"

doc_one packet -- \
    "$root/lib/packet/packet.mli"

doc_one netsim Netsim -- \
    "$root/lib/netsim/linkq.mli" \
    "$root/lib/netsim/net.mli"

doc_one tcp Tcp -- \
    "$root/lib/tcp/sender.mli" \
    "$root/lib/tcp/receiver.mli"

doc_one mptcp Mptcp -- \
    "$root/lib/mptcp/chunks.mli" \
    "$root/lib/mptcp/connection.mli"

doc_one audit -- \
    "$root/lib/audit/audit.mli"

doc_one fuzz -- \
    "$root/lib/fuzz/fuzz.mli"

doc_one fluid Fluid -- \
    "$root/lib/fluid/controller.mli" \
    "$root/lib/fluid/ode.mli" \
    "$root/lib/fluid/model.mli" \
    "$root/lib/fluid/equilibrium.mli" \
    "$root/lib/fluid/trajectory.mli" \
    "$root/lib/fluid/background.mli"

doc_one validate -- \
    "$root/lib/validate/validate.mli"

doc_one obs Obs -- \
    "$root/lib/obs/ring.mli" \
    "$root/lib/obs/trace.mli" \
    "$root/lib/obs/metrics.mli" \
    "$root/lib/obs/collect.mli"

doc_one events Events -- \
    "$root/lib/events/sexp.mli" \
    "$root/lib/events/event.mli" \
    "$root/lib/events/parse.mli"

doc_one measure Measure -- \
    "$root/lib/measure/capture.mli" \
    "$root/lib/measure/converge.mli" \
    "$root/lib/measure/probe.mli" \
    "$root/lib/measure/render.mli" \
    "$root/lib/measure/sampler.mli" \
    "$root/lib/measure/series.mli" \
    "$root/lib/measure/stats.mli" \
    "$root/lib/measure/trace.mli"

doc_one core Core -- \
    "$root/lib/core/canon.mli" \
    "$root/lib/core/expfile.mli" \
    "$root/lib/core/figures.mli" \
    "$root/lib/core/paper_net.mli" \
    "$root/lib/core/scaling.mli" \
    "$root/lib/core/scenario.mli" \
    "$root/lib/core/summary.mli"

doc_one serve Serve -- \
    "$root/lib/serve/store.mli" \
    "$root/lib/serve/trend.mli" \
    "$root/lib/serve/batch.mli" \
    "$root/lib/serve/service.mli"

doc_one daemon Daemon__ -- \
    "$root/lib/daemon/protocol.mli" \
    "$root/lib/daemon/daemon.mli"

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
