#!/usr/bin/env sh
# The scenario gauntlet: runs scenario presets, writes their JSON
# reports to scenario-reports/, and enforces the QoS gates CI relies on.
#
# Usage:
#   scripts/run_scenarios.sh --smoke   # CI: smoke + metropolis-1k @5%
#                                      # + the overload presets
#                                      # + the backpressure presets;
#                                      # zero deadline misses required
#                                      # (for admitted sessions),
#                                      # overload must reject some
#                                      # sessions deterministically,
#                                      # zero admitted overflow drops,
#                                      # sustained-3x must renegotiate
#                                      # down AND back up,
#                                      # determinism checked byte-for-byte,
#                                      # canonical reports byte-identical
#                                      # at --shards 1/2/4 on the data
#                                      # plane (smoke, metropolis-1k @5%),
#                                      # and a control-plane preset
#                                      # (sustained-3x) asked for four
#                                      # shards must say it clamped to
#                                      # one and report the same bytes
#   scripts/run_scenarios.sh --full    # every preset at full scale
#                                      # (fault presets may miss by design;
#                                      # only completion is enforced)
set -eu
cd "$(dirname "$0")/.."

MODE="${1:---smoke}"
OUTDIR=scenario-reports
mkdir -p "$OUTDIR"

cargo build --release --bin pegasus-scenario
BIN=target/release/pegasus-scenario

field_of() {
    # field_of FILE KEY — first integer value of "KEY": in the report.
    awk -v key="\"$2\":" '{
        line = $0
        if (index(line, key) == 0) next
        sub(".*" key, "", line)
        sub(/[,}].*$/, "", line)
        print line
        exit
    }' "$1"
}

require_clean() {
    # require_clean NAME FILE — the preset must report zero misses.
    # Rejected sessions are never wired, so deadline_misses is by
    # construction a claim about admitted sessions only.
    MISSES=$(field_of "$2" deadline_misses)
    if [ -z "$MISSES" ]; then
        echo "run_scenarios.sh: no deadline_misses in $2" >&2
        exit 1
    fi
    if [ "$MISSES" -ne 0 ]; then
        echo "run_scenarios.sh: $1 reported $MISSES deadline misses (want 0)" >&2
        exit 1
    fi
    echo "run_scenarios.sh: $1 clean (0 deadline misses)"
}

require_rejections() {
    # require_rejections NAME FILE — an overload preset must turn
    # sessions away; zero rejections means admission control is not
    # actually gating anything.
    REJECTED=$(field_of "$2" rejected)
    if [ -z "$REJECTED" ] || [ "$REJECTED" -eq 0 ]; then
        echo "run_scenarios.sh: $1 rejected '${REJECTED:-none}' sessions (want > 0)" >&2
        exit 1
    fi
    echo "run_scenarios.sh: $1 rejected $REJECTED sessions under overload"
}

require_no_overflow() {
    # require_no_overflow NAME FILE — no admitted session's cell may be
    # lost to queue overflow: admission control bounds the average rates
    # and, where enabled, credit backpressure bounds the queues by
    # construction. An overflow drop on an admitted circuit is silent
    # degradation and fails the gate.
    OVER=$(field_of "$2" admitted_dropped_overflow)
    if [ -z "$OVER" ]; then
        echo "run_scenarios.sh: no admitted_dropped_overflow in $2" >&2
        exit 1
    fi
    if [ "$OVER" -ne 0 ]; then
        echo "run_scenarios.sh: $1 dropped $OVER admitted cells to overflow (want 0)" >&2
        exit 1
    fi
    echo "run_scenarios.sh: $1 zero admitted overflow drops"
}

require_renegotiation() {
    # require_renegotiation NAME FILE — the congestion loop must have
    # both degraded under pressure and restored when it cleared;
    # otherwise the backpressure preset is not exercising the loop.
    DOWN=$(field_of "$2" renegotiations_down)
    UP=$(field_of "$2" renegotiations_up)
    if [ -z "$DOWN" ] || [ "$DOWN" -eq 0 ]; then
        echo "run_scenarios.sh: $1 renegotiated nothing down (want > 0)" >&2
        exit 1
    fi
    if [ -z "$UP" ] || [ "$UP" -eq 0 ]; then
        echo "run_scenarios.sh: $1 restored nothing after the pressure cleared (want > 0)" >&2
        exit 1
    fi
    echo "run_scenarios.sh: $1 renegotiated $DOWN down, $UP up"
}

require_shard_invariance() {
    # require_shard_invariance NAME PRESET ARGS... — the canonical
    # report (schema minus the per-shard execution block) must be
    # byte-identical at --shards 1, 2 and 4.
    NAME=$1
    shift
    "$BIN" run "$@" --shards 1 --canonical --quiet \
        --out "$OUTDIR/$NAME.shards1.json"
    for n in 2 4; do
        "$BIN" run "$@" --shards "$n" --canonical --quiet \
            --out "$OUTDIR/$NAME.shards$n.json"
        if ! cmp -s "$OUTDIR/$NAME.shards1.json" "$OUTDIR/$NAME.shards$n.json"; then
            echo "run_scenarios.sh: $NAME canonical report differs at --shards $n" >&2
            exit 1
        fi
    done
    echo "run_scenarios.sh: $NAME byte-identical at --shards 1, 2 and 4"
}

require_deterministic() {
    # require_deterministic NAME PRESET ARGS... — rerun and byte-compare.
    NAME=$1
    shift
    "$BIN" run "$@" --quiet --out "$OUTDIR/$NAME.rerun.json"
    if ! cmp -s "$OUTDIR/$NAME.json" "$OUTDIR/$NAME.rerun.json"; then
        echo "run_scenarios.sh: $NAME report is not deterministic" >&2
        exit 1
    fi
    echo "run_scenarios.sh: $NAME deterministic"
}

if [ "$MODE" = "--smoke" ]; then
    "$BIN" run smoke --seed 7 --quiet --out "$OUTDIR/smoke.json"
    require_clean smoke "$OUTDIR/smoke.json"

    # Determinism gate: the same spec and seed must serialize
    # byte-identically.
    require_deterministic smoke smoke --seed 7

    # Cross-shard determinism gate: the canonical report (schema minus
    # the per-shard execution block) must be byte-identical whether the
    # city runs on one thread or across region shards. smoke's
    # two-switch star clamps --shards 4 to 2 real shards; the 16-switch
    # metropolis mesh runs 4 genuine ones.
    require_shard_invariance smoke smoke --seed 7
    require_shard_invariance metropolis-smoke metropolis-1k --seed 7 --scale 0.05

    # The city, CI-sized: 5% of the sessions on the full 16-switch mesh.
    "$BIN" run metropolis-1k --seed 7 --scale 0.05 --quiet \
        --out "$OUTDIR/metropolis-smoke.json"
    require_clean "metropolis-1k@5%" "$OUTDIR/metropolis-smoke.json"

    # The overload presets: admitted sessions stay clean, the surplus is
    # rejected — deterministically.
    for preset in overload-2x flash-crowd; do
        "$BIN" run "$preset" --quiet --out "$OUTDIR/$preset.json"
        require_clean "$preset (admitted sessions)" "$OUTDIR/$preset.json"
        require_rejections "$preset" "$OUTDIR/$preset.json"
        require_no_overflow "$preset" "$OUTDIR/$preset.json"
        require_deterministic "$preset" "$preset"
    done

    # Sustained 3x best-effort overload with credit backpressure:
    # bounded queues, zero overflow, zero misses, and the congestion
    # loop must renegotiate down under the blast and back up after it.
    "$BIN" run sustained-3x --quiet --out "$OUTDIR/sustained-3x.json"
    require_clean "sustained-3x (admitted sessions)" "$OUTDIR/sustained-3x.json"
    require_no_overflow sustained-3x "$OUTDIR/sustained-3x.json"
    require_renegotiation sustained-3x "$OUTDIR/sustained-3x.json"
    require_deterministic sustained-3x sustained-3x

    # Only the data plane shards: a preset with a control plane asked
    # for four shards says it clamped to one and reports the same bytes.
    "$BIN" run sustained-3x --shards 1 --canonical --quiet \
        --out "$OUTDIR/sustained-3x.shards1.json"
    "$BIN" run sustained-3x --shards 4 --canonical --quiet \
        --out "$OUTDIR/sustained-3x.shards4.json" 2>"$OUTDIR/sustained-3x.shards4.err"
    if ! grep -q '^note: clamped to 1 shard(s) of 4 requested' "$OUTDIR/sustained-3x.shards4.err"; then
        echo "run_scenarios.sh: sustained-3x at --shards 4 did not report its clamp" >&2
        exit 1
    fi
    if ! cmp -s "$OUTDIR/sustained-3x.shards1.json" "$OUTDIR/sustained-3x.shards4.json"; then
        echo "run_scenarios.sh: sustained-3x canonical report differs at --shards 4" >&2
        exit 1
    fi
    echo "run_scenarios.sh: sustained-3x clamps --shards 4 to one shard, same bytes"

    # The VoD city with the tiered content cache: zero misses, a
    # byte-identical rerun, and the §5 cache claims measured, not
    # asserted — the flash-crowd title must be served from the hot
    # tier's shared buffers (>= 900 per mille) and the tiers must have
    # absorbed real disk I/O.
    "$BIN" run vod-city --quiet --out "$OUTDIR/vod-city.json"
    require_clean vod-city "$OUTDIR/vod-city.json"
    require_deterministic vod-city vod-city
    CROWD_HOT=$(field_of "$OUTDIR/vod-city.json" crowded_title_hot_milli)
    if [ -z "$CROWD_HOT" ] || [ "$CROWD_HOT" -lt 900 ]; then
        echo "run_scenarios.sh: vod-city crowd hot-tier ratio ${CROWD_HOT:-missing}/1000 (want >= 900)" >&2
        exit 1
    fi
    echo "run_scenarios.sh: vod-city crowd served $CROWD_HOT/1000 from the hot tier"
    SAVED=$(field_of "$OUTDIR/vod-city.json" disk_io_saved_cells)
    if [ -z "$SAVED" ] || [ "$SAVED" -eq 0 ]; then
        echo "run_scenarios.sh: vod-city saved ${SAVED:-no} disk cells (want > 0)" >&2
        exit 1
    fi
    echo "run_scenarios.sh: vod-city tiers absorbed $SAVED cells of disk I/O"

    # The nemesis storm under backpressure: faults strand circuits and
    # shrink queues, so drops happen — but they are *attributed*, the
    # loop still degrades under pressure, and the report is byte-stable.
    "$BIN" run storm-backpressure --scale 0.5 --quiet \
        --out "$OUTDIR/storm-backpressure.json"
    DOWN=$(field_of "$OUTDIR/storm-backpressure.json" renegotiations_down)
    if [ -z "$DOWN" ] || [ "$DOWN" -eq 0 ]; then
        echo "run_scenarios.sh: storm-backpressure never degraded under the storm" >&2
        exit 1
    fi
    echo "run_scenarios.sh: storm-backpressure renegotiated $DOWN down under the storm"
    require_deterministic storm-backpressure storm-backpressure --scale 0.5
elif [ "$MODE" = "--full" ]; then
    for preset in smoke videophone-wall vod-rack tv-studio nemesis-storm \
                  metropolis-1k overload-2x flash-crowd sustained-3x \
                  storm-backpressure vod-city; do
        "$BIN" run "$preset" --out "$OUTDIR/$preset.json"
    done
    # The 100k-session city runs under the sharded executor at full
    # scale; completion and the in-binary canonical cross-checks are
    # the gate here.
    "$BIN" run metropolis-100k --shards 4 --out "$OUTDIR/metropolis-100k.json"
    # The clean presets must stay clean even at full scale — including
    # the overload trio, whose *admitted* sessions must never miss.
    for preset in smoke videophone-wall vod-rack tv-studio metropolis-1k \
                  overload-2x flash-crowd sustained-3x vod-city; do
        require_clean "$preset" "$OUTDIR/$preset.json"
    done
    for preset in overload-2x flash-crowd; do
        require_rejections "$preset" "$OUTDIR/$preset.json"
    done
    for preset in overload-2x flash-crowd sustained-3x; do
        require_no_overflow "$preset" "$OUTDIR/$preset.json"
    done
    require_renegotiation sustained-3x "$OUTDIR/sustained-3x.json"
else
    echo "usage: scripts/run_scenarios.sh [--smoke|--full]" >&2
    exit 2
fi

echo "run_scenarios.sh: all gates passed"
