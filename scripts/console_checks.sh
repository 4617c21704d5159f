#!/usr/bin/env bash
# Console checks: the `svmv` command against the golden outputs, its exit
# codes and its memory limits.
#
#   scripts/console_checks.sh                       # the installed `svmv`
#   SVMV="python -m svmv.cli" PYTHONPATH=src scripts/console_checks.sh
#
# SVMV is the command to test (default `svmv`).  Run from any directory:
# relative PYTHONPATH entries are resolved against the caller's directory,
# and the checks run from the repository root.
set -eo pipefail

SVMV=${SVMV:-svmv}
if [ -n "${PYTHONPATH:-}" ]; then
  PYTHONPATH=$(python -c 'import os, sys; print(os.pathsep.join(os.path.abspath(p) for p in sys.argv[1].split(os.pathsep)))' "$PYTHONPATH")
  export PYTHONPATH
fi
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$SVMV reproduce --seed 7 --d-max 3 --out - | diff - tests/golden/reproduce_seed7_dmax3.csv
$SVMV reproduce --seed 0 --out - | diff - tests/golden/reproduce_seed0.csv
$SVMV reproduce --seed 1729 --out - | diff - tests/golden/reproduce_seed1729.csv
$SVMV psw --d 5 | diff - tests/golden/psw_d5.json
$SVMV psw --d 6 | diff - tests/golden/psw_d6.json
$SVMV bisim --family g --d 5 --a "(1,0)" --b "(2,1)" --radius 10 --collapsed | diff - tests/golden/bisim_g_d5_collapsed.json
$SVMV bisim --family hb --d 3 --a "(1,0,B)" --b "(2,1,B)" --radius 6 --collapsed | diff - tests/golden/bisim_hb_d3_collapsed.json
(ulimit -v 131072; timeout 30 $SVMV bisim --family g --d 6 --a "(1,0)" --b "(2,1)" --radius 12 --collapsed) | python -c "import json, sys; assert json.load(sys.stdin)['failing_radius'] == 10"
$SVMV build --family hb --d 2 --radius 4 --collapse --out "$tmp/hb2r4"
$SVMV simulate --inner pi-solver --graph "$tmp/hb2r4.json" | diff - tests/golden/simulate_hb_d2_pi_solver.json
$SVMV simulate --inner multiset-echo --graph "$tmp/hb2r4.json" | diff - tests/golden/simulate_hb_d2_multiset_echo.json
$SVMV simulate --inner pi-solver --graph tests/golden/simulate_random_graph.json | diff - tests/golden/simulate_random_pi_solver.json
$SVMV simulate --inner multiset-echo --graph tests/golden/simulate_random_graph.json | diff - tests/golden/simulate_random_multiset_echo.json
$SVMV psw --d 7 | diff - tests/golden/psw_d7.json
code=0; (ulimit -v 524288; timeout 5 $SVMV build --family g --d 6 --radius 11 --out "$tmp/g6r11") 2> "$tmp/build.err" || code=$?; test "$code" -eq 3; grep -q "^resource cap: ball exceeds 500000 nodes" "$tmp/build.err"
(ulimit -v 196608; timeout 60 $SVMV psw --d 8) | python -c "import json, sys; assert json.load(sys.stdin)['k'] == 13"
code=0; (ulimit -v 98304; timeout 60 $SVMV psw --d 8) > /dev/null 2> "$tmp/psw8.err" || code=$?; test "$code" -eq 3; test "$(wc -l < "$tmp/psw8.err")" -eq 1; grep -q "^resource cap: " "$tmp/psw8.err"; test -z "$(grep -e Traceback -e "lost sys.stderr" "$tmp/psw8.err")"
code=0; timeout 5 $SVMV psw --d 9 2> "$tmp/psw9.err" || code=$?; test "$code" -eq 3; grep -q "^resource cap: " "$tmp/psw9.err"
code=0; (cd "$tmp" && timeout 5 $SVMV psw --d 5 --format dot --out p5) 2> "$tmp/p5.err" || code=$?; test "$code" -eq 3; grep -q "^resource cap: ball exceeds 500000 nodes" "$tmp/p5.err"; test ! -e "$tmp/p5"; test ! -e "$tmp/p5.dot"
mkdir "$tmp/dash"; for args in "psw --d 2 --format dot" "build --family g --d 2 --radius 1"; do code=0; (cd "$tmp/dash" && $SVMV $args --out -) 2> "$tmp/dash.err" || code=$?; test "$code" -eq 2; grep -q "^usage error: --out - " "$tmp/dash.err"; test -z "$(ls -A "$tmp/dash")"; done
code=0; timeout 5 $SVMV build --family g --d 100000 --radius 200000 --out "$tmp/huge" 2> "$tmp/huge.err" || code=$?; test "$code" -eq 3; grep -q "^resource cap: ball exceeds 500000 nodes" "$tmp/huge.err"
for family in g hb; do $SVMV build --family $family --d 3 --radius 6 --collapse --out "$tmp/${family}3r6"; python -c "import hashlib, json, sys; family, base = sys.argv[1:]; want = next(b for b in json.load(open('tests/golden/build_digests.json'))['balls'] if (b['family'], b['d'], b['center'], b['radius'], b['collapse']) == (family, 3, '()', 6, True)); bad = [ext for ext in ('json', 'dot') if hashlib.sha256(open(base + '.' + ext, 'rb').read()).hexdigest() != want[ext + '_sha256']]; sys.exit(f'{base}: {bad} differ from tests/golden/build_digests.json' if bad else 0)" $family "$tmp/${family}3r6"; done
$SVMV build --family g --d 2 --radius 2 --out "$tmp/g2r2"
code=0; $SVMV simulate --inner multiset-echo --graph "$tmp/g2r2.json" 2> "$tmp/simulate.err" || code=$?; test "$code" -eq 2; grep -q "^usage error: " "$tmp/simulate.err"
echo '{"nodes": [{"id": "a", "colour": "B"}, {"id": "b", "colour": "W"}, {"id": "c", "colour": "B"}], "edges": [{"u": "a", "v": "b", "port_uv": 1, "port_vu": 1}, {"u": "a", "v": "c", "port_uv": 1, "port_vu": 1}]}' > "$tmp/reused.json"
code=0; $SVMV simulate --inner pi-solver --graph "$tmp/reused.json" 2> "$tmp/reused.err" || code=$?; test "$code" -eq 2; grep -q "^usage error: malformed graph document: node 'a' reuses out-port 1" "$tmp/reused.err"
echo '{"nodes": [{"id": "a"}], "edges": [{"u": "a", "v": "z", "port_uv": 1, "port_vu": 1}]}' > "$tmp/unlisted.json"
code=0; $SVMV simulate --inner multiset-echo --graph "$tmp/unlisted.json" 2> "$tmp/unlisted.err" || code=$?; test "$code" -eq 2; grep -q "^usage error: malformed graph document" "$tmp/unlisted.err"
$SVMV theorem2 --d 3 | python -c "import json, sys; r = json.load(sys.stdin); del r['timings_ms']; print(json.dumps(r, indent=2, sort_keys=True))" | diff - tests/golden/theorem2_d3.json
$SVMV theorem1 --delta 4 | python -c "import json, sys; r = json.load(sys.stdin); del r['timings_ms']; print(json.dumps(r, indent=2, sort_keys=True))" | diff - tests/golden/theorem1_delta4.json

# reproduce --seed 0 fits its memory limit.
(ulimit -v 40960; timeout 60 $SVMV reproduce --seed 0 --out -) | diff - tests/golden/reproduce_seed0.csv

# Collapsed g d=7 bisimilarity fits its memory limit.
(ulimit -v 90112; timeout 60 $SVMV bisim --family g --d 7 --a "(1,0)" --b "(2,1)" --radius 14 --collapsed) | python -c "import json, sys; assert json.load(sys.stdin)['failing_radius'] == 12"
echo "console checks passed"
