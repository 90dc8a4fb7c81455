#!/usr/bin/env bash
# Layer-grouped gprof profile of one perfbench iteration.
#
#   scripts/profile_layers.sh [WORKLOAD] [BUILD_DIR] [SEED]
#
# Configures perfbench/ (Release, the benchmark's own build type) with -pg
# into BUILD_DIR (default build-prof/, outside the benchmark's build tree),
# runs one perfbench_driver iteration of WORKLOAD (default platform_m2m) at
# benchmark seed SEED (default 0), and prints the flat profile's self time
# grouped by layer:
#
#   agent/model   wtr::sim (except the event queue), wtr::signaling,
#                 wtr::devices, wtr::faults, wtr::stats, wtr::cellnet
#                 (except the country table)
#   topology      wtr::topology and the country-table lookups
#   event queue   wtr::sim::EventQueue
#   sink <name>   one row per wtr::core class or free function
#   alloc/libc    _init, malloc/free, operator new/delete and other libc
#                 entry points (gprof charges time in shared libraries that
#                 it cannot resolve to _init)
#   std templates std:: instantiations (hash tables, vector growth, sorts),
#                 except those over a wtr::core type, which count as that sink
#   other         everything else (obs, io, the driver)
#
# gprof samples only code it has symbols for and charges an inlined callee
# to its caller, so flat self time undercounts allocation-heavy callers:
# read the alloc/libc and std rows together with the layer that calls them.
# The full flat profile is kept in BUILD_DIR/flat.txt. Profile threads=1
# workloads (mno_census, platform_m2m); with several shard threads the
# samples land on whichever thread takes the profiling signal.
set -euo pipefail

workload="${1:-platform_m2m}"
repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${2:-$repo/build-prof}"
seed="${3:-0}"

generator=()
command -v ninja >/dev/null && generator=(-G Ninja)
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -S "$repo/perfbench" -B "$build_dir" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-pg \
    -DCMAKE_EXE_LINKER_FLAGS=-pg >&2
fi
cmake --build "$build_dir" --target perfbench_driver -j "$(nproc)" >&2

# gmon.out lands in the working directory of the profiled process.
rm -f "$build_dir/gmon.out"
(cd "$build_dir" && ./perfbench_driver --workload "$workload" --seed "$seed" \
  >"$build_dir/driver.json")
gprof -b -p "$build_dir/perfbench_driver" "$build_dir/gmon.out" >"$build_dir/flat.txt"

python3 - "$build_dir/flat.txt" "$workload" <<'EOF'
import re
import sys
from collections import defaultdict

path, workload = sys.argv[1], sys.argv[2]
ALLOC = re.compile(r"^(_init|malloc|free|calloc|realloc|cfree|_int_\w+|__libc_\w+|"
                   r"operator new|operator delete|mem(cpy|move|set|cmp)|__mem\w+|"
                   r"str(len|cmp)|__str\w+)\b")
COUNTRY = re.compile(r"^wtr::cellnet::(country_\w+|iso_of_mcc|all_countries)\b")


def layer(name):
    base = name.replace("(anonymous namespace)::", "").split("(")[0]
    if ALLOC.match(base):
        return "alloc/libc"
    if re.match(r"^(\S+ )?std::", base):
        # A container instantiated for a sink's own state is that sink's.
        m = re.search(r"wtr::core::(\w+)", base)
        return "sink core::" + m.group(1) if m else "std templates"
    if base.startswith("wtr::sim::EventQueue"):
        return "event queue"
    if base.startswith("wtr::topology::") or COUNTRY.match(base):
        return "topology"
    m = re.match(r"wtr::core::(\w+)", base)
    if m:
        return "sink core::" + m.group(1)
    if re.match(r"wtr::(sim|signaling|devices|faults|stats|cellnet)::", base):
        return "agent/model"
    return "other"


rows = defaultdict(float)
top = defaultdict(list)
total = 0.0
with open(path) as f:
    for line in f:
        parts = line.split()
        # "% cumulative self [calls self/call total/call] name"
        if len(parts) < 4 or not re.match(r"^[\d.]+$", parts[0]):
            continue
        try:
            self_s = float(parts[2])
        except ValueError:
            continue
        rest = parts[3:]
        if len(rest) >= 4 and all(re.match(r"^[\d.]+$", p) for p in rest[:3]):
            rest = rest[3:]
        name = " ".join(rest)
        group = layer(name)
        rows[group] += self_s
        top[group].append((self_s, name))
        total += self_s

print(f"# {workload}: gprof flat self time by layer (total {total:.2f} s)")
print(f"{'layer':<40} {'self_s':>8} {'share':>7}  top symbols")
for group, secs in sorted(rows.items(), key=lambda kv: -kv[1]):
    names = sorted(top[group], reverse=True)[:3]
    short = "; ".join(n.replace("(anonymous namespace)::", "").split("(")[0][:60]
                      for _, n in names)
    share = 100.0 * secs / total if total else 0.0
    print(f"{group:<40} {secs:8.2f} {share:6.1f}%  {short}")
EOF
