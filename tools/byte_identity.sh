#!/usr/bin/env bash
# Byte-identity check of the CLI outputs of the working tree against a revision.
#
# Usage: tools/byte_identity.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, runs the same
# command matrix with the package of each tree (seed 7, the working tree's
# config files on both sides), and compares every CSV, config sidecar and
# stdout file with `diff -r`.  Exits 0 when all are identical and 1 on any
# difference.  The matrix covers every subcommand that writes a CSV, both
# score modes, a mixed error-bound grid with repeats and a zero bound (with
# and without leakage, and in true_sampled mode, whose scoring calls mix the
# rows' error bounds), a zero-bound converge (where both PSO schemes are one
# search), a one-user grid point, 8-realization sweep-users and converge
# runs, whose realizations are searched in more than one stacked chunk (at
# K = 5, and in converge), user counts of 8 and 9 on 9 antennas, where
# numpy's sums over a power block switch from one term after another to
# pairwise, and a converge and a 40-point sweep-eps at K = 8, N = 16, O = 8,
# whose row bound of 64 splits their scoring into several kernel calls.
set -euo pipefail
set -f  # the matrix's arguments are split into words but never globbed

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
rev=$1
repo=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$repo" archive "$rev" | tar -x -C "$work/base"

example="$repo/configs/example.json"
small="$work/small.json"   # the fast config of tests/test_cli.py, with k_grid [1, 2, 3]
cat > "$small" <<'EOF'
{"pso": {"num_particles": 8, "max_iters": 10},
 "experiments": {"realizations": 2, "eps_grid": [0.0, 0.1], "k_grid": [1, 2, 3]}}
EOF
# K = 8, N = 16, O = 8 (64 rows to a kernel call), and the grid 0.00, 0.02, ..., 0.78
wide="--override num_users=8 --override num_pas=16 --override obstacle_count=8"
grid40="[$(LC_ALL=C seq -s, -f '%.2f' 0 0.02 0.78)]"

# name | subcommand and arguments (the seed and --out are added)
matrix=(
    "example_sweep_eps|sweep-eps --config $example --realizations 10"
    "example_sweep_users_sampled|sweep-users --config $example --realizations 4 --override experiments.score_mode=true_sampled"
    "example_optimize|optimize --config $example --realizations 2"
    "example_sweep_users|sweep-users --config $example --realizations 2"
    "example_converge|converge --config $example --realizations 2"
    "example_sweep_users_r8|sweep-users --config $example --realizations 8"
    "example_converge_r8|converge --config $example --realizations 8"
    "example_converge_zero_bound|converge --config $example --realizations 2 --override csi_eps=0"
    "example_sweep_eps_mixed|sweep-eps --config $example --realizations 2 --override experiments.eps_grid=[0.2,0.0,0.1,0.1]"
    "example_sweep_eps_mixed_no_leakage|sweep-eps --config $example --realizations 3 --override eta_r=0 --override experiments.eps_grid=[0.2,0.0,0.1,0.1]"
    "example_sweep_eps_mixed_sampled|sweep-eps --config $example --realizations 2 --override experiments.eps_grid=[0.2,0.0,0.1,0.1] --override experiments.score_mode=true_sampled"
    "small_optimize|optimize --config $small"
    "small_sweep_eps|sweep-eps --config $small"
    "small_sweep_users|sweep-users --config $small"
    "small_sweep_users_sampled|sweep-users --config $small --override experiments.score_mode=true_sampled"
    "small_converge|converge --config $small"
    "small_sweep_users_k8_9|sweep-users --config $small --override experiments.k_grid=[8,9] --override num_pas=9"
    "small_sweep_users_k8_9_sampled|sweep-users --config $small --override experiments.k_grid=[8,9] --override num_pas=9 --override experiments.score_mode=true_sampled"
    "wide_converge_split|converge --config $example --realizations 6 $wide --override pso.num_particles=8 --override pso.max_iters=60"
    "wide_sweep_eps_split|sweep-eps --config $example --realizations 2 $wide --override pso.num_particles=1 --override pso.max_iters=2 --override experiments.eps_grid=$grid40"
)

run_tree() {  # run_tree <tree> <output directory>
    mkdir -p "$2"
    for entry in "${matrix[@]}"; do
        name=${entry%%|*}
        status=0
        # shellcheck disable=SC2086  # the arguments are split on purpose
        PYTHONPATH="$1/src" python3 -m pinchsim.cli ${entry#*|} --seed 7 \
            --out "$2/$name.csv" > "$2/$name.stdout" 2> /dev/null || status=$?
        echo "exit=$status" >> "$2/$name.stdout"
    done
}

run_tree "$work/base" "$work/out/base"
run_tree "$repo" "$work/out/change"

if diff -r "$work/out/base" "$work/out/change"; then
    echo "identical: $(ls "$work/out/change" | wc -l) files of ${#matrix[@]} runs against $rev"
else
    echo "outputs differ from $rev" >&2
    exit 1
fi
