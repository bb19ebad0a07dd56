#!/usr/bin/env bash
# Byte-identity check of the CLI outputs of the working tree against a revision.
#
# Usage: tools/byte_identity.sh <rev>
#
# Exports <rev> with `git archive` into a temporary directory, runs the same
# command matrix with the package of each tree (seed 7 and an --out in the
# run's output directory for every subcommand that takes them, the working
# tree's config files on both sides), and compares every CSV, config
# sidecar, stdout (with the exit code) and stderr file with `diff -r`; in
# stderr, each run's output directory reads <out> in the `wrote` line.
# Exits 0 when all are identical and 1 on any difference.  The matrix covers
# every subcommand of the CLI's dispatch table: validate-config on a file
# that validates and on one that does not, a usage error (--threads 0), and
# every subcommand that writes a CSV, both score modes, a mixed error-bound
# grid with repeats and a zero bound (with and without leakage, and in
# true_sampled mode, whose scoring calls mix the rows' error bounds), a
# zero-bound converge (where both PSO schemes are one search), a one-user
# grid point, 8-realization sweep-users and converge runs, whose
# realizations are searched in more than one stacked chunk (at K = 5, and in
# converge), user counts of 8 and 9 on 9 antennas, where numpy's sums over a
# power block switch from one term after another to pairwise, a converge and
# a 40-point sweep-eps at K = 8, N = 16, O = 8, whose row bound of 64 splits
# their scoring into several kernel calls, and a 36-point sweep-eps of
# 2-particle swarms at that shape, where each realization's 36 searches take
# lockstep calls of 32 and 4 swarms, and a sweep-eps on a packed guide
# (N = 5, min_spacing 2.5 on L = 10, so (N - 1) * min_spacing = L exactly),
# where every projected layout is fully packed and Uniform's gaps are
# exactly min_spacing.
#
# Rows whose names end in _t2 or _t3 pass --threads 2 or 3 to the working
# tree and split into several work units (realization chunks of one lockstep
# call each), so they run in worker processes: a 10-realization sweep-eps
# (chunks of 4), an 8-realization true-sampled sweep-users (K = 5 takes two
# chunks), an 8-realization converge of 240-particle swarms (chunks of 3)
# and the 40-point wide sweep-eps (one realization a chunk).  A revision
# that ignores --threads runs them serially, so against such a revision
# they compare parallel output with serial output.
#
# Rows whose names start with refuse_ pass one bad override to optimize, which
# exits 2 with one config error on stderr: one row per kind of message (a type,
# each kind of domain end, each grid's entries, area_y and pso.social, and
# every cross-field rule, size cap, array size and key check), plus a
# 401-digit num_pas, beyond the float range, with the default spacing and with
# min_spacing 0, and eta_i one float above its domain's end.  Two more refuse
# rows run with
# --threads 2: a sweep-users whose first point, K = 1, overflows, refused
# before any progress line, and a converge whose mean min-SINR underflows to
# 0, refused after both realizations' progress lines.
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
bad="$work/bad.json"       # refused by validate-config: csi_eps must be in [0, 1)
echo '{"csi_eps": 1}' > "$bad"
# K = 8, N = 16, O = 8 (64 rows to a kernel call), and the grids 0.00, 0.02, ..., 0.78
# and 0.00, 0.01, ..., 0.35
wide="--override num_users=8 --override num_pas=16 --override obstacle_count=8"
grid40="[$(LC_ALL=C seq -s, -f '%.2f' 0 0.02 0.78)]"
grid36="[$(LC_ALL=C seq -s, -f '%.2f' 0 0.01 0.35)]"
big401="1$(printf '%0400d' 0)"   # 10**400

# name | subcommand and arguments (the seed and --out are added where taken)
matrix=(
    "validate_ok|validate-config --config $small"
    "validate_refused|validate-config --config $bad"
    "usage_threads|sweep-eps --config $small --threads 0"
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
    "small_sweep_eps_packed|sweep-eps --config $small --override num_pas=5 --override min_spacing=2.5"
    "small_sweep_users_k8_9|sweep-users --config $small --override experiments.k_grid=[8,9] --override num_pas=9"
    "small_sweep_users_k8_9_sampled|sweep-users --config $small --override experiments.k_grid=[8,9] --override num_pas=9 --override experiments.score_mode=true_sampled"
    "wide_converge_split|converge --config $example --realizations 6 $wide --override pso.num_particles=8 --override pso.max_iters=60"
    "wide_sweep_eps_split|sweep-eps --config $example --realizations 2 $wide --override pso.num_particles=1 --override pso.max_iters=2 --override experiments.eps_grid=$grid40"
    "example_sweep_eps_t2|sweep-eps --config $example --realizations 10 --threads 2"
    "example_sweep_eps_t3|sweep-eps --config $example --realizations 10 --threads 3"
    "example_sweep_users_sampled_r8_t2|sweep-users --config $example --realizations 8 --override experiments.score_mode=true_sampled --threads 2"
    "example_sweep_users_sampled_r8_t3|sweep-users --config $example --realizations 8 --override experiments.score_mode=true_sampled --threads 3"
    "example_converge_r8_p240_t2|converge --config $example --realizations 8 --override pso.num_particles=240 --threads 2"
    "example_converge_r8_p240_t3|converge --config $example --realizations 8 --override pso.num_particles=240 --threads 3"
    "wide_sweep_eps_split_t2|sweep-eps --config $example --realizations 2 $wide --override pso.num_particles=1 --override pso.max_iters=2 --override experiments.eps_grid=$grid40 --threads 2"
    "wide_sweep_eps_split_t3|sweep-eps --config $example --realizations 2 $wide --override pso.num_particles=1 --override pso.max_iters=2 --override experiments.eps_grid=$grid40 --threads 3"
    "wide_sweep_eps_span|sweep-eps --config $example --realizations 2 $wide --override pso.num_particles=2 --override pso.max_iters=2 --override experiments.eps_grid=$grid36"
    "refuse_type|optimize --config $small --override num_users=3.0"
    "refuse_at_least|optimize --config $small --override num_users=0"
    "refuse_above|optimize --config $small --override tx_power=0"
    "refuse_open_lo|optimize --config $small --override blockage_beta=0"
    "refuse_closed_hi|optimize --config $small --override blockage_beta=1.5"
    "refuse_closed_lo|optimize --config $small --override csi_eps=-0.1"
    "refuse_open_hi|optimize --config $small --override csi_eps=1"
    "refuse_eps_grid|optimize --config $small --override experiments.eps_grid=[0.1,1]"
    "refuse_k_grid|optimize --config $small --override experiments.k_grid=[2,0]"
    "refuse_area_y|optimize --config $small --override area_y=0"
    "refuse_social|optimize --config $small --override pso.social=-1"
    "refuse_spacing|optimize --config $small --override min_spacing=3"
    "refuse_wavelength|optimize --config $small --override carrier_freq=1e-300"
    "refuse_eta_i|optimize --config $small --override eta_i=1e308"
    "refuse_eta_i_next_above|optimize --config $small --override eta_i=1.3407807929942597e+154"
    "refuse_radius_range|optimize --config $small --override obstacle_radius_range=[0.8,0.3]"
    "refuse_size|optimize --config $small --override pso.max_iters=16777217"
    "refuse_size_product|optimize --config $small --override pso.max_iters=2000000"
    "refuse_num_pas_401_digits|optimize --config $small --override num_pas=$big401"
    "refuse_num_pas_401_digits_no_spacing|optimize --config $small --override num_pas=$big401 --override min_spacing=0"
    "refuse_unknown_key|optimize --config $small --override num_userz=3"
    "refuse_empty_key|optimize --config $small --override =3"
    "refuse_sweep_users_t2|sweep-users --config $small --override tx_power=1e306 --threads 2"
    "refuse_converge_mean_t2|converge --config $small --override tx_power=1e-320 --threads 2"
)

run_tree() {  # run_tree <tree> <output directory>
    mkdir -p "$2"
    for entry in "${matrix[@]}"; do
        name=${entry%%|*}
        args=${entry#*|}
        output=(--seed 7 --out "$2/$name.csv")
        if [ "${args%% *}" = validate-config ]; then
            output=()
        fi
        status=0
        # shellcheck disable=SC2086  # the arguments are split on purpose
        PYTHONPATH="$1/src" python3 -m pinchsim.cli $args ${output[@]+"${output[@]}"} \
            > "$2/$name.stdout" 2> "$work/stderr" || status=$?
        echo "exit=$status" >> "$2/$name.stdout"
        sed "/^wrote /s|$2/|<out>/|" "$work/stderr" > "$2/$name.stderr"
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
