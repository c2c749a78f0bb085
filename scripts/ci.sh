#!/usr/bin/env bash
# Offline CI gate for pTatin3D-rs. No network access required: the
# workspace has zero third-party dependencies (see DESIGN.md §1).
#
# Usage: scripts/ci.sh [--fast]
#   --fast  skip the release build and run tests in debug only.

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

step() { printf '\n==> %s\n' "$*"; }

export CARGO_NET_OFFLINE=true

if [[ $FAST -eq 0 ]]; then
    step "release build (library, binaries, benches)"
    cargo build --release --workspace --bins --benches

    # The lane kernels' bitwise contracts under the codegen production
    # runs: the crate unit tests of la/ops and the fused-operator and
    # operator-equivalence suites, built with optimizations.
    step "release-mode kernel tests"
    cargo test --release -q -p ptatin-la -p ptatin-ops --lib
    cargo test --release -q --test fused_stokes_operator --test operator_equivalence
fi

# Workspace invariants: zero unsuppressed findings from the audit's ten
# rules, one pipeline over the parsed files and the workspace call graph
# (unsafe-audit, unsafe-confined, determinism, hot-alloc with its
# reachable helpers, panic-surface, nested-dispatch, simd-parity,
# ckpt-coverage, prof-scope, stale-annotation; DESIGN.md §10, §14) — a
# fresh schema-valid inventory in output/audit.json, and a checksummed
# baseline. The audit is static, so PTATIN_TEST_THREADS must not change
# its verdict: the gate runs at both CI thread counts and enforces the
# 10 s wall-clock budget at each.
step "ptatin-audit --check (ten rules over the call graph, nt=1 and 4)"
cargo build -q -p ptatin-audit
printf '%-24s %9s  %s\n' "lint" "wall (s)" "status"
for nt in 1 4; do
    t0=$(date +%s.%N)
    PTATIN_TEST_THREADS=$nt target/debug/ptatin-audit --check --quiet
    t1=$(date +%s.%N)
    dt=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.2f", b - a }')
    awk -v d="$dt" 'BEGIN { exit !(d < 10.0) }' \
        || { echo "audit --check exceeded the 10 s budget: ${dt}s"; exit 1; }
    printf '%-24s %9s  %s\n' "audit --check (nt=$nt)" "$dt" "ok"
done

# The suite runs twice: once pinned to a single thread and once at four,
# so thread-count-dependent regressions in the worker pool (ptatin-la::par)
# can't hide behind the host's core count. The checkpoint-roundtrip,
# fault-recovery, golden-run and assembly-equivalence suites are named
# explicitly so a partial test filter in a future edit can't silently drop
# them from the gate. The goldens go through the production solver build,
# i.e. pattern-reuse batched assembly, at both thread counts: iteration
# counts must not move, because batched assembly is bitwise-contracted
# against the scalar reference (DESIGN.md §13). The level rule of the
# multigrid (no matrix on a default-built smoothed level, DESIGN.md §4),
# the directly assembled Galerkin coarsest operator against its RAP oracle
# (DESIGN.md §4), the sparse Cholesky coarse factorization against its
# dense-LU oracle (DESIGN.md §13), the lane-batched advection's bitwise
# contract against the scalar loop (DESIGN.md §9), the fused saddle-point
# pass of the Krylov operator against its block composition (DESIGN.md §4),
# the divergence-only pass of the block preconditioner against the fused
# pass and the assembled block, and the on-demand gradient block (§4, §13),
# the line-stencil grid transfers against the filtered CSR transfers and
# the on-demand prolongations (§9, §13),
# the lane loops of a solver build (smoother diagonal, geometry-pack
# metrics, body force) against their scalar references (§9, §13),
# the block-Jacobi subdomain Cholesky solves against their dense-LU oracle
# (DESIGN.md §13), the shared geometry pack and the solve-scoped lag of a
# warm rebuild (DESIGN.md §13), the CLI's refusal of unknown arguments and
# the scenario registry (the only end-to-end run of the shear-band and
# falling-block models through the shared nonlinear problem) are named for
# the same reason.
step "tests (PTATIN_TEST_THREADS=1)"
PTATIN_TEST_THREADS=1 cargo test --workspace -q
PTATIN_TEST_THREADS=1 cargo test -q --test matrix_free_levels default_levels_hold_no_matrix
PTATIN_TEST_THREADS=1 cargo test -q --test galerkin_coarse_direct
PTATIN_TEST_THREADS=1 cargo test -q --test sparse_cholesky
PTATIN_TEST_THREADS=1 cargo test -q -p ptatin-ckpt
PTATIN_TEST_THREADS=1 cargo test -q --test checkpoint_restart
PTATIN_TEST_THREADS=1 cargo test -q --test ensemble_sweep
PTATIN_TEST_THREADS=1 cargo test -q --test golden_runs
PTATIN_TEST_THREADS=1 cargo test -q --test operator_equivalence
PTATIN_TEST_THREADS=1 cargo test -q --test mpm_advect_equivalence
PTATIN_TEST_THREADS=1 cargo test -q --test fused_stokes_operator
PTATIN_TEST_THREADS=1 cargo test -q --test divergence_pass
PTATIN_TEST_THREADS=1 cargo test -q --test nested_transfer
PTATIN_TEST_THREADS=1 cargo test -q --test build_loops
PTATIN_TEST_THREADS=1 cargo test -q --test exact_subdomain_solves
PTATIN_TEST_THREADS=1 cargo test -q --test lagged_setup
PTATIN_TEST_THREADS=1 cargo test -q --test cli_arguments
PTATIN_TEST_THREADS=1 cargo test -q --test scenario_registry

step "tests (PTATIN_TEST_THREADS=4)"
PTATIN_TEST_THREADS=4 cargo test --workspace -q
PTATIN_TEST_THREADS=4 cargo test -q --test matrix_free_levels default_levels_hold_no_matrix
PTATIN_TEST_THREADS=4 cargo test -q --test galerkin_coarse_direct
PTATIN_TEST_THREADS=4 cargo test -q --test sparse_cholesky
PTATIN_TEST_THREADS=4 cargo test -q -p ptatin-ckpt
PTATIN_TEST_THREADS=4 cargo test -q --test checkpoint_restart
PTATIN_TEST_THREADS=4 cargo test -q --test ensemble_sweep
PTATIN_TEST_THREADS=4 cargo test -q --test golden_runs
PTATIN_TEST_THREADS=4 cargo test -q --test operator_equivalence
PTATIN_TEST_THREADS=4 cargo test -q --test mpm_advect_equivalence
PTATIN_TEST_THREADS=4 cargo test -q --test fused_stokes_operator
PTATIN_TEST_THREADS=4 cargo test -q --test divergence_pass
PTATIN_TEST_THREADS=4 cargo test -q --test nested_transfer
PTATIN_TEST_THREADS=4 cargo test -q --test build_loops
PTATIN_TEST_THREADS=4 cargo test -q --test exact_subdomain_solves
PTATIN_TEST_THREADS=4 cargo test -q --test lagged_setup
PTATIN_TEST_THREADS=4 cargo test -q --test cli_arguments
PTATIN_TEST_THREADS=4 cargo test -q --test scenario_registry

# The same suite under the pool sanitizer: every split_ranges partition,
# pool resize, and dispatch is checked against the worker-pool invariants
# at runtime (disjoint/covering/aligned ranges, no worker outliving its
# generation, nested dispatch serialized) — at both thread counts.
step "tests with --features pool-sanitizer (PTATIN_TEST_THREADS=1)"
PTATIN_TEST_THREADS=1 cargo test --workspace -q --features pool-sanitizer

step "tests with --features pool-sanitizer (PTATIN_TEST_THREADS=4)"
PTATIN_TEST_THREADS=4 cargo test --workspace -q --features pool-sanitizer
PTATIN_TEST_THREADS=4 cargo test -q --features pool-sanitizer --test thread_invariance
PTATIN_TEST_THREADS=4 cargo test -q -p ptatin-la --features pool-sanitizer par::

# Operator-equivalence and thread-invariance suites with the AVX path
# force-disabled: the portable fallbacks of the batched operator (viscous
# pass, fused Stokes pass and divergence pass), projection, transfer (the
# line stencils against the lane-packed CSR), advection/location, Galerkin Q1 assembly and envelope Cholesky lane
# kernels (whole coarse matrix and block-Jacobi blocks) and the lane loops
# of a solver build (diagonal, pack metrics) must satisfy the same
# 1e-12 / bitwise contracts as the hardware path (DESIGN.md §9).
step "equivalence + thread invariance with AVX disabled (PTATIN_NO_AVX=1)"
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test operator_equivalence
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test thread_invariance
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test mpm_advect_equivalence
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test galerkin_coarse_direct
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test sparse_cholesky
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test fused_stokes_operator
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test divergence_pass
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test nested_transfer
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test build_loops
PTATIN_NO_AVX=1 PTATIN_TEST_THREADS=2 cargo test -q --test exact_subdomain_solves

# Fault-injection matrix on the release binary: every injected failure
# class must be recovered (exit 0) or reported cleanly (crash => 42),
# never a panic or a silent wrong answer. Crash leaves periodic
# checkpoints behind; the restarted run must complete.
if [[ $FAST -eq 0 ]]; then
    step "fault-injection matrix (release binary)"
    CKDIR=$(mktemp -d)
    trap 'rm -rf "$CKDIR"' EXIT
    RIFT="target/release/ptatin rift mx=6 my=2 mz=4 steps=3 out=$CKDIR"

    for fault in breakdown@1 stall@1; do
        step "  fault $fault (recover and complete)"
        PTATIN_TEST_THREADS=2 $RIFT --fault=$fault
    done

    step "  fault list breakdown@1;stall@2 (recover and complete)"
    PTATIN_TEST_THREADS=2 $RIFT --fault='breakdown@1;stall@2'

    step "  fault crash@2 (exit 42, checkpoints survive)"
    rc=0
    PTATIN_TEST_THREADS=2 $RIFT --checkpoint-every=1 --fault=crash@2 || rc=$?
    [[ $rc -eq 42 ]] || { echo "expected exit 42, got $rc"; exit 1; }
    [[ -f "$CKDIR/ckpt_step_00002.ptck" ]] || { echo "missing periodic checkpoint"; exit 1; }

    step "  restart from the surviving checkpoint"
    PTATIN_TEST_THREADS=2 $RIFT --restart-from="$CKDIR/ckpt_step_00002.ptck"

    # Ensemble smoke sweep on the release binary: 16 tiny jobs time-sliced
    # with preemption (slice=1) and injected faults in two of them — the
    # crash must be retried, the stall absorbed by the recovery ladder,
    # and every job must complete (exit 0). Run at one and four threads so
    # the checkpoint-backed suspend/resume path is exercised at both pool
    # shapes. The emitted bench document must carry its schema tag and
    # count all 16 jobs as completed.
    step "ensemble smoke sweep (16 jobs, crash+stall faults, nt=1 and 4)"
    SWEEP="$CKDIR/smoke_sweep.txt"
    printf '%s\n' \
        "scenario = rift" "mx = 4" "my = 2" "mz = 2" "levels = 2" \
        "steps = 2" "max_it = 1" "linear_max_it = 60" \
        "sweep seed = 0..16" > "$SWEEP"
    for nt in 1 4; do
        step "  ensemble sweep at PTATIN_TEST_THREADS=$nt"
        PTATIN_TEST_THREADS=$nt target/release/ptatin ensemble \
            sweep="$SWEEP" slice=1 retries=2 \
            ckpt-dir="$CKDIR/ens_nt$nt" \
            events="$CKDIR/ens_events_nt$nt.jsonl" \
            bench="$CKDIR/ens_bench_nt$nt.json" \
            --fault='crash@1:job=3;stall@0:job=11'
        grep -q '"event":"job_crashed"' "$CKDIR/ens_events_nt$nt.jsonl" \
            || { echo "missing job_crashed event at nt=$nt"; exit 1; }
        grep -q '"event":"job_preempted"' "$CKDIR/ens_events_nt$nt.jsonl" \
            || { echo "missing job_preempted event at nt=$nt"; exit 1; }
        BENCH_DOC="$CKDIR/ens_bench_nt$nt.json"
        grep -q '"schema":"ptatin-ensemble-bench-v1"' "$BENCH_DOC" \
            || { echo "bench document lacks its schema tag at nt=$nt"; exit 1; }
        grep -q '"jobs":16,' "$BENCH_DOC" && grep -q '"completed":16,' "$BENCH_DOC" \
            && grep -q '"failed":0,' "$BENCH_DOC" \
            || { echo "bench document does not show 16 completed jobs at nt=$nt"; exit 1; }
    done

    # One lane body serves both SIMD paths, so a whole run gives the same
    # bytes on each: the 8³ sinker and two rift steps write identical VTK
    # files with and without PTATIN_NO_AVX=1 (DESIGN.md §9).
    step "sinker and rift VTK byte-identical across SIMD paths"
    for run in "sinker m=8" "rift steps=2"; do
        name=${run%% *}
        target/release/ptatin $run threads=1 out="$CKDIR/simd_avx_$name" > /dev/null
        PTATIN_NO_AVX=1 target/release/ptatin $run threads=1 \
            out="$CKDIR/simd_portable_$name" > /dev/null
        for f in "$CKDIR/simd_avx_$name"/*.vtk; do
            cmp "$f" "$CKDIR/simd_portable_$name/$(basename "$f")" \
                || { echo "$name: $(basename "$f") differs between SIMD paths"; exit 1; }
        done
    done

    # SolCx analytic verification gate (smoke: 2 refinement levels, rate
    # floors 2.5 / 1.7) at one and four threads. The reports — including
    # the raw f64 bits of each fitted rate — must be bitwise identical:
    # the par determinism contract makes every reduction grouping a pure
    # function of problem size, never of the thread count.
    step "solcx verification gate (smoke, nt=1 vs nt=4 bitwise)"
    PTATIN_TEST_THREADS=1 target/release/ptatin verify mode=smoke \
        | tail -n +2 > "$CKDIR/solcx_nt1.txt"
    PTATIN_TEST_THREADS=4 target/release/ptatin verify mode=smoke \
        | tail -n +2 > "$CKDIR/solcx_nt4.txt"
    grep -q 'gate=PASS' "$CKDIR/solcx_nt1.txt" \
        || { echo "solcx smoke gate failed"; cat "$CKDIR/solcx_nt1.txt"; exit 1; }
    diff "$CKDIR/solcx_nt1.txt" "$CKDIR/solcx_nt4.txt" \
        || { echo "solcx gate report differs between nt=1 and nt=4"; exit 1; }

    # The repository benchmark's plumbing on shrunk sizes: all four
    # workloads run on the default solver configuration and their output
    # checks must pass (exit 0). Nothing is recorded; timings come from
    # `benchmark/run.sh --runs 10` on a quiet host (EXPERIMENTS.md).
    step "benchmark smoke (four workloads, output checks only)"
    benchmark/run.sh --smoke

    # The production solve assembles no coupling block and runs no SpMV
    # with it (DESIGN.md §4, §13): the 8³ sinker's profile has no
    # `ops.assemble_gradient_batched` event, no `MatMult` under the outer
    # `PCApply` (its `B z_u` is `MatMult_DivergenceBatched`). Its coarse
    # solve is the sparse Cholesky factor built under `StokesSetup`: no
    # AMG, no coarse CG, and so no `MatMult` at all.
    step "sinker profile: no gradient-block assembly, no SpMV, direct coarse solve"
    J="$CKDIR/sinker8.json"
    target/release/ptatin sinker m=8 --log-json="$J" out="$CKDIR/sinker8" > /dev/null
    ! grep -q '"ops.assemble_gradient_batched"' "$J" \
        || { echo "the sinker solve assembled the gradient block"; exit 1; }
    ! grep -q '"child":"MatMult","incl_s":[^,]*,"parent":"PCApply"' "$J" \
        || { echo "PCApply runs a MatMult of its own"; exit 1; }
    grep -q '"child":"MatMult_DivergenceBatched","incl_s":[^,]*,"parent":"PCApply"' "$J" \
        || { echo "PCApply does not run the divergence pass"; exit 1; }
    for ev in MatMult KSPSolve_CG PCSetUp_AMG PCApply_AMG; do
        ! grep -q "\"name\":\"$ev\"}" "$J" \
            || { echo "the sinker profile has a $ev event"; exit 1; }
    done
    grep -q '"child":"setup/coarse","incl_s":[^,]*,"parent":"StokesSetup"' "$J" \
        && grep -q '"child":"setup/coarse/factor","incl_s":[^,]*,"parent":"setup/coarse"' "$J" \
        || { echo "no setup/coarse/factor under StokesSetup"; exit 1; }

    # The V-cycle runs its grid transfers as line stencils and no
    # production solve forms a transfer matrix (DESIGN.md §9, §13): the 8³
    # sinker's and a rift step's profiles show `MGProlong` and `MGRestrict`
    # and no `mg.assemble_prolongation`, the scope a reader of an assembled
    # prolongation opens.
    step "sinker and rift profiles: stencil transfers, no prolongation assembled"
    R="$CKDIR/rift1.json"
    target/release/ptatin rift steps=1 --log-json="$R" out="$CKDIR/rift1" > /dev/null
    for prof in "$J" "$R"; do
        grep -q '"name":"MGProlong"' "$prof" && grep -q '"name":"MGRestrict"' "$prof" \
            || { echo "$prof: no MGProlong/MGRestrict events"; exit 1; }
        ! grep -q '"name":"mg.assemble_prolongation"' "$prof" \
            || { echo "$prof: the solve assembled a prolongation"; exit 1; }
    done

    # Every smoother build times its diagonal as a layer of its own
    # (DESIGN.md §13): the rift step's profile shows `setup/diagonal` under
    # `setup/lambda`.
    grep -q '"child":"setup/diagonal","incl_s":[^,]*,"parent":"setup/lambda"' "$R" \
        || { echo "$R: no setup/diagonal under setup/lambda"; exit 1; }

    # An unconverged sinker solve is an error, not a result: at Δη = 10⁶
    # the 8³ sinker exhausts its 600 iterations, prints the true relative
    # residual ‖b − Ax‖/‖b‖ of what it has and exits 3.
    step "unconverged sinker solve (exit 3, true residual printed)"
    rc=0
    OUT=$(target/release/ptatin sinker m=8 delta_eta=1e6 threads=1 \
        out="$CKDIR/sinker_unconverged") || rc=$?
    [[ $rc -eq 3 ]] || { echo "expected exit 3, got $rc"; exit 1; }
    grep -q 'converged: false, ‖b − Ax‖/‖b‖ = [0-9.]*e[-+0-9]*' <<< "$OUT" \
        || { echo "no true residual in: $OUT"; exit 1; }

    # Every sinker path solves with the model's one Krylov setting: the
    # same spec through `ptatin scenario` also stops at 600 iterations.
    step "unconverged sinker scenario (exit 3 at the 600-iteration cap)"
    printf '%s\n' "scenario = sinker" "m = 8" "levels = 3" "delta_eta = 1e6" \
        > "$CKDIR/sinker_unconverged.scn"
    rc=0
    OUT=$(target/release/ptatin scenario file="$CKDIR/sinker_unconverged.scn" threads=1) \
        || rc=$?
    [[ $rc -eq 3 ]] || { echo "expected exit 3, got $rc"; exit 1; }
    grep -q 'sinker: converged=false iterations=600$' <<< "$OUT" \
        || { echo "sinker scenario did not stop at 600 iterations: $OUT"; exit 1; }

    # One registry-driven scenario end to end through the CLI: the
    # checked-in shear-band spec must parse, run and converge (exit 0).
    step "registry-driven shear-band scenario (CLI end to end)"
    PTATIN_TEST_THREADS=2 target/release/ptatin scenario \
        file=examples/scenarios/shear_band.scn

    # A spec whose mesh cannot coarsen to its levels is refused with a
    # line-anchored error (exit 2), never a panic (exit 101).
    step "scenario with a mesh that cannot coarsen (exit 2)"
    printf '%s\n' "scenario = sinker" "m = 6" "levels = 3" > "$CKDIR/bad_levels.scn"
    rc=0
    target/release/ptatin scenario file="$CKDIR/bad_levels.scn" || rc=$?
    [[ $rc -eq 2 ]] || { echo "expected exit 2, got $rc"; exit 1; }
fi

step "rustfmt"
cargo fmt --all --check

step "clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "OK"
