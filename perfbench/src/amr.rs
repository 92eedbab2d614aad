//! `amr_replay`: the `amr_simulation` loop driven step by step through its
//! public pieces — `step_mesh`, redistribution by the previous splitters
//! with `owner_of`, `optipart_with_state`, `DistMesh::build`, then
//! `cg_solve` to one relative tolerance. The front orbits at max_level 6
//! (~11k elements), p = 64; the seed picks the orbit's step count, and one
//! run stays within one orbit so every mesh is new and every timed step is
//! a table-accelerated replay, never an exact hit. Step 0 is cold and is
//! the set-up.

use crate::cold::{
    check_outcome, fresh_engine, opts, perf, probe_count, time_face_keys, time_quality,
};
use crate::spans::Spans;
use crate::{alloc, median, mix, pinned, tail, with_threads, Args, Outcome, Stopwatch, P};
use optipart_core::optipart::{optipart_with_state, PartitionState, WarmStats, DEFAULT_STATE_CAP};
use optipart_core::partition::owner_of;
use optipart_fem::amr::step_mesh;
use optipart_fem::{amr_simulation, cg_solve, initial_vector, AmrConfig, DistMesh, Strategy};
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::{DistVec, Engine};
use optipart_sfc::{Curve, KeyedCell, SfcKey};
use std::time::Instant;

/// Relative residual every step's CG solve is taken to.
const CG_TOL: f64 = 1e-6;
const CG_MAX_ITERS: usize = 5000;
/// Step-0 set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn config(seed: u64) -> AmrConfig {
    AmrConfig {
        steps: 40 + SplitMix64::new(seed).fork(0xA3A).next_below(16) as usize,
        max_level: 6,
        matvecs_per_step: 0,
        strategy: Strategy::OptiPart,
        curve: Curve::Hilbert,
        warm_start: true,
        state_cap: DEFAULT_STATE_CAP,
    }
}

/// What one step produced.
struct StepOut {
    sig: u64,
    elements: usize,
    migrated: u64,
    lambda: f64,
    splitters: Vec<SfcKey>,
    iterations: usize,
    ghosts: usize,
    warm: WarmStats,
}

fn warm_delta(a: WarmStats, b: WarmStats) -> WarmStats {
    WarmStats {
        hits: b.hits - a.hits,
        replays: b.replays - a.replays,
        colds: b.colds - a.colds,
        rejected: b.rejected - a.rejected,
        invalidated: b.invalidated - a.invalidated,
    }
}

/// The step's input distribution: block for step 0, else where the
/// previous splitters put each element.
fn distribute(leaves: &[KeyedCell<3>], prev: Option<&[SfcKey]>) -> DistVec<KeyedCell<3>> {
    match prev {
        None => DistVec::from_global(leaves, P),
        Some(sp) => {
            let mut parts: Vec<Vec<KeyedCell<3>>> = (0..P).map(|_| Vec::new()).collect();
            for kc in leaves {
                parts[owner_of(sp, &kc.key)].push(*kc);
            }
            DistVec::from_parts(parts)
        }
    }
}

/// Elements whose final rank differs from where the input put them,
/// counted exactly as `amr_simulation` counts them.
fn migrated(out: &DistVec<KeyedCell<3>>, prev: Option<&[SfcKey]>, n: usize) -> u64 {
    let mut moved = 0u64;
    let mut idx = 0usize;
    for (r, buf) in out.parts().iter().enumerate() {
        for kc in buf {
            let was = match prev {
                None => (idx * P / n.max(1)).min(P - 1),
                Some(sp) => owner_of(sp, &kc.key),
            };
            moved += (was != r) as u64;
            idx += 1;
        }
    }
    moved
}

/// One whole step, mesh through solve, with a span around every layer
/// call. `Err` when the partition or the solve is wrong.
fn step(
    t: usize,
    cfg: &AmrConfig,
    engine: &mut Engine,
    state: &mut PartitionState,
    prev: Option<&[SfcKey]>,
    sp: &mut Spans,
) -> Result<StepOut, String> {
    let tree = sp.run("octree.step_mesh", || step_mesh(t, cfg));
    let n = tree.len();
    let input = match prev {
        None => sp.run("mpisim.from_global", || distribute(tree.leaves(), None)),
        Some(_) => sp.run("core.redistribute", || distribute(tree.leaves(), prev)),
    };
    let before = state.stats;
    let out = sp.run("core.optipart_with_state", || {
        optipart_with_state(engine, input, opts(), state)
    });
    let warm = warm_delta(before, state.stats);
    check_outcome(&out, n)?;
    let moved = migrated(&out.dist, prev, n);
    let (splitters, lambda) = (out.splitters.clone(), out.report.lambda);
    let mesh = sp.run("fem.mesh_build", || {
        DistMesh::build(engine, out.dist, Curve::Hilbert)
    });
    let b = sp.run("fem.initial_vector", || initial_vector(&mesh));
    let (x, rep) = sp.run("fem.cg_solve", || {
        cg_solve(engine, &mesh, &b, CG_TOL, CG_MAX_ITERS)
    });
    if !rep.converged {
        return Err(format!(
            "step {t}: CG stopped at residual {:e} after {} iterations",
            rep.rel_residual, rep.iterations
        ));
    }
    let mut sig = mix(0x616D_725F_7374_6570, n as u64);
    for s in &splitters {
        sig = mix(sig, (s.path() >> 64) as u64);
        sig = mix(sig, s.path() as u64);
        sig = mix(sig, s.level() as u64);
    }
    for u in [lambda.to_bits(), moved, rep.iterations as u64] {
        sig = mix(sig, u);
    }
    for v in x.parts().iter().flatten() {
        sig = mix(sig, v.to_bits());
    }
    Ok(StepOut {
        sig,
        elements: n,
        migrated: moved,
        lambda,
        splitters,
        iterations: rep.iterations,
        ghosts: mesh.locals.iter().map(|l| l.num_ghosts).sum(),
        warm,
    })
}

/// Per-layer samples of the traced steps (span durations come from the
/// recorder itself).
#[derive(Default)]
struct Layers {
    quality_evals: Vec<f64>,
    quality_eval_s: Vec<f64>,
    face_keys_s: Vec<f64>,
    ghosts: Vec<f64>,
    iterations: Vec<f64>,
    bytes: Vec<f64>,
    msgs: Vec<f64>,
    collectives: Vec<f64>,
    syncs: Vec<f64>,
    alloc_count: Vec<f64>,
    alloc_bytes: Vec<f64>,
    par_speedup: Option<f64>,
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let cfg = config(args.seed);
    let mut sp = Spans::new(false);

    let mut setup = Vec::new();
    let mut run_state = None;
    for _ in 0..SETUPS {
        let t0 = Stopwatch::start();
        let mut engine = Engine::new(P, perf());
        let mut state = PartitionState::with_cap(cfg.state_cap);
        let s0 = step(0, &cfg, &mut engine, &mut state, None, &mut sp);
        setup.push(t0.read().1);
        match s0 {
            Ok(s0) => {
                if let Some((_, _, prev)) = &run_state {
                    let prev: &StepOut = prev;
                    if prev.sig != s0.sig {
                        o.fail("step 0 differs between set-ups");
                    }
                }
                run_state = Some((engine, state, s0));
            }
            Err(e) => {
                o.fail(e);
                o.attempted = 1;
                return o;
            }
        }
    }
    let (mut engine, mut state, s0) = run_state.expect("at least one set-up");

    let mut l = Layers::default();
    let mut times = Vec::new();
    let mut steps = vec![s0];
    let mut warm = WarmStats::default();
    let (mut peaks, mut raw_times) = (Vec::new(), Vec::new());
    let ticks0 = crate::cpu_ticks();
    let start = Instant::now();
    let mut t = 1;
    // The traced run times its first half untraced, for the overhead figure.
    while t < cfg.steps && (t < 4 || start.elapsed().as_secs_f64() < args.seconds) {
        let traced = args.trace && start.elapsed().as_secs_f64() >= args.seconds / 2.0;
        sp.set_on(traced);
        let prev = steps.last().map(|s| s.splitters.clone());
        // Standalone calls need the step's inputs, taken before it runs.
        let inputs = traced.then(|| {
            let tree = step_mesh(t, &cfg);
            let dist = distribute(tree.leaves(), prev.as_deref());
            (tree, dist, state.clone())
        });
        let (bytes0, msgs0, coll0, sync0) = (
            engine.stats().bytes_total,
            engine.stats().msgs_total,
            engine.stats().collectives,
            engine.sync_points(),
        );
        let a0 = alloc::snapshot();
        crate::reset_peak_rss("self");
        let op = sp.open("op.amr_replay");
        let t0 = Stopwatch::start();
        let res = step(t, &cfg, &mut engine, &mut state, prev.as_deref(), &mut sp);
        let (raw, dt) = t0.read();
        raw_times.push(raw);
        sp.close(op);
        let (allocs, abytes) = alloc::since(a0);
        peaks.push(crate::peak_rss_mb("self"));
        times.push(dt);
        let s = match res {
            Ok(s) => s,
            Err(e) => {
                o.fail(e);
                break;
            }
        };
        warm.hits += s.warm.hits;
        warm.replays += s.warm.replays;
        warm.colds += s.warm.colds;
        if let Some((tree, dist, st)) = inputs {
            l.ghosts.push(s.ghosts as f64);
            l.iterations.push(s.iterations as f64);
            l.bytes.push((engine.stats().bytes_total - bytes0) as f64);
            l.msgs.push((engine.stats().msgs_total - msgs0) as f64);
            l.collectives
                .push((engine.stats().collectives - coll0) as f64);
            l.syncs.push((engine.sync_points() - sync0) as f64);
            l.alloc_count.push(allocs as f64);
            l.alloc_bytes.push(abytes as f64);
            let root = sp.open("standalone.amr_replay");
            // The step's partition again on a traced engine from the same
            // warm state: counts the quality probes of the replay.
            let mut te = fresh_engine(true);
            let mut st2 = st.clone();
            let again = optipart_with_state(&mut te, dist.clone(), opts(), &mut st2);
            if again.splitters != s.splitters {
                o.fail(format!("step {t}: replay from the saved state differs"));
            }
            l.quality_evals.push(probe_count(&te));
            let (qs, _) = time_quality(&mut sp, dist.clone(), &s.splitters);
            l.quality_eval_s.push(qs);
            l.face_keys_s.push(time_face_keys(&mut sp, tree.leaves()));
            if l.par_speedup.is_none() {
                // The step's partition, mesh build and solve at 1 thread
                // and at nproc, on fresh engines from the same warm state.
                let time_at = |threads: usize| {
                    with_threads(threads, || {
                        let mut e = fresh_engine(false);
                        let mut st3 = st.clone();
                        let t0 = Instant::now();
                        let out = optipart_with_state(&mut e, dist.clone(), opts(), &mut st3);
                        let mesh = DistMesh::build(&mut e, out.dist, Curve::Hilbert);
                        let b = initial_vector(&mesh);
                        let (_, rep) = cg_solve(&mut e, &mesh, &b, CG_TOL, CG_MAX_ITERS);
                        (t0.elapsed().as_secs_f64(), rep.iterations)
                    })
                };
                let (t_one, it_one) = time_at(1);
                let (t_all, it_all) = time_at(crate::nproc());
                if it_one != s.iterations || it_all != s.iterations {
                    o.fail(format!(
                        "step {t}: CG iterations depend on the thread count"
                    ));
                }
                l.par_speedup = Some(t_one / t_all);
            }
            sp.close(root);
        }
        steps.push(s);
        t += 1;
    }
    let peak = median(&peaks);
    let window_s = start.elapsed().as_secs_f64();
    crate::steal_line(&mut o, ticks0, median(&raw_times) * 1e3);
    o.attempted = times.len() as u64;

    // Checks: no exact hits, every timed step a replay, and λ/migrated equal
    // to amr_simulation's for the same config, step by step.
    if warm.hits != 0 || warm.replays != times.len() as u64 {
        o.fail(format!(
            "{} timed steps took {} hits, {} replays, {} colds (want replays only)",
            times.len(),
            warm.hits,
            warm.replays,
            warm.colds
        ));
    }
    let reference = amr_simulation(&mut Engine::new(P, perf()), &cfg);
    for (k, s) in steps.iter().enumerate() {
        let r = &reference.steps[k];
        if r.lambda.to_bits() != s.lambda.to_bits()
            || r.migrated != s.migrated
            || r.elements != s.elements
        {
            o.fail(format!(
                "step {k}: lambda {} migrated {} vs amr_simulation lambda {} migrated {}",
                s.lambda, s.migrated, r.lambda, r.migrated
            ));
        }
    }
    let sigs: Vec<u64> = steps.iter().map(|s| s.sig).collect();
    let pinned_checked = pinned::check("amr_replay", args.seed, &sigs, &mut o);
    pinned::print("amr_replay", args.seed, &sigs, &mut o);
    o.line(format!(
        "checks: {} steps vs amr_simulation ({} steps, {} hits over its run), \
         {pinned_checked} pinned signatures compared",
        steps.len(),
        cfg.steps,
        reference.warm.hits
    ));

    let elems: usize = steps.iter().skip(1).map(|s| s.elements).sum();
    let total: f64 = times.iter().sum();
    let (tail_s, pct, n) = tail(&times);
    o.set("setup_s", median(&setup));
    o.set("op_p50_ms", median(&times) * 1e3);
    o.set("op_tail_ms", tail_s * 1e3);
    o.set("work_per_s", elems as f64 / total);
    o.set("peak_rss_mb", peak);
    o.line(format!(
        "amr_replay: {} timed steps of a {}-step orbit, window {window_s:.2} s, p = {P}, \
         CG to {CG_TOL:e}",
        times.len(),
        cfg.steps
    ));
    o.line(format!("amr_step_p50_ms = {:.3} ms", median(&times) * 1e3));
    o.line(format!(
        "amr_step_tail_ms = {:.3} ms (p{pct:.0} of {n} samples)",
        tail_s * 1e3
    ));
    o.line(format!(
        "amr_elems_per_s = {:.1} elem/s (elements through whole steps)",
        elems as f64 / total
    ));
    o.line(format!(
        "setup_s = {:.6} s (median of {SETUPS} cold step-0 set-ups)",
        median(&setup)
    ));
    o.line(format!(
        "peak_rss_mb = {peak:.1} MB (median over steps of the peak during the step)"
    ));

    if args.trace {
        let traced = sp.durations("op.amr_replay");
        // Ratios of times take both sides from the raw wall clock.
        let traced_raw = &raw_times[raw_times.len() - traced.len()..];
        let untraced = &raw_times[..raw_times.len() - traced.len()];
        let ms = |name: &str| median(&sp.durations(name)) * 1e3;
        crate::quality_share(
            &mut o,
            &l.quality_evals,
            &l.quality_eval_s,
            &sp.durations("core.optipart_with_state"),
        );
        o.set("core.redistribute_ms", ms("core.redistribute"));
        o.set("core.warm_hits", warm.hits as f64);
        o.set("core.warm_replays", warm.replays as f64);
        o.set("core.warm_colds", warm.colds as f64);
        o.set("sfc.face_keys_s", median(&l.face_keys_s));
        o.set("octree.step_mesh_ms", ms("octree.step_mesh"));
        o.set("fem.mesh_build_ms", ms("fem.mesh_build"));
        o.set("fem.ghost_elements", median(&l.ghosts));
        o.set("fem.cg_solve_ms", ms("fem.cg_solve"));
        o.set("fem.cg_iterations", median(&l.iterations));
        o.set("mpisim.bytes", median(&l.bytes));
        o.set("mpisim.msgs", median(&l.msgs));
        o.set("mpisim.collectives", median(&l.collectives));
        o.set("mpisim.sync_points", median(&l.syncs));
        o.set("mpisim.par_speedup", l.par_speedup.unwrap_or(0.0));
        o.set("alloc.count", median(&l.alloc_count));
        o.set("alloc.bytes", median(&l.alloc_bytes));
        o.set(
            "bench.trace_overhead_frac",
            median(&traced) / median(untraced) - 1.0,
        );
        o.ledger(&sp, "op.amr_replay", traced_raw);
        crate::write_trace(&sp, args, &mut o);
    }
    o
}
