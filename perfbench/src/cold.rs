//! `cold_ladder`: distinct seeded meshes (~20k points, ~68k elements,
//! cycling normal/lognormal/uniform), each partitioned cold by `optipart`
//! on a fresh engine at p = 64, Hilbert curve, flat `cloudlab_wisconsin`.
//! One op is one `optipart` call; mesh generation is the op's set-up.

use crate::spans::Spans;
use crate::{alloc, median, mix, pinned, tail, with_threads, Args, Outcome, Stopwatch, P};
use optipart_core::optipart::{optipart, optipart_with_state, OptiPartOptions, PartitionState};
use optipart_core::partition::{distribute_tree, owner_of, PartitionOutcome};
use optipart_core::quality::partition_quality;
use optipart_core::treesort::treesort;
use optipart_machine::{AppModel, MachineModel, PerfModel};
use optipart_mpisim::rng::SplitMix64;
use optipart_mpisim::{DistVec, Engine};
use optipart_octree::generate::{Distribution, MeshParams};
use optipart_octree::LinearTree;
use optipart_sfc::{Curve, KeyedCell, SfcKey};
use std::hint::black_box;
use std::time::Instant;

const POINTS: usize = 20_000;
const ORDER: [Distribution; 3] = [
    Distribution::Normal,
    Distribution::LogNormal,
    Distribution::Uniform,
];

pub fn perf() -> PerfModel {
    PerfModel::new(
        MachineModel::cloudlab_wisconsin(),
        AppModel::laplacian_matvec(),
    )
}

pub fn opts() -> OptiPartOptions {
    OptiPartOptions::for_curve(Curve::Hilbert)
}

fn mesh_params(seed: u64, i: usize) -> MeshParams {
    MeshParams {
        distribution: ORDER[i % ORDER.len()],
        num_points: POINTS,
        seed: SplitMix64::new(seed)
            .fork(0xC01D_0000 + i as u64)
            .next_u64(),
        ..Default::default()
    }
}

/// Splitters, per-rank counts and every report field (floats by bits).
pub fn signature(out: &PartitionOutcome<3>) -> u64 {
    let r = &out.report;
    let mut h = 0x636F_6C64_6C61_6464;
    for s in &out.splitters {
        h = mix(h, (s.path() >> 64) as u64);
        h = mix(h, s.path() as u64);
        h = mix(h, s.level() as u64);
    }
    for &c in &r.counts {
        h = mix(h, c);
    }
    for f in [r.achieved_tolerance, r.lambda, r.predicted_tp] {
        h = mix(h, f.to_bits());
    }
    for u in [
        r.rounds as u64,
        r.splitter_level as u64,
        r.wmax,
        r.cmax,
        out.dist.total_len() as u64,
    ] {
        h = mix(h, u);
    }
    h
}

/// Every element sits on the rank its splitters name, ranks are sorted,
/// and nothing was lost.
pub fn check_outcome(out: &PartitionOutcome<3>, n: usize) -> Result<(), String> {
    if out.dist.total_len() != n {
        return Err(format!("{} elements out of {n}", out.dist.total_len()));
    }
    for (r, buf) in out.dist.parts().iter().enumerate() {
        if out.report.counts.get(r).copied() != Some(buf.len() as u64) {
            return Err(format!("rank {r}: report count differs from data"));
        }
        if buf.windows(2).any(|w| w[0].key > w[1].key) {
            return Err(format!("rank {r} is not SFC-sorted"));
        }
        if let Some(kc) = buf.iter().find(|kc| owner_of(&out.splitters, &kc.key) != r) {
            return Err(format!(
                "rank {r} holds a key owned by another rank: {:?}",
                kc.key
            ));
        }
    }
    Ok(())
}

pub fn fresh_engine(traced: bool) -> Engine {
    let e = Engine::new(P, perf());
    if traced {
        e.with_tracing()
    } else {
        e
    }
}

/// Quality evaluations the tolerance ladder made on a traced engine: its
/// `optipart.probe` decisions.
pub fn probe_count(engine: &Engine) -> f64 {
    let tr = engine.tracer();
    tr.decisions()
        .iter()
        .filter(|d| tr.name(d.name) == "optipart.probe")
        .count() as f64
}

/// Per-layer samples of the traced ops.
#[derive(Default)]
struct Layers {
    /// Raw wall seconds of each traced op, from its own clock.
    op_wall_s: Vec<f64>,
    /// Raw wall seconds of each traced `optipart` call.
    optipart_s: Vec<f64>,
    quality_evals: Vec<f64>,
    quality_eval_s: Vec<f64>,
    treesort_s: Vec<f64>,
    rounds: Vec<f64>,
    face_keys_s: Vec<f64>,
    mesh_build_s: Vec<f64>,
    bytes: Vec<f64>,
    msgs: Vec<f64>,
    collectives: Vec<f64>,
    syncs: Vec<f64>,
    alloc_count: Vec<f64>,
    alloc_bytes: Vec<f64>,
    par_speedup: Option<f64>,
}

/// Standalone `partition_quality` at `splitters` on the op's input
/// distribution: seconds and the evaluated `Wmax`.
pub fn time_quality(
    sp: &mut Spans,
    mut dist: DistVec<KeyedCell<3>>,
    splitters: &[SfcKey],
) -> (f64, u64) {
    let mut e = fresh_engine(false);
    let t = Instant::now();
    let q = sp.run("core.partition_quality", || {
        partition_quality(&mut e, &mut dist, splitters, Curve::Hilbert)
    });
    (t.elapsed().as_secs_f64(), q.wmax)
}

/// Encodes every element's 2·D face-neighbour keys; seconds.
pub fn time_face_keys(sp: &mut Spans, leaves: &[KeyedCell<3>]) -> f64 {
    let t = Instant::now();
    let acc = sp.run("sfc.face_keys", || {
        let mut acc = 0u64;
        for kc in leaves {
            for axis in 0..3 {
                for dir in [-1i8, 1] {
                    if let Some(nb) = kc.cell.face_neighbor(axis, dir) {
                        acc = acc.wrapping_add(SfcKey::of(&nb, Curve::Hilbert).path() as u64);
                    }
                }
            }
        }
        acc
    });
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Standalone layer calls on one op's inputs (traced run only).
fn standalone(
    sp: &mut Spans,
    tree: &LinearTree<3>,
    out: &PartitionOutcome<3>,
    l: &mut Layers,
    o: &mut Outcome,
) {
    let root = sp.open("standalone.cold_ladder");
    let (secs, wmax) = time_quality(sp, distribute_tree(tree, P), &out.splitters);
    l.quality_eval_s.push(secs);
    if wmax != out.report.wmax {
        o.fail(format!(
            "partition_quality Wmax {wmax} != report {}",
            out.report.wmax
        ));
    }

    let mut shuffled = tree.leaves().to_vec();
    let mut rng = SplitMix64::new(shuffled.len() as u64);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    let t = Instant::now();
    sp.run("core.treesort", || treesort(&mut shuffled));
    l.treesort_s.push(t.elapsed().as_secs_f64());
    if shuffled.as_slice() != tree.leaves() {
        o.fail("treesort of the shuffled leaves differs from the mesh order");
    }
    l.face_keys_s.push(time_face_keys(sp, tree.leaves()));
    sp.close(root);
}

pub fn run(args: &Args) -> Outcome {
    let mut o = Outcome::default();
    let mut sp = Spans::new(false);
    let mut l = Layers::default();
    let (mut setup, mut part, mut sigs) = (vec![], vec![], vec![]);
    let (mut peaks, mut raw_part) = (Vec::new(), Vec::new());
    let mut elems = 0usize;
    let ticks0 = crate::cpu_ticks();
    let start = Instant::now();
    let mut i = 0usize;
    // The traced run times its first half untraced, for the overhead figure.
    while i < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && start.elapsed().as_secs_f64() >= args.seconds / 2.0;
        sp.set_on(traced);
        let params = mesh_params(args.seed, i);
        crate::reset_peak_rss("self");
        let op = sp.open("op.cold_ladder");
        let t0 = Stopwatch::start();
        let tree = sp.run("octree.mesh_build", || params.build::<3>(Curve::Hilbert));
        let t_mesh = t0.read().0;
        let mut engine = sp.run("mpisim.engine_new", || fresh_engine(traced));
        let dist = sp.run("core.distribute_tree", || distribute_tree(&tree, P));
        setup.push(t0.read().1);
        let a0 = alloc::snapshot();
        let t1 = Stopwatch::start();
        let out = sp.run("core.optipart", || optipart(&mut engine, dist, opts()));
        let (raw, dt) = t1.read();
        raw_part.push(raw);
        let (allocs, bytes) = alloc::since(a0);
        let op_wall = t0.read().0;
        sp.close(op);

        peaks.push(crate::peak_rss_mb("self"));
        part.push(dt);
        elems += tree.len();
        sigs.push(signature(&out));
        if let Err(e) = check_outcome(&out, tree.len()) {
            o.fail(format!("op {i}: {e}"));
        }
        if traced {
            l.op_wall_s.push(op_wall);
            l.optipart_s.push(raw);
            l.quality_evals.push(probe_count(&engine));
            l.rounds.push(out.report.rounds as f64);
            l.mesh_build_s.push(t_mesh);
            l.bytes.push(engine.stats().bytes_total as f64);
            l.msgs.push(engine.stats().msgs_total as f64);
            l.collectives.push(engine.stats().collectives as f64);
            l.syncs.push(engine.sync_points() as f64);
            l.alloc_count.push(allocs as f64);
            l.alloc_bytes.push(bytes as f64);
            standalone(&mut sp, &tree, &out, &mut l, &mut o);
            if l.par_speedup.is_none() {
                let time_at = |threads: usize| {
                    with_threads(threads, || {
                        let mut e = fresh_engine(false);
                        let d = distribute_tree(&tree, P);
                        let t = Instant::now();
                        let out = optipart(&mut e, d, opts());
                        (t.elapsed().as_secs_f64(), signature(&out))
                    })
                };
                let (t_one, s_one) = time_at(1);
                let (t_all, s_all) = time_at(crate::nproc());
                if s_one != sigs[i] || s_all != sigs[i] {
                    o.fail(format!("op {i}: signature depends on the thread count"));
                }
                l.par_speedup = Some(t_one / t_all);
            }
        }
        i += 1;
    }
    let peak = median(&peaks);
    let window_s = start.elapsed().as_secs_f64();
    crate::steal_line(&mut o, ticks0, median(&raw_part));
    o.attempted = i as u64;

    // Check every op against the warm replay path (a different code path
    // that must be bit-identical to the cold ladder), then against the
    // signatures pinned for the recorded seeds.
    let mut state = PartitionState::new();
    for (k, &sig) in sigs.iter().enumerate() {
        let tree = mesh_params(args.seed, k).build::<3>(Curve::Hilbert);
        let mut e = fresh_engine(false);
        let out = optipart_with_state(&mut e, distribute_tree(&tree, P), opts(), &mut state);
        if signature(&out) != sig {
            o.fail(format!(
                "op {k}: cold signature {sig:#x} != warm replay {:#x}",
                signature(&out)
            ));
        }
    }
    let pinned_checked = pinned::check("cold_ladder", args.seed, &sigs, &mut o);
    pinned::print("cold_ladder", args.seed, &sigs, &mut o);
    o.line(format!(
        "checks: {} ops re-run through optipart_with_state ({} replays, {} cold), \
         {pinned_checked} pinned signatures compared",
        sigs.len(),
        state.stats.replays,
        state.stats.colds
    ));

    let total: f64 = part.iter().sum();
    let (tail_s, pct, n) = tail(&part);
    o.set("setup_s", median(&setup));
    o.set("op_p50_ms", median(&part) * 1e3);
    o.set("op_tail_ms", tail_s * 1e3);
    o.set("work_per_s", elems as f64 / total);
    o.set("peak_rss_mb", peak);
    o.line(format!(
        "cold_ladder: {i} meshes, {elems} elements, window {window_s:.2} s, p = {P}"
    ));
    o.line(format!("partition_p50_s = {:.6} s", median(&part)));
    o.line(format!(
        "partition_tail_s = {tail_s:.6} s (p{pct:.0} of {n} samples)"
    ));
    o.line(format!(
        "partition_elems_per_s = {:.1} elem/s",
        elems as f64 / total
    ));
    o.line(format!(
        "setup_s = {:.6} s (median of {} mesh set-ups)",
        median(&setup),
        setup.len()
    ));
    o.line(format!(
        "peak_rss_mb = {peak:.1} MB (median over ops of the peak during set-up + op)"
    ));

    if args.trace {
        // Ratios of times take both sides from the raw wall clock.
        let untraced = &raw_part[..raw_part.len() - l.optipart_s.len()];
        crate::quality_share(&mut o, &l.quality_evals, &l.quality_eval_s, &l.optipart_s);
        o.set("core.treesort_s", median(&l.treesort_s));
        o.set("core.refine_rounds", median(&l.rounds));
        o.set("core.warm_colds", l.optipart_s.len() as f64);
        o.set("sfc.face_keys_s", median(&l.face_keys_s));
        o.set("octree.mesh_build_s", median(&l.mesh_build_s));
        o.set("mpisim.bytes", median(&l.bytes));
        o.set("mpisim.msgs", median(&l.msgs));
        o.set("mpisim.collectives", median(&l.collectives));
        o.set("mpisim.sync_points", median(&l.syncs));
        o.set("mpisim.par_speedup", l.par_speedup.unwrap_or(0.0));
        o.set("alloc.count", median(&l.alloc_count));
        o.set("alloc.bytes", median(&l.alloc_bytes));
        o.set(
            "bench.trace_overhead_frac",
            median(&l.optipart_s) / median(untraced) - 1.0,
        );
        o.ledger(&sp, "op.cold_ladder", &l.op_wall_s);
        crate::write_trace(&sp, args, &mut o);
    }
    o
}
