//! Op signatures pinned for the two recorded seeds (see `README.md`):
//! the first ops of each workload as the library computed them when the
//! benchmark was defined. A run on either seed must reproduce them bit for
//! bit; other seeds are checked by the workloads' own differential checks.

use crate::Outcome;

/// `(workload, seed, signatures of ops 0, 1, ...)`.
const PINNED: &[(&str, u64, &[u64])] = &[
    (
        "cold_ladder",
        2017,
        &[
            0x4a100e5e682441b3,
            0x7f66390f907129b5,
            0x8c82df36fd011948,
            0x3f362e28102f1585,
            0x64e0ceab0fe4b8eb,
            0x511ac303affe6534,
            0xe0e799b884b33372,
            0x3faafcef250f9c49,
        ],
    ),
    (
        "cold_ladder",
        4242,
        &[
            0xf9aef8a6a9b01bd2,
            0xff5ed5b5ff8c61a6,
            0x5abcb0de96637097,
            0xd06f028d89bc0f7d,
            0x6f2917221cfb7721,
            0x1cabe6c0c1a8bd3f,
            0x8933b1992646d425,
            0x0237b575d2cefe60,
        ],
    ),
    (
        "amr_replay",
        2017,
        &[
            0x0e99399e2fc0bc67,
            0xa4d786d7b86f7370,
            0x6ace382326ff9e6b,
            0x455ad32dcf22cb3d,
            0x1f8d9fc0036dece4,
            0xc1eb0cb6086a4c12,
            0xab5dc87e936a3cb2,
            0xc25dc7087e044fd8,
        ],
    ),
    (
        "amr_replay",
        4242,
        &[
            0x0e99399e2fc0bc67,
            0x8be651592cc74ea0,
            0x0c5491034b3571d9,
            0xa8a742243929205d,
            0x12c71ca3f3bae6db,
            0x401e27eb23608a31,
            0x9cc9dfacd9d47960,
            0xe5dbaef49a15949a,
        ],
    ),
];

/// Compares `sigs` with the pinned prefix for `(workload, seed)`; returns
/// how many were compared.
pub fn check(workload: &str, seed: u64, sigs: &[u64], o: &mut Outcome) -> usize {
    let Some((_, _, want)) = PINNED.iter().find(|(w, s, _)| *w == workload && *s == seed) else {
        return 0;
    };
    let n = want.len().min(sigs.len());
    for k in 0..n {
        if sigs[k] != want[k] {
            o.fail(format!(
                "op {k}: signature {:#x} != pinned {:#x}",
                sigs[k], want[k]
            ));
        }
    }
    n
}

/// Prints the signatures in `PINNED`'s format (to refresh the table).
pub fn print(workload: &str, seed: u64, sigs: &[u64], o: &mut Outcome) {
    let list: Vec<String> = sigs.iter().take(8).map(|s| format!("{s:#018x}")).collect();
    o.line(format!(
        "signatures: (\"{workload}\", {seed}, &[{}]),",
        list.join(", ")
    ));
}
