//! Committed correctness references: the digest of every `RunSummary`
//! (and fig5/fig7 series) in one pass over a workload's run list, for the
//! default seed (0) and the held-out seed (97). A digest may change only
//! when a change means to change published results.

const DIGESTS: &[(&str, u64, u64)] = &[
    ("paper_grid", 0, 0x9a8b_7e11_16de_1036),
    ("paper_grid", 97, 0x8bf9_0a0f_d3f8_ee53),
    ("loaded_timeline", 0, 0xd395_ef52_57d1_26aa),
    ("loaded_timeline", 97, 0xf0ae_1f2a_6a16_7733),
    ("large_mesh", 0, 0x6991_09d9_4f01_1936),
    ("large_mesh", 97, 0xdc3d_c33d_32f2_47bf),
];

/// The committed digest for `workload` at `seed`, if one is recorded.
pub fn digest(workload: &str, seed: u64) -> Option<u64> {
    DIGESTS
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}
