//! Golden values for the deterministic columns of Figures 8–11.
//!
//! At `Scale::tiny()` on the kernel workload every scheme's Figure 8
//! deduplication ratio, Figure 9 lookups/GB, Figure 10 index bytes/MB and
//! Figure 11 speed factor must equal, bit for bit, the value recorded in
//! the constants below. The relations
//! `tests/paper_claims.rs` asserts cannot see a change that shifts every
//! figure together; this can.
//!
//! The constants may be regenerated, but only by a change whose CHANGES
//! entry says which figure moved and why. Each literal is the shortest
//! round-trip form of the recorded `f64`, so comparing `to_bits` is exact.

use hidestore_bench::{
    run_dedup_scheme, run_restore_scheme, workload_versions, DedupScheme, RestoreScheme, Scale,
};
use hidestore_workloads::Profile;

fn kernel_tiny() -> (Vec<Vec<u8>>, Scale) {
    let scale = Scale::tiny();
    (workload_versions(Profile::Kernel, scale), scale)
}

fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: got {got:?}, want {want:?}");
}

#[test]
fn figures_8_9_and_10_match_the_recorded_values() {
    #[rustfmt::skip]
    let fig8: [(DedupScheme, f64); 6] = [
        (DedupScheme::Ddfs, 0.7828535798722922),
        (DedupScheme::Sparse, 0.5396195434254425),
        (DedupScheme::Silo, 0.657854095770366),
        (DedupScheme::SiloCapping, 0.657854095770366),
        (DedupScheme::SiloFbw, 0.6205147424620943),
        (DedupScheme::HiDeStore, 0.7828535798722922),
    ];
    // Per version: (scheme, Figure 9 lookups/GB, Figure 10 index bytes/MB).
    #[rustfmt::skip]
    let fig9_10: [(DedupScheme, [f64; 6], [f64; 6]); 4] = [
        (DedupScheme::Ddfs,
            [0.0, 8696.311972428854, 10738.113660694216, 13778.580627499625, 20951.07992202729, 26612.56643564295],
            [642490.0, 321452.9087989537, 214539.63202034554, 160983.21002246763, 128919.70939999534, 107575.47456241526]),
        (DedupScheme::Sparse,
            [0.0, 3580.834341588352, 5113.387457473436, 4592.860209166542, 5110.019493177388, 5629.581361386009],
            [154.0, 96.95714222391054, 83.27289834755977, 70.4036593906706, 63.5056719931323, 57.9241544113095]),
        (DedupScheme::Silo,
            [0.0, 511.54776308405025, 511.33874574734364, 510.31780101850467, 511.00194931773876, 1023.5602475247289],
            [112.0, 62.97216453717901, 46.63282307463348, 38.44738846157188, 36.34601353066063, 34.95423111027298]),
        (DedupScheme::HiDeStore,
            [0.0, 3580.834341588352, 4090.709965978749, 4082.5424081480373, 4088.01559454191, 4094.2409900989155],
            [0.0; 6]),
    ];
    assert_eq!(fig8.map(|(scheme, _)| scheme), DedupScheme::FIG8);
    assert_eq!(fig9_10.map(|(scheme, ..)| scheme), DedupScheme::FIG9);
    let (versions, scale) = kernel_tiny();
    for (scheme, ratio) in fig8 {
        let run = run_dedup_scheme(scheme, &versions, scale, Profile::Kernel);
        let label = scheme.label();
        assert_bits(&format!("fig8 {label}"), &[run.dedup_ratio], &[ratio]);
        if let Some((_, lookups, index)) = fig9_10.iter().find(|(s, ..)| *s == scheme) {
            let lookups_got: Vec<f64> = run.rows.iter().map(|r| r.lookups_per_gb).collect();
            let index_got: Vec<f64> = run.rows.iter().map(|r| r.index_bytes_per_mb).collect();
            assert_bits(&format!("fig9 {label}"), &lookups_got, lookups);
            assert_bits(&format!("fig10 {label}"), &index_got, index);
        }
    }
}

#[test]
fn figure_11_matches_the_recorded_values() {
    #[rustfmt::skip]
    let golden: [(RestoreScheme, [f64; 6]); 4] = [
        (RestoreScheme::Baseline, [0.10526315789473684, 0.09532229105631511, 0.08344109853108723, 0.07717664425189678, 0.07156808035714286, 0.06669530868530274]),
        (RestoreScheme::Capping, [0.10526315789473684, 0.09532229105631511, 0.08344109853108723, 0.07717664425189678, 0.06910021551724138, 0.0645438471148091]),
        (RestoreScheme::AlaccFbw, [0.11764705882352941, 0.10535621643066406, 0.09536125546409971, 0.09120876138860529, 0.08349609375, 0.08336913585662842]),
        (RestoreScheme::HiDeStore, [0.0625, 0.06457316490911669, 0.07152094159807477, 0.07717664425189678, 0.08349609375, 0.09527901240757533]),
    ];
    let (versions, scale) = kernel_tiny();
    assert_eq!(golden.map(|(scheme, _)| scheme), RestoreScheme::ALL);
    for (scheme, speed_factors) in golden {
        let run = run_restore_scheme(scheme, &versions, scale, Profile::Kernel);
        let versions: Vec<u32> = run.speed_factors.iter().map(|&(v, _)| v).collect();
        assert_eq!(versions, [1, 2, 3, 4, 5, 6], "{}", scheme.label());
        let got: Vec<f64> = run.speed_factors.iter().map(|&(_, sf)| sf).collect();
        assert_bits(&format!("fig11 {}", scheme.label()), &got, &speed_factors);
    }
}
