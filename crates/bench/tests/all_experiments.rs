//! `all_experiments` launches its binaries by name, so a name without a
//! `src/bin/<name>.rs` breaks the one-shot reproduction only at run time,
//! and a binary it does not name is never run by it. This check fails at
//! test time instead.

use std::path::Path;

#[test]
fn every_experiment_is_a_binary_of_this_crate() {
    let bin = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    for name in hidestore_bench::EXPERIMENTS {
        let source = bin.join(format!("{name}.rs"));
        assert!(
            source.is_file(),
            "all_experiments runs {name:?}, but {} does not exist",
            source.display()
        );
    }
    for entry in std::fs::read_dir(&bin).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_stem().unwrap().to_str().unwrap();
        if name != "all_experiments" {
            assert!(
                hidestore_bench::EXPERIMENTS.contains(&name),
                "{} is not in EXPERIMENTS, so all_experiments never runs it",
                path.display()
            );
        }
    }
}
