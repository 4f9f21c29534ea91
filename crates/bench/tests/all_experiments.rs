//! `all_experiments` launches its binaries by name, so a name without a
//! `src/bin/<name>.rs` breaks the one-shot reproduction only at run time.
//! This check fails at test time instead.

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
}
