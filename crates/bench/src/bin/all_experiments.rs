//! Runs every experiment binary's logic in sequence — the one-shot
//! reproduction of the paper's whole evaluation section. Results land in
//! `results/*.csv` and on stdout.

use std::process::Command;

fn main() {
    let exe = std::env::current_exe().expect("current executable path");
    let dir = exe.parent().expect("binary directory");
    for name in hidestore_bench::EXPERIMENTS {
        let path = dir.join(name);
        println!("\n################ {name} ################");
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            eprintln!("{name} exited with {status}");
            std::process::exit(1);
        }
    }
    println!("\nall experiments complete; see results/*.csv");
}
