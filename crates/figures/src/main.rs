//! `figures <name> [flags]` — the one front door to every experiment (see
//! [`figures::experiments::TABLE`]). A command-line mistake prints one line
//! naming the argument, then the table, and exits 2.

use figures::experiments::{run_args, usage};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(msg) = run_args(&args) {
        eprintln!("figures: {msg}");
        eprint!("{}", usage());
        std::process::exit(2);
    }
}
