//! `eavm-cli` — command-line driver for the reproduction pipeline.
//! `eavm-cli help` prints every subcommand's flags, rendered from the
//! tables in `args.rs`.

#![forbid(unsafe_code)]

mod args;
mod chaos;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `eavm-cli help` for usage");
            ExitCode::FAILURE
        }
    }
}
