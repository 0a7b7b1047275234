//! `preduce` — the command-line entry point. All logic lives in the
//! library half (`preduce_cli`) for testability.

#![forbid(unsafe_code)]
// Same contract as the library half (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

use preduce_cli::{run_command, Args, Command};

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd_name) = argv.next() else {
        eprintln!("{}", preduce_cli::commands::USAGE);
        std::process::exit(2);
    };
    let command = match Command::from_name(&cmd_name) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", preduce_cli::commands::USAGE);
            std::process::exit(2);
        }
    };
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = run_command(command, &args, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(i32::from(e.exit_code()));
    }
}
