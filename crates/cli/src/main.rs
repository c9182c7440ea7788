//! `ccs` — the command-line entry point.

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = match argv.next() {
        Some(c) => c,
        None => {
            eprintln!("{}", ccs_cli::commands::usage());
            std::process::exit(2);
        }
    };
    let args = match ccs_cli::Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    match ccs_cli::run(&cmd, &args) {
        Ok(out) => {
            if let Err(e) = print_out(&out) {
                eprintln!("error: writing the output: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Write a command's output and a newline to stdout. A reader that
/// closed the pipe early (`ccs … | head`) has read all it wanted: that
/// is a clean exit, not the panic `println!` makes of it.
fn print_out(out: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    let written = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.write_all(b"\n"))
        .and_then(|()| stdout.flush());
    match written {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        other => other,
    }
}
