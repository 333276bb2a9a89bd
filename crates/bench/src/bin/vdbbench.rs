//! `vdbbench` — reproduces every table and figure of the paper. `vdbbench
//! help` lists the subcommands and flags; [`sann_bench::cli`] is where they
//! are defined.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match sann_bench::cli::run(&args) {
        Ok(out) => print!("{out}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
