//! Regenerates the paper artifact (see `cedr_bench::figures`).
fn main() {
    print!("{}", cedr_bench::figures::fig01());
}
