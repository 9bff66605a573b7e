//! Regenerates every figure and table of the paper in one run.
#[allow(clippy::type_complexity)]
fn main() {
    let artifacts: [(&str, fn() -> String); 12] = [
        ("Figure 1", cedr_bench::figures::fig01),
        ("Figure 2", cedr_bench::figures::fig02),
        ("Figures 3-5", cedr_bench::figures::fig03_05),
        ("Figure 6", cedr_bench::figures::fig06),
        ("Figure 7", cedr_bench::figures::fig07),
        ("Figure 8", cedr_bench::figures::fig08),
        ("Figure 9", cedr_bench::figures::fig09),
        ("Figure 10", cedr_bench::figures::fig10),
        ("Table: sequencing ops", cedr_bench::figures::tab01),
        ("Table: negation ops", cedr_bench::figures::tab02),
        ("CIDR07_Example pipeline", cedr_bench::figures::tab03),
        ("Defs 7-12 / view update", cedr_bench::figures::tab04),
    ];
    for (name, f) in artifacts {
        println!("{}", "=".repeat(72));
        println!("{name}");
        println!("{}", "=".repeat(72));
        println!("{}", f());
    }
}
