fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cedr_benchmark::cli::main(&args) {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}
