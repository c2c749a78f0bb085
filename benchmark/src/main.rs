fn main() {
    std::process::exit(ptatin_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
