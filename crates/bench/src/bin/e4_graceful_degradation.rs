fn main() {
    print!(
        "{}",
        tbwf_bench::experiments::e4_graceful_degradation::run()
    );
}
