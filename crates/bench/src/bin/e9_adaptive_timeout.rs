fn main() {
    print!("{}", tbwf_bench::experiments::e9_adaptive_timeout::run());
}
