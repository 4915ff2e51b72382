fn main() {
    print!("{}", tbwf_bench::experiments::e5_boosting_comparison::run());
}
