fn main() {
    print!("{}", tbwf_bench::experiments::e7_canonical_use::run());
}
