fn main() {
    print!("{}", tbwf_bench::experiments::e10_self_punishment::run());
}
