fn main() {
    print!("{}", tbwf_bench::experiments::e8_abortable_ablation::run());
}
