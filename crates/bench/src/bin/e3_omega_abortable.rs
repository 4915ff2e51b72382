fn main() {
    print!("{}", tbwf_bench::experiments::e3_omega_abortable::run());
}
