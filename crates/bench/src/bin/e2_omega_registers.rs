fn main() {
    print!("{}", tbwf_bench::experiments::e2_omega_registers::run());
}
