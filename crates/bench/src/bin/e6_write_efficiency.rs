fn main() {
    print!("{}", tbwf_bench::experiments::e6_write_efficiency::run());
}
