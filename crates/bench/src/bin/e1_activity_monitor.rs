fn main() {
    print!("{}", tbwf_bench::experiments::e1_activity_monitor::run());
}
