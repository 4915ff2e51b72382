//! `e11_scaling [--jobs N]`: prints [`tbwf_bench::experiments::e11_scaling`].

use std::process::ExitCode;
use tbwf_bench::experiments::e11_scaling;

fn main() -> ExitCode {
    tbwf_bench::sharded_main("e11_scaling", None, |executor| {
        print!("{}", e11_scaling::run(executor));
        ExitCode::SUCCESS
    })
}
